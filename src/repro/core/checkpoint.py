"""Crash-safe checkpointing of the FLOW driver (Algorithm 1/2 state).

The spreading-metric rounds of Algorithm 2 dominate the runtime on large
netlists, and before this module a killed process replayed every round
from scratch.  Here the round state becomes durable: a checkpoint is an
atomic (write-to-tmp, ``os.replace``) JSON file stamped with a CRC-32 of
its canonical payload, holding everything the round loop needs to
continue bit-identically —

* the flow array ``f`` and edge lengths ``d`` (base64 of the raw float64
  bytes, so the round trip is exact to the last bit);
* the still-active source set, in its current shuffled order;
* the injection / round counters and the batched loop's chunk size;
* the visit-order RNG state (``random.Random.getstate()``);
* the outcomes of every *completed* FLOW iteration (cost, partition,
  metric summary — no arrays) so the driver itself is resumable, not
  just one metric.

A run killed at any point and resumed via ``flow_htp(resume_from=...)``
produces the same :class:`~repro.core.flow_htp.FlowHTPResult` (partition,
cost, per-iteration diagnostics) as an uninterrupted run: checkpoints
land only at round boundaries, and every decision after a round
boundary is a pure function of the state captured there.

Corruption is a counted event, never a crash: a torn or CRC-failing
checkpoint file is skipped (``checkpoints_discarded``) and the newest
*valid* one wins; a checkpoint whose fingerprint does not match the
current (netlist, hierarchy, config) is stale and likewise discarded.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.perf import PerfCounters
from repro.errors import CheckpointError, PartitionError

#: Checkpoint file name pattern: ``ckpt-<seq>.json``; the sequence number
#: only orders files, the payload's own counters carry the semantics.
_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.json$")

#: Format version written into every payload; bumped on layout changes.
CHECKPOINT_VERSION = 1

#: Checkpoints retained per directory (newest first); older ones are
#: pruned after each successful write so disk use stays bounded.
DEFAULT_KEEP = 3


# ----------------------------------------------------------------------
# Encoding helpers
# ----------------------------------------------------------------------
def encode_array(array: np.ndarray) -> Dict[str, str]:
    """A float array as ``{"dtype", "b64"}`` — bit-exact, JSON-safe."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": str(array.dtype),
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(doc: Dict[str, str]) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    try:
        return np.frombuffer(
            base64.b64decode(doc["b64"]), dtype=np.dtype(doc["dtype"])
        ).copy()
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise CheckpointError(f"malformed array payload: {exc!r}") from exc


def encode_rng_state(state) -> List[object]:
    """``random.Random.getstate()`` as JSON scalars."""
    version, internal, gauss_next = state
    return [int(version), [int(x) for x in internal], gauss_next]


def decode_rng_state(doc) -> Tuple[object, ...]:
    """Inverse of :func:`encode_rng_state` (feed to ``setstate``)."""
    try:
        version, internal, gauss_next = doc
        return (int(version), tuple(int(x) for x in internal), gauss_next)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed RNG state: {exc!r}") from exc


def payload_crc(payload: Dict[str, object]) -> str:
    """CRC-32 (hex) of the canonical JSON form of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return format(binascii.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


# ----------------------------------------------------------------------
# Atomic file I/O
# ----------------------------------------------------------------------
def write_checkpoint_file(
    directory: Union[str, Path], seq: int, payload: Dict[str, object]
) -> Path:
    """Write ``payload`` atomically as ``ckpt-<seq>.json`` under ``directory``.

    The envelope is ``{"crc32": ..., "payload": ...}`` with the CRC over
    the canonical payload JSON; the file appears via tmp + ``os.replace``
    so a crash mid-write can only ever leave a ``.tmp`` orphan, never a
    torn checkpoint under the real name.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"ckpt-{seq:08d}.json"
    envelope = {"crc32": payload_crc(payload), "payload": payload}
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_checkpoint_file(path: Union[str, Path]) -> Dict[str, object]:
    """The verified payload of one checkpoint file.

    Raises :class:`CheckpointError` on unreadable/unparsable files and on
    CRC mismatches (callers scanning a directory count and skip these).
    """
    path = Path(path)
    try:
        envelope = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise CheckpointError(f"checkpoint {path} has no payload envelope")
    payload = envelope["payload"]
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} payload is not an object")
    stamped = envelope.get("crc32")
    if stamped != payload_crc(payload):
        raise CheckpointError(
            f"checkpoint {path} failed its CRC check "
            f"(stamped {stamped!r})"
        )
    return payload


def list_checkpoint_frames(
    directory: Union[str, Path],
) -> List[Tuple[int, Path]]:
    """All ``ckpt-<seq>.json`` files under ``directory``, oldest first.

    Only names are inspected — no CRC check — so this is cheap enough to
    run on every replication sweep; validity is enforced where it
    matters, at install and load time.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    frames: List[Tuple[int, Path]] = []
    for entry in directory.iterdir():
        match = _CKPT_RE.match(entry.name)
        if match:
            frames.append((int(match.group(1)), entry))
    return sorted(frames)


def install_checkpoint_frame(
    directory: Union[str, Path],
    seq: int,
    envelope: Dict[str, object],
    counters: Optional[PerfCounters] = None,
) -> Optional[Path]:
    """Install a replicated ``{"crc32", "payload"}`` envelope as a frame.

    The CRC is re-verified against the payload *before* anything touches
    disk, so a frame torn in transit (or forged by a buggy peer) is
    discarded with a ``checkpoints_discarded`` count and never becomes a
    resume candidate.  Valid frames land atomically under the canonical
    ``ckpt-<seq>.json`` name via :func:`write_checkpoint_file`, which
    re-stamps the CRC from the verified payload.  Returns the written
    path, or None when the envelope was rejected.
    """
    payload = (
        envelope.get("payload") if isinstance(envelope, dict) else None
    )
    if not isinstance(payload, dict) or envelope.get("crc32") != payload_crc(
        payload
    ):
        if counters is not None:
            counters.checkpoints_discarded += 1
            counters.record_degradation(
                "checkpoint-discard",
                f"replicated frame seq {seq} failed its CRC check",
                site="checkpoint",
            )
        return None
    return write_checkpoint_file(directory, int(seq), payload)


def load_latest_checkpoint(
    directory: Union[str, Path],
    fingerprint: Optional[str] = None,
    counters: Optional[PerfCounters] = None,
) -> Optional[Tuple[int, Dict[str, object]]]:
    """The newest valid checkpoint ``(seq, payload)`` in ``directory``.

    Files that fail to parse or fail their CRC, and payloads whose
    ``fingerprint`` does not match the requested one, are discarded with
    a ``checkpoints_discarded`` count — never an exception.  Returns
    ``None`` when the directory is missing or holds nothing usable.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: List[Tuple[int, Path]] = []
    for entry in directory.iterdir():
        match = _CKPT_RE.match(entry.name)
        if match:
            candidates.append((int(match.group(1)), entry))
    for seq, path in sorted(candidates, reverse=True):
        try:
            payload = read_checkpoint_file(path)
        except CheckpointError as exc:
            if counters is not None:
                counters.checkpoints_discarded += 1
                counters.record_degradation(
                    "checkpoint-discard", exc, site="checkpoint"
                )
            continue
        if fingerprint is not None and payload.get("fingerprint") != fingerprint:
            if counters is not None:
                counters.checkpoints_discarded += 1
                counters.record_degradation(
                    "checkpoint-stale",
                    f"{path.name} fingerprints a different run",
                    site="checkpoint",
                )
            continue
        return seq, payload
    return None


def newest_checkpoint_age(directory: Union[str, Path]) -> Optional[float]:
    """Seconds since the newest checkpoint file changed (None if none)."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    newest: Optional[float] = None
    for entry in directory.rglob("ckpt-*.json"):
        try:
            mtime = entry.stat().st_mtime
        except OSError:
            continue
        if newest is None or mtime > newest:
            newest = mtime
    if newest is None:
        return None
    return max(0.0, time.time() - newest)


# ----------------------------------------------------------------------
# Algorithm 2 round state
# ----------------------------------------------------------------------
@dataclass
class MetricCheckpoint:
    """Algorithm 2 state at a round boundary — enough to continue exactly.

    ``chunk_size`` is the batched loop's adaptive sub-round size (``None``
    for the serial engine); ``rng_state`` the visit-order RNG state as
    returned by ``random.Random.getstate()``.
    """

    flows: np.ndarray
    lengths: np.ndarray
    active: List[int]
    injections: int
    rounds: int
    chunk_size: Optional[int] = None
    rng_state: Optional[Tuple[object, ...]] = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "flows": encode_array(self.flows),
            "lengths": encode_array(self.lengths),
            "active": [int(v) for v in self.active],
            "injections": int(self.injections),
            "rounds": int(self.rounds),
            "chunk_size": self.chunk_size,
            "rng_state": (
                encode_rng_state(self.rng_state)
                if self.rng_state is not None
                else None
            ),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "MetricCheckpoint":
        try:
            return cls(
                flows=decode_array(payload["flows"]),
                lengths=decode_array(payload["lengths"]),
                active=[int(v) for v in payload["active"]],
                injections=int(payload["injections"]),
                rounds=int(payload["rounds"]),
                chunk_size=(
                    int(payload["chunk_size"])
                    if payload.get("chunk_size") is not None
                    else None
                ),
                rng_state=(
                    decode_rng_state(payload["rng_state"])
                    if payload.get("rng_state") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed metric checkpoint: {exc!r}"
            ) from exc


# ----------------------------------------------------------------------
# Run fingerprint
# ----------------------------------------------------------------------
def run_fingerprint(hypergraph, spec, config) -> str:
    """SHA-256 identifying *which* run a checkpoint belongs to.

    Covers the netlist, the hierarchy and every config knob that changes
    the solve trajectory.  The engine is deliberately excluded: all
    engines are bit-identical for a fixed seed, so a run checkpointed
    under ``scipy`` may resume under ``native`` (and vice versa) without
    breaking the identity guarantee.
    """
    doc = {
        "netlist": {
            "num_nodes": hypergraph.num_nodes,
            "node_sizes": [float(s) for s in hypergraph.node_sizes()],
            "nets": [list(pins) for pins in hypergraph.nets()],
            "net_capacities": [float(c) for c in hypergraph.net_capacities()],
        },
        "hierarchy": {
            "capacities": [float(c) for c in spec.capacities],
            "branching": [int(k) for k in spec.branching],
            "weights": [float(w) for w in spec.weights],
        },
        "config": {
            "iterations": config.iterations,
            "constructions_per_metric": config.constructions_per_metric,
            "find_cut_restarts": config.find_cut_restarts,
            "find_cut_strategy": config.find_cut_strategy,
            "net_model": config.net_model,
            "seed": config.seed,
            "alpha": config.metric.alpha,
            "delta": config.metric.delta,
            "epsilon": config.metric.epsilon,
            "max_rounds": config.metric.max_rounds,
            "node_sample": config.metric.node_sample,
        },
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Iteration outcome (de)serialization
# ----------------------------------------------------------------------
def encode_outcome(outcome) -> Dict[str, object]:
    """One completed FLOW iteration as a JSON payload.

    ``outcome`` is the driver's ``(cost, partition, metric_summary,
    counters)`` tuple.
    """
    cost, partition, metric, counters = outcome
    return {
        "cost": float(cost),
        "partition": partition.to_dict(),
        "metric": metric.to_dict(),
        "counters": counters.as_dict(),
    }


def decode_outcome(payload: Dict[str, object]):
    """Inverse of :func:`encode_outcome`."""
    from repro.core.spreading_metric import MetricSummary
    from repro.htp.partition import PartitionTree

    try:
        return (
            float(payload["cost"]),
            PartitionTree.from_dict(payload["partition"]),
            MetricSummary.from_dict(payload["metric"]),
            PerfCounters.from_dict(payload["counters"]),
        )
    except (
        AttributeError, LookupError, PartitionError, TypeError, ValueError
    ) as exc:
        raise CheckpointError(
            f"malformed iteration outcome payload: {exc!r}"
        ) from exc


# ----------------------------------------------------------------------
# The driver-facing checkpointer
# ----------------------------------------------------------------------
class FlowCheckpointer:
    """Owns one checkpoint directory for one ``flow_htp`` run.

    The driver feeds it round states (via :meth:`on_metric_round`, wired
    into the metric loops as the ``on_round`` hook) and completed
    iteration outcomes (:meth:`complete_iteration`); every write captures
    the *whole* driver state — completed outcomes plus the in-progress
    metric — so any single file is sufficient to resume from.

    Parameters
    ----------
    directory:
        Where ``ckpt-*.json`` files live (created on first write).
    fingerprint:
        :func:`run_fingerprint` of the run; stamped into every payload
        and required to match on load.
    every:
        Write cadence in metric rounds (1 = every round).  Final states
        (metric finished, abort) are always written regardless.
    keep:
        Newest checkpoints retained; older files are pruned after each
        successful write.
    counters:
        Shared perf struct (``checkpoints_written`` et al).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fingerprint: str,
        every: int = 1,
        keep: int = DEFAULT_KEEP,
        counters: Optional[PerfCounters] = None,
    ) -> None:
        if every < 1:
            raise CheckpointError("checkpoint_every must be at least 1")
        if keep < 1:
            raise CheckpointError("keep must be at least 1")
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.every = every
        self.keep = keep
        self.counters = counters
        self._seq = 0
        self._iteration = 0
        self._completed: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    def restore(self, payload: Dict[str, object]) -> None:
        """Adopt a loaded payload: later writes extend, not restart.

        Also bumps the sequence counter past any file already on disk so
        resumed runs never overwrite live history.
        """
        # Re-encoding drops the arrays of outcomes written by older code.
        self._completed = [
            encode_outcome(decode_outcome(doc))
            for doc in payload.get("completed", [])
        ]
        self._iteration = int(payload.get("iteration", len(self._completed)))
        newest = load_latest_checkpoint(self.directory)
        if newest is not None:
            self._seq = newest[0] + 1

    def begin_iteration(self, iteration: int) -> None:
        """Note which iteration subsequent round states belong to."""
        self._iteration = iteration

    def on_metric_round(self, state: MetricCheckpoint, final: bool) -> None:
        """The metric loops' round hook; honours the ``every`` cadence."""
        if not final and state.rounds % self.every != 0:
            return
        self._write(metric_payload=state.to_payload())

    def complete_iteration(self, iteration: int, outcome) -> None:
        """Record a finished iteration and checkpoint the driver state."""
        self._completed.append(encode_outcome(outcome))
        self._iteration = iteration + 1
        self._write(metric_payload=None)

    # ------------------------------------------------------------------
    def _write(self, metric_payload: Optional[Dict[str, object]]) -> None:
        payload = {
            "kind": "flow-htp",
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "iteration": self._iteration,
            "completed": self._completed,
            "metric": metric_payload,
        }
        write_checkpoint_file(self.directory, self._seq, payload)
        self._seq += 1
        if self.counters is not None:
            self.counters.checkpoints_written += 1
        self._prune()

    def _prune(self) -> None:
        entries = sorted(
            (
                (int(m.group(1)), entry)
                for entry in self.directory.iterdir()
                if (m := _CKPT_RE.match(entry.name))
            ),
            reverse=True,
        )
        for _seq, entry in entries[self.keep:]:
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - benign race
                pass


def _flow_frame_problem(
    payload: Dict[str, object], iterations: int
) -> Optional[str]:
    """Why a CRC-valid payload cannot resume a run of ``iterations``.

    A resumable frame is a ``flow-htp`` payload whose ``completed`` is a
    list, whose ``iteration`` is an int equal to ``len(completed)`` and
    at most ``iterations``, and whose ``metric`` is null or an object —
    what :class:`FlowCheckpointer` writes.  Returns None for such a
    frame.
    """
    if payload.get("kind") != "flow-htp":
        return f"payload kind {payload.get('kind')!r} is not flow-htp"
    completed = payload.get("completed")
    if not isinstance(completed, list):
        return f"completed is {type(completed).__name__}, not a list"
    iteration = payload.get("iteration")
    if (
        not isinstance(iteration, int)
        or iteration != len(completed)
        or iteration > iterations
    ):
        return (
            f"iteration {iteration!r} does not follow {len(completed)} "
            f"completed outcomes of a {iterations}-iteration run"
        )
    metric = payload.get("metric")
    if metric is not None and not isinstance(metric, dict):
        return f"metric is {type(metric).__name__}, not null or an object"
    return None


def load_flow_resume(
    directory: Union[str, Path],
    fingerprint: str,
    iterations: int,
    counters: Optional[PerfCounters] = None,
) -> Optional[Dict[str, object]]:
    """The newest matching flow-htp payload under ``directory``, or None.

    ``iterations`` is the resuming run's iteration count.  A payload of
    the wrong kind, or one whose top level is not a frame that run
    could have written (see :func:`_flow_frame_problem`), is treated
    exactly like a stale fingerprint: counted and skipped, never raised.
    """
    found = load_latest_checkpoint(
        directory, fingerprint=fingerprint, counters=counters
    )
    if found is None:
        return None
    _seq, payload = found
    problem = _flow_frame_problem(payload, iterations)
    if problem is not None:
        if counters is not None:
            counters.checkpoints_discarded += 1
            counters.record_degradation(
                "checkpoint-stale", problem, site="checkpoint"
            )
        return None
    return payload

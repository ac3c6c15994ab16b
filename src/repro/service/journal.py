"""Write-ahead job journal: the crash-safe source of truth of both tiers.

Every job lifecycle event — submission (with the full spec payload),
``running``, ``done``, ``failed``, ``cancelled``, and recovery-time
requeues — is appended to one JSON-lines file *before* the in-memory
state machine moves on.  A restarted server replays the journal and owes
its clients exactly what the dead one did: finished jobs are re-served
from the content-addressed cache, queued jobs rejoin the queue in their
original order, and running jobs resume from their newest valid solver
checkpoint.

The cluster router keeps the same journal plus two record types:
``forwarded`` names the worker that acknowledged a job and its job id
there (one naming another worker is a reroute), and ``epoch`` records a
fencing epoch the router adopted.

Record format (one per line)::

    {"crc32": "<hex>", "record": {"type": ..., "job_id": ..., ...}}

The CRC-32 is computed over the canonical JSON form of ``record``.  A
line that fails to parse or fails its CRC — the torn tail a SIGKILL
leaves behind, or a scribbled sector — is **discarded with a counter**
(``journal_torn_records``), never raised: recovery always proceeds from
the longest valid prefix-with-gaps.

:func:`replay` is a *pure* function of a record list, which gives the
two properties the property tests pin down: replaying any prefix of a
journal yields a valid recovered state, and replaying twice equals
replaying once.

Fsync policy trades durability for latency: ``always`` fsyncs every
append (no accepted job is ever lost), ``batch`` fsyncs every
:data:`BATCH_FSYNC_EVERY` records (bounded loss window, measured as
``records_since_fsync`` in ``/metricsz``), ``never`` leaves flushing to
the OS.
"""

from __future__ import annotations

import binascii
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.perf import PerfCounters
from repro.errors import ServiceError

#: Accepted fsync policies.
FSYNC_POLICIES = ("always", "batch", "never")

#: Appends between fsyncs under the ``batch`` policy.
BATCH_FSYNC_EVERY = 32

#: Record types a journal line may carry.
RECORD_TYPES = ("submitted", "state", "requeued", "forwarded", "epoch")

#: Job states a ``state`` record may carry (the wire values of
#: :class:`repro.service.jobs.JobState`, minus ``queued`` which only
#: ever appears via ``submitted``/``requeued``).
_STATE_VALUES = ("running", "done", "failed", "cancelled")

#: Legal replay moves, mirroring the in-memory state machine.  Replay is
#: tolerant — a record proposing an illegal move is *skipped*, not
#: raised — so a valid recovered state comes out of any record prefix.
_REPLAY_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "queued": ("running", "cancelled"),
    "running": ("done", "failed", "cancelled"),
    "done": (),
    "failed": (),
    "cancelled": (),
}


def record_crc(record: Dict[str, object]) -> str:
    """CRC-32 (hex) over the canonical JSON form of ``record``."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return format(binascii.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


def encode_line(record: Dict[str, object]) -> str:
    """One journal line (newline included) for ``record``."""
    envelope = {"crc32": record_crc(record), "record": record}
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"


def submitted_record(
    job_id: str,
    spec_hash: str,
    spec: Dict[str, object],
    submitted_at: float,
    deadline_epoch: Optional[float] = None,
) -> Dict[str, object]:
    """The ``submitted`` record: everything needed to redo the job."""
    record: Dict[str, object] = {
        "type": "submitted",
        "job_id": job_id,
        "spec_hash": spec_hash,
        "spec": spec,
        "submitted_at": submitted_at,
    }
    if deadline_epoch is not None:
        record["deadline_epoch"] = deadline_epoch
    return record


def state_record(
    job_id: str, state: str, error: Optional[str] = None, cached: bool = False
) -> Dict[str, object]:
    """A ``state`` record: the job moved to ``state``."""
    record: Dict[str, object] = {
        "type": "state",
        "job_id": job_id,
        "state": state,
        "ts": time.time(),
    }
    if error is not None:
        record["error"] = error
    if cached:
        record["cached"] = True
    return record


def decode_line(line: str) -> Optional[Dict[str, object]]:
    """The verified record in ``line``, or None for torn/corrupt lines."""
    try:
        envelope = json.loads(line)
    except ValueError:
        return None
    if not isinstance(envelope, dict):
        return None
    record = envelope.get("record")
    if not isinstance(record, dict):
        return None
    if envelope.get("crc32") != record_crc(record):
        return None
    return record


# ----------------------------------------------------------------------
# Pure replay
# ----------------------------------------------------------------------
@dataclass
class RecoveredJob:
    """One job's journal-derived state after :func:`replay`."""

    job_id: str
    spec_hash: str
    spec_payload: Dict[str, object]
    state: str = "queued"
    submitted_at: Optional[float] = None
    deadline_epoch: Optional[float] = None
    error: Optional[str] = None
    cached: bool = False
    #: The worker that last acknowledged the job (router journals only).
    worker: Optional[str] = None
    worker_job_id: Optional[str] = None
    reroutes: int = 0


@dataclass
class RecoveredState:
    """The result of replaying a journal: jobs in submission order."""

    jobs: Dict[str, RecoveredJob] = field(default_factory=dict)
    replayed: int = 0
    skipped: int = 0
    #: Highest fencing epoch journaled (0 when no epoch record exists).
    epoch: int = 0

    def in_order(self) -> List[RecoveredJob]:
        """Jobs in first-submission order (dicts preserve insertion)."""
        return list(self.jobs.values())


def replay(records: List[Dict[str, object]]) -> RecoveredState:
    """Fold a record list into a recovered job table (pure, total).

    Tolerant by construction: records with unknown types, unknown job
    ids, missing fields, illegal state moves, ``forwarded`` records for
    terminal jobs and regressing epochs are counted on ``skipped`` and
    otherwise ignored, so *any* prefix of a journal
    (including one ending in a torn record that :func:`decode_line`
    already dropped) replays to a valid state, and replaying a journal
    twice is the same as replaying it once.
    """
    state = RecoveredState()
    for record in records:
        state.replayed += 1
        rtype = record.get("type")
        if rtype == "epoch":
            # No job id; a malformed or regressing value is garbage.
            epoch = record.get("epoch")
            if (
                isinstance(epoch, int)
                and not isinstance(epoch, bool)
                and epoch > state.epoch
            ):
                state.epoch = epoch
            else:
                state.skipped += 1
            continue
        job_id = record.get("job_id")
        if not isinstance(job_id, str) or rtype not in RECORD_TYPES:
            state.skipped += 1
            continue
        if rtype == "submitted":
            spec_payload = record.get("spec")
            spec_hash = record.get("spec_hash")
            if (
                job_id in state.jobs
                or not isinstance(spec_payload, dict)
                or not isinstance(spec_hash, str)
            ):
                state.skipped += 1
                continue
            state.jobs[job_id] = RecoveredJob(
                job_id=job_id,
                spec_hash=spec_hash,
                spec_payload=spec_payload,
                submitted_at=record.get("submitted_at"),
                deadline_epoch=record.get("deadline_epoch"),
            )
            continue
        job = state.jobs.get(job_id)
        if job is None:
            state.skipped += 1
            continue
        if rtype == "requeued":
            job.state = "queued"
            job.error = None
            job.cached = False
            continue
        if rtype == "forwarded":
            worker = record.get("worker")
            worker_job_id = record.get("worker_job_id")
            if (
                not isinstance(worker, str)
                or not isinstance(worker_job_id, str)
                or not _REPLAY_TRANSITIONS[job.state]  # already terminal
            ):
                state.skipped += 1
                continue
            if job.worker is not None and job.worker != worker:
                job.reroutes += 1
            job.worker = worker
            job.worker_job_id = worker_job_id
            continue
        new_state = record.get("state")
        if new_state not in _STATE_VALUES:
            state.skipped += 1
            continue
        if new_state not in _REPLAY_TRANSITIONS[job.state]:
            # ``done``/``failed``/``cancelled`` may legally follow
            # ``queued`` on the wire (cache hits complete instantly and
            # queue-side cancels skip ``running``); everything else is
            # an out-of-order or duplicated record.
            if job.state == "queued" and new_state in ("done", "cancelled", "failed"):
                pass
            else:
                state.skipped += 1
                continue
        job.state = new_state
        error = record.get("error")
        job.error = error if isinstance(error, str) else None
        job.cached = bool(record.get("cached", False))
    return state


# ----------------------------------------------------------------------
# The append-only journal file
# ----------------------------------------------------------------------
class Journal:
    """Append-only write-ahead journal under ``directory/journal.jsonl``.

    Parameters
    ----------
    directory:
        Journal home; created on demand.  The same directory fed to a
        restarted server makes recovery automatic.
    fsync:
        ``'always'`` (default), ``'batch'`` or ``'never'`` — see the
        module docstring for the durability trade.
    counters:
        Shared :class:`PerfCounters`; appends land on
        ``journal_records``, scan casualties on
        ``journal_torn_records``, replayed records on
        ``journal_replayed``.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "always",
        counters: Optional[PerfCounters] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ServiceError(
                f"unknown fsync policy {fsync!r} "
                f"(choose from {FSYNC_POLICIES})"
            )
        self.directory = Path(directory)
        self.path = self.directory / "journal.jsonl"
        self.fsync = fsync
        self.counters = counters if counters is not None else PerfCounters()
        self._handle = None
        self._appended = 0
        self._since_fsync = 0
        self._torn_seen = 0

    # ------------------------------------------------------------------
    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record (per the fsync policy)."""
        if self._handle is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(encode_line(record))
        self._handle.flush()
        self._appended += 1
        self._since_fsync += 1
        self.counters.journal_records += 1
        if self.fsync == "always" or (
            self.fsync == "batch" and self._since_fsync >= BATCH_FSYNC_EVERY
        ):
            os.fsync(self._handle.fileno())
            self._since_fsync = 0

    def scan(self) -> List[Dict[str, object]]:
        """All valid records on disk; torn/corrupt lines are counted.

        Never raises on content: a missing file is an empty journal, a
        bad line is a ``journal_torn_records`` increment.
        """
        if not self.path.is_file():
            return []
        records: List[Dict[str, object]] = []
        torn = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                record = decode_line(line)
                if record is None:
                    torn += 1
                    continue
                records.append(record)
        if torn:
            self._torn_seen += torn
            self.counters.journal_torn_records += torn
        return records

    def recover(self) -> RecoveredState:
        """Scan + replay, counting replayed records."""
        state = replay(self.scan())
        self.counters.journal_replayed += state.replayed
        return state

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The ``/metricsz`` view of the journal."""
        size = self.path.stat().st_size if self.path.is_file() else 0
        return {
            "path": str(self.path),
            "bytes": size,
            "appended": self._appended,
            "fsync": self.fsync,
            "records_since_fsync": self._since_fsync,
            "torn_discarded": self._torn_seen,
        }

    def close(self) -> None:
        """Flush, fsync (unless ``never``) and release the file handle."""
        if self._handle is not None:
            self._handle.flush()
            if self.fsync != "never":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

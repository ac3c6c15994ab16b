"""Content-addressed result cache: in-memory LRU over on-disk JSON blobs.

Keys are :meth:`JobSpec.canonical_hash` digests, values are the JSON
result payloads the job core produces (``{"spec_hash": <key>, "result":
FlowHTPResult.to_dict()}`` — the cached partition is the answer, so a
warm request skips the whole solve).  The memory tier is a bounded
LRU; the optional disk tier writes one ``<hash>.json`` blob per entry
under ``cache_dir`` and survives restarts.  A disk read re-populates the
memory tier (read-through), and a memory eviction never deletes the
blob — disk is the durable tier, memory the hot set.

Blobs are written atomically (tmp + rename) inside a CRC-32 envelope
``{"crc32": ..., "payload": ...}``; a read that finds a truncated,
unparseable or CRC-failing blob, or one whose ``spec_hash`` is not its
key, **quarantines** it (renames to ``*.corrupt``) and reports a miss —
corruption costs a re-solve, never an exception.  Envelope-less blobs
from older writers still load.

Traffic lands on a shared :class:`~repro.core.perf.PerfCounters`
(``cache_hits`` / ``cache_misses`` / ``cache_evictions`` /
``cache_corrupt``) so the service and the solver report through one
instrument.
"""

from __future__ import annotations

import binascii
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.perf import PerfCounters
from repro.errors import ServiceError

#: Hex digits of a SHA-256 digest — the only accepted key shape (keys
#: become file names, so this also forbids path traversal).
_KEY_LENGTH = 64


def _check_key(key: str) -> str:
    if (
        not isinstance(key, str)
        or len(key) != _KEY_LENGTH
        or any(c not in "0123456789abcdef" for c in key)
    ):
        raise ServiceError(
            f"cache keys must be {_KEY_LENGTH}-char lowercase hex digests, "
            f"got {key!r}"
        )
    return key


def _payload_crc(payload: Dict[str, object]) -> str:
    """CRC-32 (hex) over the canonical JSON form of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return format(binascii.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


class ResultCache:
    """Bounded LRU of result payloads, optionally backed by a directory.

    Parameters
    ----------
    capacity:
        Maximum entries held in memory; the least-recently-used entry is
        evicted on overflow (``cache_evictions`` counts them).
    cache_dir:
        Optional directory for the durable tier; created on first write.
        ``None`` keeps the cache purely in-memory.
    counters:
        Shared perf struct; defaults to a private one (exposed as
        ``.counters`` either way).
    """

    def __init__(
        self,
        capacity: int = 128,
        cache_dir: Optional[Union[str, Path]] = None,
        counters: Optional[PerfCounters] = None,
    ) -> None:
        if capacity < 1:
            raise ServiceError("cache capacity must be at least 1")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.counters = counters if counters is not None else PerfCounters()
        self._memory: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._disk_hits = 0
        self._memory_hits = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        key = _check_key(key)
        return key in self._memory or self._blob_path(key) is not None

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The payload stored under ``key``, or None (counted miss)."""
        key = _check_key(key)
        if key in self._memory:
            self._memory.move_to_end(key)
            self.counters.cache_hits += 1
            self._memory_hits += 1
            return self._memory[key]
        payload = self._read_blob(key)
        if payload is not None:
            self._install(key, payload)
            self.counters.cache_hits += 1
            self._disk_hits += 1
            return payload
        self.counters.cache_misses += 1
        return None

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Store ``payload`` (whose ``spec_hash`` is ``key``) in both tiers."""
        key = _check_key(key)
        stored_hash = payload.get("spec_hash")
        if stored_hash != key:
            raise ServiceError(
                f"payload says spec_hash {stored_hash!r} but is being "
                f"stored under {key!r} — content addressing violated"
            )
        self._install(key, payload)
        self._write_blob(key, payload)

    def keys(self) -> "set[str]":
        """Every content address this cache can currently answer.

        The union of the memory tier and the durable tier's blob names —
        what a cluster worker reports to the router's cache index on
        join/heartbeat.  Disk is listed, not read: a blob that later
        turns out corrupt is quarantined at ``get`` time and the stale
        index entry costs the router one failed read-through, never a
        wrong answer.
        """
        keys = set(self._memory)
        if self.cache_dir is not None and self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json"):
                stem = path.stem
                if len(stem) == _KEY_LENGTH and not stem.endswith(".tmp"):
                    keys.add(stem)
        return keys

    def stats(self) -> Dict[str, object]:
        """The ``metricsz`` view of the cache."""
        return {
            "entries": len(self._memory),
            "capacity": self.capacity,
            "hits": self.counters.cache_hits,
            "memory_hits": self._memory_hits,
            "disk_hits": self._disk_hits,
            "misses": self.counters.cache_misses,
            "evictions": self.counters.cache_evictions,
            "corrupt": self.counters.cache_corrupt,
            "disk": str(self.cache_dir) if self.cache_dir else None,
        }

    # ------------------------------------------------------------------
    def _install(self, key: str, payload: Dict[str, object]) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.counters.cache_evictions += 1

    def _blob_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.json"
        return path if path.is_file() else None

    def _read_blob(self, key: str) -> Optional[Dict[str, object]]:
        path = self._blob_path(key)
        if path is None:
            return None
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            return self._quarantine(path, f"unreadable blob: {exc}")
        if isinstance(doc, dict) and "crc32" in doc and "payload" in doc:
            payload = doc["payload"]
            if not isinstance(payload, dict) or doc["crc32"] != _payload_crc(
                payload
            ):
                return self._quarantine(path, "CRC mismatch")
        elif isinstance(doc, dict):
            # Envelope-less blob from an older writer: accept as-is.
            payload = doc
        else:
            return self._quarantine(path, "blob is not a JSON object")
        stored_hash = payload.get("spec_hash")
        if stored_hash != key:
            return self._quarantine(
                path, f"claims spec_hash {stored_hash!r} under key {key!r}"
            )
        return payload

    def _quarantine(self, path: Path, reason: str) -> None:
        """Sideline a bad blob (``*.corrupt``) and report a miss.

        A corrupt entry must cost a re-solve, not an exception — and the
        rename keeps the evidence while guaranteeing the next read of
        this key goes straight to a clean miss.
        """
        self.counters.cache_corrupt += 1
        self.counters.record_degradation(
            "cache-quarantine", f"{path}: {reason}", site="cache"
        )
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            # The rename is best-effort; a miss is returned regardless.
            pass
        return None

    def _write_blob(self, key: str, payload: Dict[str, object]) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self.cache_dir / f"{key}.json"
        # Write-then-rename so a crashed writer never leaves a torn blob
        # under the live name; the CRC envelope catches everything else
        # (bit rot, hand edits, short copies).
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps({"crc32": _payload_crc(payload), "payload": payload})
        )
        os.replace(tmp, path)

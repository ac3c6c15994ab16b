"""Worker membership: registration, heartbeats, and the death ladder.

A worker announces itself once (:meth:`WorkerRegistry.register`) with
its URL, weight, supported engines and the content addresses already in
its disk cache; afterwards it heartbeats every ``heartbeat_interval``
seconds with its live load and any newly cached addresses.  The router
never polls healthy workers — the registry is updated entirely by these
pushes, plus the :meth:`overdue` sweep the router's monitor task runs.

Death is a ladder, not a cliff:

    alive --(missed heartbeats)--> suspect --(failed probes)--> dead

A ``suspect`` worker still *owns* its jobs (they may be seconds from
finishing); only ``dead`` triggers rerouting.  A worker that heartbeats
while suspect is restored to ``alive`` with its miss count reset; a
worker that reports after being declared dead is told to re-register
(the router answers its heartbeat with 404 and the agent rejoins as a
fresh member).

The registry also maintains the **cluster cache index**: the union of
content addresses each live worker has reported, consulted by the
router's read-through tier so a warm hit *anywhere* answers without a
solve.  The index is advisory — a stale entry costs one failed remote
lookup, never a wrong answer (results are content-addressed).

All deadline arithmetic (``last_heartbeat``, :meth:`overdue`) runs on
``time.monotonic`` — an NTP step of the wall clock must never walk the
whole fleet to ``suspect`` at once.  ``joined_at`` stays wall-clock
because it is display-only.  The clock is injectable so tests can
freeze and step it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.errors import ServiceError

#: Worker lifecycle states.
WORKER_STATES = ("alive", "suspect", "dead")


@dataclass
class WorkerInfo:
    """One registered worker's membership record."""

    worker_id: str
    url: str
    weight: float = 1.0
    engines: tuple = ()
    max_concurrency: int = 1
    state: str = "alive"
    joined_at: float = field(default_factory=time.time)
    #: Monotonic-clock reading, not wall time: compared against the
    #: registry clock in :meth:`WorkerRegistry.overdue`.
    last_heartbeat: float = field(default_factory=time.monotonic)
    heartbeats: int = 0
    probe_failures: int = 0
    in_flight: int = 0
    cached_keys: Set[str] = field(default_factory=set)

    def supports(self, engine: str) -> bool:
        """Whether this worker declared support for ``engine``."""
        return not self.engines or engine in self.engines

    def status(self) -> Dict[str, object]:
        """The JSON view served by the router's ``GET /workers``."""
        return {
            "worker_id": self.worker_id,
            "url": self.url,
            "weight": self.weight,
            "engines": list(self.engines),
            "max_concurrency": self.max_concurrency,
            "state": self.state,
            "joined_at": self.joined_at,
            "last_heartbeat": self.last_heartbeat,
            "heartbeats": self.heartbeats,
            "in_flight": self.in_flight,
            "cached_keys": len(self.cached_keys),
        }


class WorkerRegistry:
    """Membership table plus the cluster-wide cache index.

    Parameters
    ----------
    heartbeat_interval:
        Seconds between expected worker heartbeats (announced back to
        joining workers, so one knob steers both sides).
    max_missed:
        Heartbeat periods a worker may miss before the monitor starts
        probing it (the ``alive -> suspect`` edge).
    probe_retries:
        Failed active probes before a suspect worker is declared dead
        (the ``suspect -> dead`` edge).
    clock:
        Monotonic time source for heartbeat deadlines (injectable so
        tests can freeze/step it; defaults to ``time.monotonic``).
    """

    def __init__(
        self,
        heartbeat_interval: float = 2.0,
        max_missed: int = 3,
        probe_retries: int = 2,
        clock=time.monotonic,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ServiceError("heartbeat_interval must be positive")
        if max_missed < 1 or probe_retries < 1:
            raise ServiceError(
                "max_missed and probe_retries must be at least 1"
            )
        self.heartbeat_interval = heartbeat_interval
        self.max_missed = max_missed
        self.probe_retries = probe_retries
        self._clock = clock
        self._workers: Dict[str, WorkerInfo] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, info: WorkerInfo) -> WorkerInfo:
        """Add (or re-add) a worker; rejoining resets its ladder state."""
        if not info.worker_id:
            raise ServiceError("worker_id must be non-empty")
        existing = self._workers.get(info.worker_id)
        if existing is not None and existing.state != "dead":
            # A re-join from a live worker (e.g. an agent retrying a
            # lost join response) refreshes the record in place.
            info.joined_at = existing.joined_at
        self._workers[info.worker_id] = info
        info.state = "alive"
        info.probe_failures = 0
        info.last_heartbeat = self._clock()
        return info

    def heartbeat(
        self,
        worker_id: str,
        in_flight: Optional[int] = None,
        cached_keys: Iterable[str] = (),
    ) -> bool:
        """Record a heartbeat; False means the worker must re-register.

        Heartbeats from ``dead`` workers are refused (False) — the
        router may already have rerouted their jobs, so the only safe
        path back is a fresh join.
        """
        worker = self._workers.get(worker_id)
        if worker is None or worker.state == "dead":
            return False
        worker.last_heartbeat = self._clock()
        worker.heartbeats += 1
        worker.state = "alive"
        worker.probe_failures = 0
        if in_flight is not None:
            worker.in_flight = int(in_flight)
        worker.cached_keys.update(cached_keys)
        return True

    def get(self, worker_id: str) -> WorkerInfo:
        try:
            return self._workers[worker_id]
        except KeyError as exc:
            raise ServiceError(f"unknown worker {worker_id!r}") from exc

    def workers(self) -> List[WorkerInfo]:
        """All workers, join order."""
        return list(self._workers.values())

    def alive(self, engine: Optional[str] = None) -> List[WorkerInfo]:
        """Workers eligible for placement (alive + supporting ``engine``).

        ``suspect`` workers are excluded from *new* placements — they
        keep their in-flight jobs but receive no more until they
        heartbeat back to ``alive``.
        """
        return [
            worker
            for worker in self._workers.values()
            if worker.state == "alive"
            and (engine is None or worker.supports(engine))
        ]

    def state_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in WORKER_STATES}
        for worker in self._workers.values():
            counts[worker.state] += 1
        return counts

    # ------------------------------------------------------------------
    # The death ladder
    # ------------------------------------------------------------------
    def overdue(self, now: Optional[float] = None) -> List[WorkerInfo]:
        """Alive/suspect workers whose heartbeat budget has lapsed.

        The router's monitor probes each returned worker and feeds the
        outcome to :meth:`probe_failed` / :meth:`heartbeat`.
        """
        now = self._clock() if now is None else now
        budget = self.heartbeat_interval * self.max_missed
        return [
            worker
            for worker in self._workers.values()
            if worker.state in ("alive", "suspect")
            and now - worker.last_heartbeat > budget
        ]

    def probe_failed(self, worker_id: str) -> str:
        """Record one failed probe; returns the worker's new state."""
        worker = self.get(worker_id)
        if worker.state == "dead":
            return "dead"
        worker.state = "suspect"
        worker.probe_failures += 1
        if worker.probe_failures >= self.probe_retries:
            worker.state = "dead"
        return worker.state

    def mark_dead(self, worker_id: str) -> WorkerInfo:
        """Declare a worker dead outright (probe short-circuit)."""
        worker = self.get(worker_id)
        worker.state = "dead"
        return worker

    # ------------------------------------------------------------------
    # The cluster cache index
    # ------------------------------------------------------------------
    def cache_owners(self, spec_hash: str) -> List[WorkerInfo]:
        """Live workers that have reported ``spec_hash`` in their cache."""
        return [
            worker
            for worker in self._workers.values()
            if worker.state == "alive" and spec_hash in worker.cached_keys
        ]

    def forget_cached(self, worker_id: str, spec_hash: str) -> None:
        """Drop a stale index entry after a failed remote lookup."""
        worker = self._workers.get(worker_id)
        if worker is not None:
            worker.cached_keys.discard(spec_hash)

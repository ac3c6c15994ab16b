"""Worker-side cluster agent: join the router, then heartbeat forever.

``htp serve --join http://router`` runs a normal single-box
:class:`~repro.service.server.PartitionServer` plus one of these agents
on a daemon thread.  The agent:

1. **joins** — ``POST /workers/join`` announcing the worker's id, URL,
   weight, concurrency and the content addresses already in its disk
   cache (so a restarted worker immediately re-enters the cluster cache
   index warm);
2. **heartbeats** — every ``interval`` seconds, ``POST
   /workers/<id>/heartbeat`` with the live queue depth and any content
   addresses cached since the last beat;
3. **rejoins** — a heartbeat answered with 404 means the router
   declared this worker dead (or restarted and lost its membership);
   the agent simply runs step 1 again.  Unreachable routers are retried
   with the bounded backoff of a :class:`~repro.core.faults.
   FaultTolerance` — a worker survives a router outage and reattaches
   when it returns.

Beyond the membership loop the agent is the worker's window on the
cluster: every join/heartbeat response updates a shared
:class:`~repro.service.cluster.replication.ClusterView` (fencing epoch,
peer set, replica count, standby URL).  An epoch bump observed on a
heartbeat means a new router incarnation took over — the agent
re-registers immediately so placement state is rebuilt under the new
epoch.  When the router stays unreachable past ``failover_after``
consecutive contacts and a standby URL is known, the agent retargets its
client at the standby and keeps joining there until the takeover
completes (the standby 503s joins while still tailing).  If a
:class:`~repro.service.cluster.replication.CheckpointReplicator` is
attached, each successful heartbeat also pushes newly-written
checkpoint frames to the replica peers, so replication lag is bounded
by one heartbeat interval.
"""

from __future__ import annotations

import threading
import uuid
from typing import Callable, Dict, Iterable, Optional, Set

from repro.core.faults import FaultTolerance
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.cluster.replication import ClusterView


def default_worker_id() -> str:
    """A fresh worker identity (stable for the process lifetime)."""
    return f"worker-{uuid.uuid4().hex[:10]}"


class WorkerAgent:
    """The join/heartbeat daemon thread of one cluster worker.

    Parameters
    ----------
    router_url:
        Base URL of the ``htp route`` process.
    worker_url:
        This worker's own advertised base URL (the router submits jobs
        here, so it must be reachable *from the router*).
    worker_id:
        Stable identity; defaults to a fresh ``worker-<hex>``.
    weight:
        Declared capacity weight for placement (see the ring docs).
    max_concurrency:
        The worker's ``JobManager`` concurrency, announced for the
        router's capacity policy.
    cached_keys:
        Callable returning the content addresses currently in the
        worker's cache (only new ones are sent per beat).
    load:
        Callable returning the worker's in-flight job count
        (queued + running).
    interval:
        Heartbeat period; overridden by the router's announced interval
        on join when the router asks for a different cadence.
    tolerance:
        Retry budgets for unreachable-router backoff.
    failover_after:
        Consecutive failed router contacts before the agent retargets
        at the announced standby URL (when one is known).
    """

    def __init__(
        self,
        router_url: str,
        worker_url: str,
        worker_id: Optional[str] = None,
        weight: float = 1.0,
        max_concurrency: int = 1,
        cached_keys: Optional[Callable[[], Iterable[str]]] = None,
        load: Optional[Callable[[], int]] = None,
        interval: float = 2.0,
        tolerance: Optional[FaultTolerance] = None,
        client_timeout: float = 10.0,
        failover_after: int = 3,
    ) -> None:
        self.worker_id = worker_id or default_worker_id()
        self.worker_url = worker_url
        self.router_url = router_url
        self.weight = float(weight)
        self.max_concurrency = int(max_concurrency)
        self.interval = float(interval)
        self.tolerance = tolerance or FaultTolerance()
        self.failover_after = max(1, int(failover_after))
        self._cached_keys = cached_keys or (lambda: ())
        self._load = load or (lambda: 0)
        self._client_timeout = client_timeout
        self._client = ServiceClient(router_url, timeout=client_timeout)
        self._reported: Set[str] = set()
        self._joined = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.view = ClusterView()
        #: Optional CheckpointReplicator, attached by the serve wiring;
        #: synced after every successful heartbeat.
        self.replicator = None
        self.beats = 0
        self.rejoins = 0
        self.failovers = 0
        self._router_failures = 0

    # ------------------------------------------------------------------
    @property
    def joined(self) -> bool:
        """Whether the most recent join/heartbeat was acknowledged."""
        return self._joined.is_set()

    def join_payload(self) -> Dict[str, object]:
        """The membership announcement (also reused on rejoin)."""
        keys = set(self._cached_keys())
        self._reported = set(keys)
        return {
            "worker_id": self.worker_id,
            "url": self.worker_url,
            "weight": self.weight,
            "max_concurrency": self.max_concurrency,
            "cached_keys": sorted(keys),
        }

    def join_once(self) -> bool:
        """One join attempt; True when the router acknowledged."""
        try:
            response = self._client._request(
                "POST", "/workers/join", body=self.join_payload()
            )
        except ServiceClientError:
            self._joined.clear()
            self._router_failed()
            return False
        self._router_failures = 0
        announced = response.get("heartbeat_interval")
        if isinstance(announced, (int, float)) and announced > 0:
            self.interval = float(announced)
        self.view.update(response)
        self._joined.set()
        return True

    def heartbeat_once(self) -> bool:
        """One heartbeat; rejoins on 404, False when unreachable."""
        keys = set(self._cached_keys())
        fresh = sorted(keys - self._reported)
        try:
            response = self._client._request(
                "POST",
                f"/workers/{self.worker_id}/heartbeat",
                body={"in_flight": int(self._load()), "cached_keys": fresh},
            )
        except ServiceClientError as exc:
            if exc.status == 404:
                # Declared dead (or the router restarted): re-register.
                self.rejoins += 1
                return self.join_once()
            self._joined.clear()
            self._router_failed()
            return False
        self._router_failures = 0
        self._reported.update(fresh)
        if self.view.update(response):
            # The fencing epoch advanced under our feet — a new router
            # incarnation took over.  Re-register so its membership
            # table (and the placement ring) includes this worker.
            self.rejoins += 1
            return self.join_once()
        self._joined.set()
        self.beats += 1
        if self.replicator is not None:
            try:
                self.replicator.sync()
            except Exception:  # pragma: no cover - defensive
                pass  # replication is best-effort, never kills the beat
        return True

    def _router_failed(self) -> None:
        """Count a failed contact; retarget at the standby when owed.

        The standby URL was learned from the *old* primary's
        announcements.  While the standby is still tailing it answers
        503 (also a failure), so the agent simply keeps knocking there
        until the takeover flips it active; a fenced old primary coming
        back cannot reclaim the agent because nothing retargets away
        from the standby except another announced failover.
        """
        self._router_failures += 1
        standby = self.view.standby_url
        if (
            self._router_failures >= self.failover_after
            and standby
            and standby != self.router_url
        ):
            self.router_url = standby
            self._client = ServiceClient(
                standby, timeout=self._client_timeout
            )
            self._router_failures = 0
            self.failovers += 1

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name=f"cluster-agent-{self.worker_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop heartbeating and join the thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def wait_joined(self, timeout: float = 10.0) -> bool:
        """Block until the router has acknowledged this worker."""
        return self._joined.wait(timeout)

    def _run(self) -> None:
        wave = 0
        while not self._stop.is_set():
            if not self._joined.is_set():
                if self.join_once():
                    wave = 0
                else:
                    # Router unreachable: bounded backoff, then retry —
                    # the worker outlives a router outage.
                    wave = min(wave + 1, self.tolerance.task_retries + 1)
                    if self._stop.wait(self.tolerance.backoff(wave)):
                        return
                    continue
            if self._stop.wait(self.interval):
                return
            self.heartbeat_once()

"""The cluster router: content-addressed placement over N workers.

``htp route`` runs one of these in front of any number of ``htp serve
--join`` workers.  Clients speak the *same* wire dialect to the router
as to a single worker: the router serves the job endpoints with the
worker's own code (:class:`~repro.service.server.HttpServerBase` over a
:class:`ClusterRouter` instead of a ``JobManager``), so ``htp submit``
and :class:`~repro.service.client.ServiceClient` work against either
unchanged.  The router adds the membership endpoints the worker agents
push to (``/workers/join``, ``/workers/<id>/heartbeat``).

A submission flows through three tiers:

1. **Router memory cache** — a bounded LRU over result payloads keyed by
   the spec's content address.  A hit answers instantly.
2. **Cluster cache index** — workers report their cached content
   addresses on join/heartbeat; on a router miss the read-through tier
   asks an owning worker's ``GET /cache/<hash>`` and installs the
   result (``cluster_remote_hits``).  The index is advisory: a stale
   entry costs one failed lookup, never a wrong answer.
3. **Placement** — the configured policy (``hash`` or ``capacity``, see
   :mod:`~repro.service.cluster.placement`) picks an alive,
   engine-capable worker.

The router keeps the worker's journal (:mod:`repro.service.journal`):
``submitted`` is written before any placement, ``forwarded`` names the
worker that acknowledged the job and its job id there, and ``state``
records the terminal state, so a restarted router owes its clients
exactly what the dead one did.  A job journaled but never forwarded has
no owner after a restart; the monitor's orphan sweep places it again.

Failure handling mirrors the repo's FaultTolerance ladder — retry,
reroute, mark dead: a connection-refused forward marks the worker dead
and tries the next eligible one; a worker that stops heartbeating is
probed, suspected, then declared dead, and its in-flight jobs are
re-placed (a ``forwarded`` record naming another worker is the
reroute).  Workers are shared-nothing: each keeps a private checkpoint
root, and checkpoint frames are replicated peer-to-peer (see
:mod:`~repro.service.cluster.replication`), so the replacement worker
fetches the dead one's newest replicated frame and produces a
bit-identical result (the chaos tier proves this end to end).
Completed results are likewise write-through-replicated to extra ring
owners so a cached answer survives its producer's death.

The router itself fails over: ``htp route --standby <primary>`` runs a
warm standby that tails the primary's WAL (``GET /wal?since=<seq>``)
into its own journal and takes over after ``epoch_timeout`` seconds of
failed polls.  Every forward is stamped with the router's **fencing
epoch** (journaled as ``epoch``, monotonically growing across
recoveries); workers refuse forwards carrying an older epoch, so a
zombie primary that lost a takeover race can never place work.

All internal deadline arithmetic (heartbeats, monitor grace) runs on an
injectable monotonic clock; only client-visible timestamps
(``submitted_at``, ``deadline_epoch``) stay wall-clock because they are
journaled and cross process boundaries.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.faults import FaultTolerance
from repro.core.perf import PerfCounters
from repro.errors import ServiceError
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.cluster.placement import make_policy, replica_owners
from repro.service.cluster.registry import WorkerInfo, WorkerRegistry
from repro.service.jobs import (
    TERMINAL_STATES,
    AdmissionError,
    JobSpec,
    JobState,
    ResultNotReady,
    UnknownJobError,
)
from repro.service.journal import Journal, state_record, submitted_record
from repro.service.server import HttpServerBase, ServerThread, _HttpError

#: Pseudo-worker shown for jobs answered by a cache tier (no real
#: worker ever saw them).
ROUTER_CACHE = "router-cache"

#: Default TCP port of ``htp route`` (the worker default plus one).
DEFAULT_ROUTER_PORT = 8948

#: Terminal router job states (the same wire values a worker serves).
_TERMINAL = tuple(state.value for state in TERMINAL_STATES)


class NoCapacityError(ServiceError):
    """No alive, engine-capable worker to place on (HTTP 503)."""


@dataclass
class RouterJob:
    """One routed job as the router tracks it.

    ``state`` always holds a client-visible
    :class:`~repro.service.jobs.JobState` wire value, but it is a view
    of a job running elsewhere: a reroute moves it ``running -> queued``
    and a refused forward ``queued -> failed``, moves a local
    :class:`~repro.service.jobs.Job` may never make.  ``worker`` and
    ``worker_job_id`` name the worker that acknowledged the job (None
    until one has); ``forwarding`` is set while a forward is in flight.
    """

    job_id: str
    spec_hash: str
    spec_payload: Dict[str, object]
    state: str = "queued"
    worker: Optional[str] = None
    worker_job_id: Optional[str] = None
    cached: bool = False
    error: Optional[str] = None
    result_payload: Optional[Dict[str, object]] = None
    submitted_at: float = field(default_factory=time.time)
    deadline_epoch: Optional[float] = None
    reroutes: int = 0
    forwarding: bool = False

    @property
    def engine(self) -> Optional[str]:
        config = self.spec_payload.get("config")
        if isinstance(config, dict):
            engine = config.get("engine")
            if isinstance(engine, str):
                return engine
        return None

    def status(self) -> Dict[str, object]:
        """The JSON status document served by the router."""
        doc: Dict[str, object] = {
            "job_id": self.job_id,
            "spec_hash": self.spec_hash,
            "state": self.state,
            "cached": self.cached,
            "worker": self.worker,
            "worker_job_id": self.worker_job_id,
            "reroutes": self.reroutes,
            "submitted_at": self.submitted_at,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


class ClusterRouter:
    """Registry + cache tiers + journaled placement (the router core).

    Thread-safe: every public method may be called from any thread (the
    HTTP front end runs them on executor threads).  The lock is never
    held across network I/O — worker calls happen between short locked
    sections, so a slow worker stalls one request, not the router.

    Parameters
    ----------
    policy:
        Placement policy name (``hash`` or ``capacity``).
    journal_dir:
        Optional WAL home; same semantics as the worker journal — feed
        the same directory to a restarted router and it owes clients
        exactly what the dead one did.
    cache_capacity:
        Entries in the router's in-memory result LRU.
    heartbeat_interval / max_missed / probe_retries:
        The registry's death-ladder knobs.
    worker_timeout:
        HTTP timeout for forwards and status proxying.
    probe_timeout:
        HTTP timeout for liveness probes (short: a probe that hangs is
        a failure).
    replicas:
        Extra copies of results (and the checkpoint-replica count
        announced to workers) past the primary owner; 0 turns
        replication off.
    clock:
        Monotonic time source for the monitor's deadline arithmetic
        (injectable so tests can freeze/step it).
    """

    def __init__(
        self,
        policy: str = "hash",
        journal_dir: Optional[Union[str, Path]] = None,
        cache_capacity: int = 256,
        heartbeat_interval: float = 2.0,
        max_missed: int = 3,
        probe_retries: int = 2,
        worker_timeout: float = 30.0,
        probe_timeout: float = 2.0,
        replicas: int = 1,
        clock=time.monotonic,
    ) -> None:
        if replicas < 0:
            raise ServiceError("replicas must be non-negative")
        self.counters = PerfCounters()
        self.policy = make_policy(policy)
        self._clock = clock
        self.registry = WorkerRegistry(
            heartbeat_interval=heartbeat_interval,
            max_missed=max_missed,
            probe_retries=probe_retries,
            clock=clock,
        )
        self.cache = ResultCache(
            capacity=cache_capacity, counters=self.counters
        )
        self.journal = (
            Journal(journal_dir, counters=self.counters)
            if journal_dir is not None
            else None
        )
        self.worker_timeout = worker_timeout
        self.probe_timeout = probe_timeout
        self.replicas = int(replicas)
        #: Fencing epoch stamped into every forward; recovery (and a
        #: standby takeover, which recovers over the tailed WAL) adopts
        #: max(journaled) + 1, so successive incarnations never share
        #: an epoch.
        self.epoch = 1
        self._standby_url: Optional[str] = None
        self._lock = threading.RLock()
        self._jobs: Dict[str, RouterJob] = {}
        self._clients: Dict[str, ServiceClient] = {}
        self._seq = 1
        self._started_at = self._clock()

    # ------------------------------------------------------------------
    # Membership (driven by worker agents)
    # ------------------------------------------------------------------
    def join(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Register a worker from its ``POST /workers/join`` payload."""
        worker_id = payload.get("worker_id")
        url = payload.get("url")
        if not isinstance(worker_id, str) or not worker_id:
            raise ServiceError("join payload needs a non-empty worker_id")
        if not isinstance(url, str) or not url.startswith("http"):
            raise ServiceError("join payload needs an http url")
        try:
            weight = float(payload.get("weight", 1.0))
        except (TypeError, ValueError) as exc:
            raise ServiceError("join weight must be a number") from exc
        if weight <= 0:
            raise ServiceError("join weight must be positive")
        engines = payload.get("engines", ())
        if not isinstance(engines, (list, tuple)):
            raise ServiceError("join engines must be a list")
        cached_keys = payload.get("cached_keys", ())
        if not isinstance(cached_keys, (list, tuple)):
            raise ServiceError("join cached_keys must be a list")
        info = WorkerInfo(
            worker_id=worker_id,
            url=url,
            weight=weight,
            engines=tuple(str(engine) for engine in engines),
            max_concurrency=int(payload.get("max_concurrency", 1) or 1),
            cached_keys={str(key) for key in cached_keys},
        )
        with self._lock:
            self.registry.register(info)
            alive = len(self.registry.alive())
            doc = {
                "worker_id": worker_id,
                "heartbeat_interval": self.registry.heartbeat_interval,
                "workers_alive": alive,
            }
            doc.update(self._announce())
        return doc

    def heartbeat(
        self, worker_id: str, payload: Dict[str, object]
    ) -> Dict[str, object]:
        """Record a heartbeat; :class:`UnknownJobError` (404) tells a
        worker that is not a live member to re-register."""
        in_flight = payload.get("in_flight")
        cached_keys = payload.get("cached_keys", ())
        if not isinstance(cached_keys, (list, tuple)):
            cached_keys = ()
        with self._lock:
            known = self.registry.heartbeat(
                worker_id,
                in_flight=in_flight if isinstance(in_flight, int) else None,
                cached_keys=(str(key) for key in cached_keys),
            )
        if not known:
            raise UnknownJobError(
                f"worker {worker_id!r} is not a live member; re-register"
            )
        with self._lock:
            doc = {"worker_id": worker_id, "known": True}
            doc.update(self._announce())
        return doc

    def workers(self) -> List[Dict[str, object]]:
        with self._lock:
            return [worker.status() for worker in self.registry.workers()]

    def _announce(self) -> Dict[str, object]:
        """Cluster state piggybacked on join/heartbeat responses.

        Caller holds the lock.  This is how workers learn the fencing
        epoch, their peer set (for checkpoint replication), the replica
        count and where the standby router lives.
        """
        return {
            "epoch": self.epoch,
            "replicas": self.replicas,
            "standby": self._standby_url,
            "peers": [
                {
                    "worker_id": worker.worker_id,
                    "url": worker.url,
                    "weight": worker.weight,
                }
                for worker in self.registry.alive()
            ],
        }

    def register_standby(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Record the warm standby's URL (``POST /standby``).

        The standby announces itself on every WAL poll; the URL is
        rebroadcast to workers so their agents know where to fail over
        when this router stops answering.
        """
        url = payload.get("url")
        if not isinstance(url, str) or not url.startswith("http"):
            raise ServiceError("standby payload needs an http url")
        with self._lock:
            self._standby_url = url
            return {"standby": url, "epoch": self.epoch}

    def wal_records(self, since: int) -> Dict[str, object]:
        """The journal's valid records from position ``since`` on.

        Positional, not keyed: journal records carry no sequence
        numbers, so the standby's cursor is simply how many valid
        records it already holds.  Torn lines are dropped by ``scan``
        (counted on ``journal_torn_records``), which keeps both sides'
        positions consistent — a torn tail is invisible to the cursor.
        """
        if since < 0:
            raise ServiceError("since must be non-negative")
        records = self.journal.scan() if self.journal is not None else []
        with self._lock:
            return {
                "since": since,
                "records": records[since:],
                "total": len(records),
                "epoch": self.epoch,
            }

    # ------------------------------------------------------------------
    # The client-facing job API
    # ------------------------------------------------------------------
    def submit(
        self, spec: JobSpec, deadline: Optional[float] = None
    ) -> RouterJob:
        """Answer ``spec`` from a cache tier or place it on a worker.

        Raises :class:`NoCapacityError` (nothing journaled) when no
        alive worker supports the spec's engine, :class:`AdmissionError`
        when the chosen worker's queue is full and :class:`ServiceError`
        when it refused the job; those two leave the job ``failed``.
        """
        spec_hash = spec.canonical_hash()
        with self._lock:
            cached = self.cache.get(spec_hash)
        if cached is None:
            cached = self._lookup(spec_hash)
        engine = str(spec.config["engine"])
        with self._lock:
            if cached is None and not self.registry.alive(engine):
                raise NoCapacityError(
                    f"no alive worker supporting engine {engine!r} to "
                    "place the job on"
                )
            job = self._new_job(spec, spec_hash, deadline)
            if cached is not None:
                job.cached = True
                job.worker = ROUTER_CACHE
                job.result_payload = cached
                self._resolve(job, "done", error=None)
                return job
            job.forwarding = True
        try:
            self._forward(job)
        finally:
            with self._lock:
                job.forwarding = False
        return job

    def get(self, job_id: str) -> RouterJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> List[RouterJob]:
        with self._lock:
            return list(self._jobs.values())

    def status(self, job_id: str) -> Dict[str, object]:
        """The job's status, refreshed from its worker when in flight."""
        job = self.get(job_id)
        with self._lock:
            if job.state in _TERMINAL:
                return job.status()
            worker_job_id = job.worker_job_id
            url = self._worker_url(job.worker)
        if worker_job_id is None or url is None:
            return job.status()
        try:
            remote = self._client(url).status(worker_job_id)
        except ServiceClientError as exc:
            self._poll_failed(job, exc)
            return job.status()
        return self._absorb_remote(job, remote)

    def result(self, job_id: str) -> Dict[str, object]:
        """The result payload; :class:`ResultNotReady` until done."""
        self.status(job_id)  # refresh terminal state from the worker
        job = self.get(job_id)
        with self._lock:
            if job.state != "done":
                raise ResultNotReady(
                    f"job {job.job_id} is {job.state}, not done",
                    state=job.state,
                    job_error=job.error,
                )
            payload = job.result_payload or self.cache.get(job.spec_hash)
        if payload is None:
            payload = self._lookup(job.spec_hash, first=job.worker)
        if payload is None:
            raise ServiceError(
                f"job {job.job_id} is done but its result payload is "
                "unavailable (no cache tier holds "
                f"{job.spec_hash})"
            )
        with self._lock:
            job.result_payload = payload
            return dict(payload)

    def cancel(self, job_id: str) -> RouterJob:
        job = self.get(job_id)
        with self._lock:
            if job.state in _TERMINAL:
                return job
            worker_job_id = job.worker_job_id
            url = self._worker_url(job.worker)
        if worker_job_id is not None and url is not None:
            try:
                self._client(url).cancel(worker_job_id)
            except ServiceClientError:
                pass  # the worker may be gone; the cancel stands anyway
        with self._lock:
            if job.state not in _TERMINAL:
                self._resolve(job, "cancelled", error=None)
            return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state_counts(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    def metrics(self) -> Dict[str, object]:
        """The router's ``/metricsz`` document (with a ``cluster`` section)."""
        with self._lock:
            return {
                "perf": self.counters.as_dict(),
                "cache": self.cache.stats(),
                "cluster": {
                    "policy": self.policy.name,
                    "workers": self.registry.state_counts(),
                    "heartbeat_interval": self.registry.heartbeat_interval,
                    "placements": self.counters.cluster_placements,
                    "reroutes": self.counters.cluster_reroutes,
                    "remote_cache_hits": self.counters.cluster_remote_hits,
                    "epoch": self.epoch,
                    "replicas": self.replicas,
                    "standby": self._standby_url,
                    "epoch_bumps": self.counters.router_epoch_bumps,
                    "cache_replications": self.counters.cache_replications,
                    "ckpt_replications": self.counters.ckpt_replications,
                    "ckpt_replica_fetches": (
                        self.counters.ckpt_replica_fetches
                    ),
                    "netfaults_injected": self.counters.netfaults_injected,
                },
                "jobs": self.state_counts(),
                "journal": (
                    self.journal.stats() if self.journal is not None else None
                ),
            }

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> Dict[str, int]:
        """Replay the journal into the job table.

        Also adopts the next fencing epoch: ``max(journaled) + 1``,
        journaled immediately so the *next* incarnation (or a standby
        tailing this WAL) moves past it in turn.  Counted on
        ``router_epoch_bumps`` only when an earlier epoch existed — a
        fresh journal starts at epoch 1 without a bump.
        """
        if self.journal is None:
            return dict(recovered=0, open=0, resolved=0, skipped=0)
        recovered = self.journal.recover()
        open_jobs = 0
        with self._lock:
            if recovered.epoch > 0:
                self.epoch = recovered.epoch + 1
                self.counters.router_epoch_bumps += 1
            self._append({"type": "epoch", "epoch": self.epoch})
            for entry in recovered.in_order():
                job = RouterJob(**vars(entry))
                job.submitted_at = entry.submitted_at or time.time()
                if job.state not in _TERMINAL:
                    job.state = "queued"
                    open_jobs += 1
                elif job.cached and job.worker is None:
                    job.worker = ROUTER_CACHE  # answered, never forwarded
                self._jobs[job.job_id] = job
                suffix = entry.job_id.rsplit("-r", 1)[-1]
                if suffix.isdigit():
                    self._seq = max(self._seq, int(suffix) + 1)
            self._started_at = self._clock()
        total = len(recovered.jobs)
        return dict(
            recovered=total,
            open=open_jobs,
            resolved=total - open_jobs,
            skipped=recovered.skipped,
        )

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # The monitor (death ladder + orphan rescue)
    # ------------------------------------------------------------------
    def monitor_tick(self) -> None:
        """One sweep: probe overdue workers, reroute orphaned jobs.

        Called periodically by the HTTP front end; safe to call from
        tests directly.
        """
        now = self._clock()
        with self._lock:
            overdue = [
                (worker.worker_id, worker.url)
                for worker in self.registry.overdue(now)
            ]
        for worker_id, url in overdue:
            try:
                ServiceClient(
                    url,
                    timeout=self.probe_timeout,
                    tolerance=FaultTolerance(task_retries=0),
                ).healthz()
            except ServiceClientError:
                self._probe_failure(worker_id)
            else:
                with self._lock:
                    # A successful probe counts as the missed heartbeat.
                    self.registry.heartbeat(worker_id)
        # Orphan rescue: jobs no worker acknowledged (journaled but never
        # forwarded before a router restart, or parked with no eligible
        # worker) and jobs whose worker is unknown (router restarted,
        # worker never rejoined) or already dead.  Grace-delayed so a
        # restarting cluster gets one heartbeat budget to reassemble
        # before the router starts re-placing work.
        grace = (
            self.registry.heartbeat_interval * self.registry.max_missed
        )
        if now - self._started_at < grace:
            return
        with self._lock:
            orphans = [
                job
                for job in self._jobs.values()
                if job.state not in _TERMINAL
                and not job.forwarding
                and self._worker_state(job.worker) in (None, "dead")
            ]
        for job in orphans:
            self._reroute_job(job)

    def reroute_worker(self, worker_id: str) -> int:
        """Re-place every non-terminal job owned by a dead worker."""
        with self._lock:
            victims = [
                job
                for job in self._jobs.values()
                if job.worker == worker_id
                and job.state not in _TERMINAL
                and not job.forwarding
            ]
        for job in victims:
            self._reroute_job(job)
        return len(victims)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_job(
        self,
        spec: JobSpec,
        spec_hash: str,
        deadline: Optional[float],
    ) -> RouterJob:
        """Create and journal a job (caller holds the lock)."""
        job_id = f"{spec_hash[:12]}-r{self._seq:04d}"
        self._seq += 1
        job = RouterJob(
            job_id=job_id,
            spec_hash=spec_hash,
            spec_payload=spec.to_payload(),
            deadline_epoch=(
                time.time() + deadline if deadline is not None else None
            ),
        )
        self._append(
            submitted_record(
                job_id,
                spec_hash,
                job.spec_payload,
                job.submitted_at,
                job.deadline_epoch,
            )
        )
        self._jobs[job_id] = job
        return job

    def _client(self, url: str) -> ServiceClient:
        with self._lock:
            client = self._clients.get(url)
            if client is None:
                client = ServiceClient(url, timeout=self.worker_timeout)
                self._clients[url] = client
            return client

    def _worker_url(self, worker_id: Optional[str]) -> Optional[str]:
        try:
            return self.registry.get(worker_id or "").url
        except ServiceError:
            return None

    def _worker_state(self, worker_id: Optional[str]) -> Optional[str]:
        try:
            return self.registry.get(worker_id or "").state
        except ServiceError:
            return None

    def _append(self, record: Dict[str, object]) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _resolve(
        self, job: RouterJob, state: str, error: Optional[str]
    ) -> None:
        """Terminal transition (caller holds the lock)."""
        job.state = state
        job.error = error
        self._append(state_record(job.job_id, state, error, job.cached))
        worker = self.registry._workers.get(job.worker or "")
        if worker is not None:
            worker.in_flight = max(0, worker.in_flight - 1)

    def _lookup(
        self, spec_hash: str, first: Optional[str] = None
    ) -> Optional[Dict[str, object]]:
        """Read-through: fetch a result from a worker's durable cache.

        Tries ``first`` (a done job's own worker) before the workers the
        cache index names, and installs a hit in the router's LRU.
        """
        with self._lock:
            owners = [
                (worker.worker_id, worker.url)
                for worker in self.registry.cache_owners(spec_hash)
                if worker.worker_id != first
            ]
            url = self._worker_url(first)
            if url is not None:
                owners.insert(0, (first, url))
        for worker_id, url in owners:
            try:
                payload = self._client(url).cache_lookup(spec_hash)
            except ServiceClientError as exc:
                if exc.status == 404:
                    with self._lock:
                        # Stale index entry (evicted or quarantined).
                        self.registry.forget_cached(worker_id, spec_hash)
                continue
            with self._lock:
                try:
                    self.cache.put(spec_hash, payload)
                except ServiceError:
                    continue  # wrong-hash payload: treat as a miss
                self.counters.cluster_remote_hits += 1
            return payload
        return None

    def _forward(self, job: RouterJob, exclude: Set[str] = frozenset()) -> None:
        """Submit ``job`` to a worker, walking the reroute ladder.

        With no eligible worker left the job stays ``queued`` for the
        monitor's orphan sweep.  Raises :class:`AdmissionError` when the
        chosen worker answered 429 and :class:`ServiceError` when it
        refused the job; both resolve the job ``failed``.
        """
        tried: Set[str] = set(exclude)
        while True:
            with self._lock:
                eligible = [
                    worker
                    for worker in self.registry.alive(job.engine)
                    if worker.worker_id not in tried
                ]
                chosen = self.policy.choose(job.spec_hash, eligible)
                if chosen is None:
                    return
                url = self.registry.get(chosen).url
                deadline_epoch = job.deadline_epoch
                forward_payload = dict(job.spec_payload)
                # The fencing stamp: workers refuse forwards whose epoch
                # is older than the newest they have seen, so a fenced
                # zombie router cannot place work (its submissions fail
                # here with 409 and the job resolves failed *at the
                # zombie*, never reaching a worker queue).
                forward_payload["router_epoch"] = self.epoch
            remaining: Optional[float] = None
            if deadline_epoch is not None:
                remaining = deadline_epoch - time.time()
                if remaining <= 0:
                    with self._lock:
                        self._resolve(
                            job, "failed", error="deadline expired in transit"
                        )
                    return
            try:
                response = self._client(url).submit(
                    forward_payload, deadline=remaining
                )
            except ServiceClientError as exc:
                if exc.status == 0:
                    # Transport failure: the worker is gone.  Mark it
                    # dead (a rejoin resurrects it) and try the next.
                    with self._lock:
                        try:
                            self.registry.mark_dead(chosen)
                        except ServiceError:
                            pass
                    tried.add(chosen)
                    continue
                if exc.status == 429:
                    with self._lock:
                        self._resolve(
                            job, "failed", error=f"worker busy: {exc}"
                        )
                    raise AdmissionError(
                        str(exc), retry_after=exc.retry_after or 1.0
                    ) from exc
                with self._lock:
                    self._resolve(
                        job, "failed", error=f"worker rejected job: {exc}"
                    )
                raise ServiceError(
                    f"worker {chosen} rejected the job: {exc}"
                ) from exc
            with self._lock:
                if job.state in _TERMINAL:
                    # Resolved meanwhile (cancelled, or done on its old
                    # worker): like replay, ignore the late forward.
                    return
                if job.worker is not None and job.worker != chosen:
                    job.reroutes += 1
                    self.counters.cluster_reroutes += 1
                job.worker = chosen
                job.worker_job_id = str(response.get("job_id"))
                remote_state = response.get("state")
                job.state = (
                    str(remote_state)
                    if remote_state in ("queued", "running", "done")
                    else "queued"
                )
                self._append(
                    {
                        "type": "forwarded",
                        "job_id": job.job_id,
                        "worker": chosen,
                        "worker_job_id": job.worker_job_id,
                    }
                )
                self.counters.cluster_placements += 1
                worker = self.registry._workers.get(chosen)
                if worker is not None:
                    worker.in_flight += 1
            if job.state == "done":
                # The worker answered from its own cache: absorb now so
                # the client's very first poll sees a terminal state.
                self.status(job.job_id)
            return

    def _absorb_remote(
        self, job: RouterJob, remote: Dict[str, object]
    ) -> Dict[str, object]:
        """Fold a worker status document into the router's view."""
        state = str(remote.get("state", "queued"))
        if state not in _TERMINAL:
            with self._lock:
                if job.state not in _TERMINAL:
                    job.state = state if state in ("queued", "running") else "queued"
                return job.status()
        if state == "done":
            payload: Optional[Dict[str, object]] = None
            with self._lock:
                url = self._worker_url(job.worker)
                worker_job_id = job.worker_job_id
            if url is not None and worker_job_id is not None:
                try:
                    payload = self._client(url).result(worker_job_id)
                except ServiceClientError:
                    payload = None
            replicate_from: Optional[str] = None
            with self._lock:
                if job.state not in _TERMINAL:
                    if payload is not None:
                        try:
                            self.cache.put(job.spec_hash, payload)
                        except ServiceError:
                            pass  # quarantined-by-shape: keep the job doc
                        else:
                            replicate_from = job.worker
                        job.result_payload = payload
                        job.cached = bool(remote.get("cached", False))
                        if job.worker is not None:
                            worker = self.registry._workers.get(job.worker)
                            if worker is not None:
                                worker.cached_keys.add(job.spec_hash)
                    self._resolve(job, "done", error=None)
                status = job.status()
            if payload is not None and replicate_from is not None:
                self._replicate_result(
                    job.spec_hash, payload, exclude=replicate_from
                )
            return status
        error = remote.get("error")
        with self._lock:
            if job.state not in _TERMINAL:
                self._resolve(
                    job,
                    state,
                    error=error if isinstance(error, str) else None,
                )
            return job.status()

    def _replicate_result(
        self,
        spec_hash: str,
        payload: Dict[str, object],
        exclude: str,
    ) -> int:
        """Write-through-replicate a fresh result to extra ring owners.

        Called outside the lock right after a ``done`` absorb: the
        producing worker (``exclude``) already holds the result, so up
        to ``replicas`` *other* owners named by the hash ring get a copy
        via ``PUT /cache/<hash>``.  Their cache-index entries are
        updated immediately, so the read-through tier can answer from a
        replica the moment the producer dies.  Unreachable replicas are
        skipped — replication is best-effort; the counter records what
        actually landed.
        """
        if self.replicas < 1:
            return 0
        with self._lock:
            workers = self.registry.alive()
            owners = replica_owners(
                spec_hash, workers, self.replicas, exclude=(exclude,)
            )
            targets = [
                (worker.worker_id, worker.url)
                for worker in workers
                if worker.worker_id in owners
            ]
        landed = 0
        for worker_id, url in targets:
            try:
                self._client(url).cache_push(spec_hash, payload)
            except ServiceClientError:
                continue
            landed += 1
            with self._lock:
                self.counters.cache_replications += 1
                peer = self.registry._workers.get(worker_id)
                if peer is not None:
                    peer.cached_keys.add(spec_hash)
        return landed

    def _poll_failed(self, job: RouterJob, exc: ServiceClientError) -> None:
        """A status proxy failed: feed the death ladder or re-place."""
        if exc.status == 404:
            # The worker restarted without its journal and no longer
            # knows the job: re-place it somewhere immediately.
            self._reroute_job(job)
            return
        if exc.status == 0 and job.worker is not None:
            self._probe_failure(job.worker)

    def _probe_failure(self, worker_id: str) -> None:
        with self._lock:
            try:
                state = self.registry.probe_failed(worker_id)
            except ServiceError:
                return
        if state == "dead":
            self.reroute_worker(worker_id)

    def _reroute_job(self, job: RouterJob) -> None:
        """Re-place one job (its previous owner is gone)."""
        with self._lock:
            if job.state in _TERMINAL or job.forwarding:
                return
            job.forwarding = True
            job.state = "queued"
            exclude = (
                {job.worker}
                if self._worker_state(job.worker) == "dead"
                else set()
            )
        try:
            self._forward(job, exclude=exclude)
        except ServiceError:
            pass  # the worker refused: _forward resolved the job failed
        finally:
            with self._lock:
                job.forwarding = False


class RouterServer(HttpServerBase):
    """The asyncio HTTP front end over a :class:`ClusterRouter`.

    The job endpoints are the worker's (``/jobs``, ``/jobs/<id>``,
    ``/jobs/<id>/result``, ``/jobs/<id>/cancel``, served by
    :class:`~repro.service.server.HttpServerBase` over the router), run
    off the event loop because they block on worker HTTP calls — the
    loop keeps accepting heartbeats while a forward is in flight.  On
    top of them:

    =======  ==============================  ==========================
    method   path                            meaning
    =======  ==============================  ==========================
    POST     ``/workers/join``               register a worker
    POST     ``/workers/<id>/heartbeat``     worker liveness + load
    GET      ``/workers``                    membership table
    GET      ``/healthz``                    liveness + counts
    GET      ``/metricsz``                   perf + cache + cluster
    GET      ``/wal?since=<n>``              journal tail (standby feed)
    POST     ``/standby``                    standby self-announcement
    =======  ==============================  ==========================

    With ``standby_of`` set the server starts as a **warm standby**: it
    binds and answers health/metrics, but 503s every job and membership
    endpoint while a tail loop copies the primary's WAL into its own
    journal (and announces itself via ``POST /standby``).  After
    ``epoch_timeout`` seconds of failed polls it takes over — recovers
    from the tailed journal (adopting a higher fencing epoch), starts
    the monitor, and serves everything a primary does.  Workers find it
    through the standby URL their agents learned from the old primary.
    """

    STOPPING = "router shutting down"

    def __init__(
        self,
        router: ClusterRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        standby_of: Optional[str] = None,
        epoch_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(host=host, port=port)
        self.router = router
        self.standby_of = standby_of
        if epoch_timeout is None:
            epoch_timeout = (
                router.registry.heartbeat_interval * router.registry.max_missed
            )
        self.epoch_timeout = float(epoch_timeout)
        self.took_over = False
        self._active = standby_of is None
        self._monitor_task: Optional[asyncio.Task] = None
        self._standby_task: Optional[asyncio.Task] = None
        if standby_of is not None and router.journal is None:
            raise ServiceError(
                "a standby router needs --journal-dir: the tailed WAL is "
                "what it takes over from"
            )

    async def start(self) -> None:
        """Recover the journal, bind, start the monitor loop.

        A standby defers recovery until takeover — it binds immediately
        (so workers can find it) and runs the WAL tail loop instead of
        the monitor.
        """
        if self._active:
            self.recovery_summary = self.router.recover()
        await self._bind()
        if self._active:
            self._monitor_task = asyncio.ensure_future(self._monitor_loop())
        else:
            self._standby_task = asyncio.ensure_future(self._standby_loop())

    async def stop(self, drain: bool = True) -> None:
        """Stop the background loops and the listener; close the journal.

        ``drain`` is accepted for the shared harness; the router has
        nothing to drain — its jobs run on the workers.
        """
        for task_name in ("_monitor_task", "_standby_task"):
            task = getattr(self, task_name)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, task_name, None)
        await self._unbind()
        self.router.close()

    def ready_lines(self) -> List[str]:
        lines = self._recovery_lines("recovered placements from journal")
        if self.standby_of is not None:
            lines.append(f"standing by for {self.standby_of} on {self.url}")
        lines.append(f"routing on {self.url}")
        return lines

    def stopped_line(self) -> str:
        return self._tally("routed", self.router.state_counts())

    async def _monitor_loop(self) -> None:
        interval = min(1.0, self.router.registry.heartbeat_interval)
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            try:
                await loop.run_in_executor(None, self.router.monitor_tick)
            except Exception:  # pragma: no cover - defensive
                pass  # the monitor must outlive any single bad sweep

    # ------------------------------------------------------------------
    # Warm standby
    # ------------------------------------------------------------------
    async def _standby_loop(self) -> None:
        """Tail the primary's WAL; take over when it stops answering.

        Every poll appends the newly-served records verbatim into this
        router's own journal, so the standby's copy is always a valid
        prefix of the primary's history (a torn tail in *this* file is
        self-healing: ``scan`` drops the torn line and the next poll
        re-fetches from the shorter cursor).  ``epoch_timeout`` seconds
        of consecutive failures triggers takeover.
        """
        loop = asyncio.get_running_loop()
        interval = min(1.0, self.router.registry.heartbeat_interval)
        cursor = len(self.router.journal.scan())
        failing_since: Optional[float] = None
        while True:
            try:
                fetched = await loop.run_in_executor(
                    None, self._standby_poll, cursor
                )
            except ServiceClientError:
                now = loop.time()
                if failing_since is None:
                    failing_since = now
                elif now - failing_since >= self.epoch_timeout:
                    await self._take_over()
                    return
            else:
                failing_since = None
                cursor += fetched
            await asyncio.sleep(interval)

    def _standby_poll(self, cursor: int) -> int:
        """One WAL poll + self-announcement; returns records appended."""
        client = ServiceClient(
            self.standby_of,
            timeout=self.router.probe_timeout,
            tolerance=FaultTolerance(task_retries=0),
        )
        doc = client.wal_since(cursor)
        records = doc.get("records", [])
        appended = 0
        if isinstance(records, list):
            for record in records:
                if isinstance(record, dict):
                    self.router.journal.append(record)
                    appended += 1
        try:
            client.register_standby(self.url)
        except ServiceClientError:
            pass  # announcement is best-effort; the tail is the contract
        return appended

    async def _take_over(self) -> None:
        """Promote: recover from the tailed WAL and start serving."""
        loop = asyncio.get_running_loop()
        self.recovery_summary = await loop.run_in_executor(
            None, self.router.recover
        )
        self.took_over = True
        self._active = True
        self._standby_task = None
        self._monitor_task = asyncio.ensure_future(self._monitor_loop())

    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        path, _, query = path.partition("?")
        path = path.rstrip("/") or "/"
        router = self.router
        if path == "/healthz":
            self._require(method, "GET")
            return 200, {
                "status": "ok",
                "role": "router" if self._active else "standby",
                "workers": router.registry.state_counts(),
                "jobs": router.state_counts(),
            }
        if path == "/metricsz":
            self._require(method, "GET")
            return 200, router.metrics()
        if path == "/wal":
            self._require(method, "GET")
            since = 0
            for param in query.split("&"):
                name, sep, value = param.partition("=")
                if name == "since" and sep:
                    try:
                        since = int(value)
                    except ValueError as exc:
                        raise _HttpError(
                            400, f"bad since {value!r}: not an integer"
                        ) from exc
            return 200, await self._call(router.wal_records, since)
        if path == "/standby":
            self._require(method, "POST")
            return 200, await self._call(
                router.register_standby, self._json_body(body)
            )
        if not self._active:
            # Warm standby: health, metrics and the WAL are served; the
            # job and membership surface answers 503 so agents and
            # clients keep retrying until takeover.
            raise _HttpError(
                503,
                f"standing by for {self.standby_of}; not serving yet",
            )
        if path == "/workers":
            if method == "POST":
                raise _HttpError(405, "POST to /workers/join to register")
            self._require(method, "GET")
            return 200, {"workers": router.workers()}
        if path == "/workers/join":
            self._require(method, "POST")
            return 200, router.join(self._json_body(body))
        if path.startswith("/workers/") and path.endswith("/heartbeat"):
            self._require(method, "POST")
            worker_id = path[len("/workers/"): -len("/heartbeat")]
            return 200, await self._call(
                router.heartbeat, worker_id, self._json_body(body)
            )
        return await self._call(self._jobs_route, router, method, path, body)

    async def _call(self, fn, *args):
        """Run a blocking router call off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, fn, *args)


class RouterThread(ServerThread):
    """A :class:`RouterServer` on a daemon thread, for sync callers.

    :class:`~repro.service.server.ServerThread`'s harness with the
    router in place of a worker.
    """

    def __init__(
        self,
        router_kwargs: Optional[Dict[str, object]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        standby_of: Optional[str] = None,
        epoch_timeout: Optional[float] = None,
    ) -> None:
        kwargs = dict(router_kwargs or {})
        self._start(
            lambda: RouterServer(
                ClusterRouter(**kwargs),
                host=host,
                port=port,
                standby_of=standby_of,
                epoch_timeout=epoch_timeout,
            )
        )

    @property
    def router(self) -> ClusterRouter:
        assert self.server is not None
        return self.server.router

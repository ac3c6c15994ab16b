"""Job core of the partitioning service: specs, states, and the queue.

A :class:`JobSpec` is the unit of work the service accepts — a netlist,
a hierarchy and a solver configuration, all expressed as plain JSON
scalars so the spec has a *canonical hash*: two submissions that mean
the same partitioning problem (whatever their JSON key order or pin
order inside nets) hash identically, while any change to a solver knob
(seed, delta, ...) changes the hash.  The metric engine is *how* a spec
is solved, not *what*: the four metric engines are bit-identical, so
they share one hash and only ``multilevel-flow`` (a different algorithm)
hashes apart.  That hash is the service's content address — the cache
key, the dedup key, and the first half of every job id.

:class:`JobManager` is the asyncio execution core behind the HTTP
server: a bounded-concurrency queue of :class:`Job` records, each
walking the state machine

    queued -> running -> done | failed
    queued | running -> cancelled

with per-job timeouts, cooperative cancellation, retry budgets borrowed
from :class:`repro.core.faults.FaultTolerance`, and a graceful shutdown
that drains in-flight jobs.  Failures are *not* a parallel error path:
every timeout, retry and failure lands on the manager's
:class:`~repro.core.perf.PerfCounters` via ``record_degradation``.
"""

from __future__ import annotations

import asyncio
import hashlib
import inspect
import itertools
import json
import math
import shutil
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.core.faults import FaultTolerance
from repro.core.flow_htp import FlowHTPConfig, FlowHTPResult, flow_htp
from repro.core.perf import PerfCounters
from repro.core.spreading_metric import ENGINES, SpreadingMetricConfig
from repro.errors import PartitionError, ServiceError, SolverAborted
from repro.service.journal import Journal, state_record, submitted_record
from repro.htp.hierarchy import HierarchySpec
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioning.multilevel_flow import (
    SOLVER_ENGINES,
    MultilevelFlowConfig,
    multilevel_flow_htp,
)

#: Solver knobs a JobSpec config may carry, with the defaults that are
#: baked into the canonical form.  Explicit defaults make hashing
#: total: omitting a key and stating its default are the same spec.
CONFIG_DEFAULTS: Dict[str, object] = {
    "iterations": 2,
    "constructions_per_metric": 4,
    "find_cut_restarts": 2,
    "find_cut_strategy": "both",
    "net_model": "clique",
    "seed": 0,
    "engine": "scipy",
    "alpha": 1.0,
    "delta": 1.0,
    "epsilon": 1e-3,
    "max_rounds": 64,
    "node_sample": 1.0,
    "coarsest_size": None,
    "corridor_hops": 2,
    "refine_passes": 3,
}

#: Config keys that must be integral JSON numbers (``coarsest_size`` may
#: also be null).  Integral floats such as ``2.0`` canonicalize to ints.
_INT_KEYS = (
    "iterations",
    "constructions_per_metric",
    "find_cut_restarts",
    "seed",
    "max_rounds",
    "coarsest_size",
    "corridor_hops",
    "refine_passes",
)

#: Config keys that must be finite JSON numbers (canonicalized to floats).
_FLOAT_KEYS = ("alpha", "delta", "epsilon", "node_sample")


def _canonical_config(raw_config: Dict[str, object]) -> Dict[str, object]:
    """Type-check a submitted config and fill in the defaults."""
    unknown = sorted(set(raw_config) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ServiceError(
            f"unknown config keys {unknown}; allowed: "
            f"{sorted(CONFIG_DEFAULTS)}"
        )
    config = dict(CONFIG_DEFAULTS)
    config.update(raw_config)
    for key in _INT_KEYS + _FLOAT_KEYS:
        value = config[key]
        if value is None and key == "coarsest_size":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ServiceError(f"config {key!r} must be a number, got {value!r}")
        if key in _FLOAT_KEYS:
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ServiceError(f"config {key!r} must be finite")
        elif isinstance(value, float):
            if not value.is_integer():
                raise ServiceError(
                    f"config {key!r} must be an integer, got {value!r}"
                )
            value = int(value)
        config[key] = value
    if config["engine"] not in SOLVER_ENGINES:
        raise ServiceError(
            f"unknown engine {config['engine']!r} (choose from {SOLVER_ENGINES})"
        )
    return config


@dataclass(frozen=True)
class JobSpec:
    """A fully-described partitioning request (netlist + hierarchy + config).

    Build with :meth:`from_parts` (library objects) or
    :meth:`from_payload` (the JSON wire form); either way the stored
    fields are canonical JSON scalars, so :meth:`canonical_hash` is
    stable across processes, submission order and key order.
    """

    netlist: Dict[str, object]
    hierarchy: Dict[str, object]
    config: Dict[str, object]

    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        netlist: Hypergraph,
        hierarchy: HierarchySpec,
        config: Optional[Dict[str, object]] = None,
    ) -> "JobSpec":
        """Build a spec from library objects plus config overrides."""
        doc = {
            "name": netlist.name,
            "num_nodes": netlist.num_nodes,
            "node_sizes": [float(s) for s in netlist.node_sizes()],
            "nets": [list(pins) for pins in netlist.nets()],
            "net_capacities": [float(c) for c in netlist.net_capacities()],
        }
        spec_doc = {
            "capacities": [float(c) for c in hierarchy.capacities],
            "branching": [int(k) for k in hierarchy.branching],
            "weights": [float(w) for w in hierarchy.weights],
        }
        return cls.from_payload(
            {"netlist": doc, "hierarchy": spec_doc, "config": config or {}}
        )

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "JobSpec":
        """Validate and canonicalize the JSON wire form of a spec."""
        if not isinstance(payload, dict):
            raise ServiceError("job spec payload must be a JSON object")
        for section in ("netlist", "hierarchy"):
            if not isinstance(payload.get(section), dict):
                raise ServiceError(f"job spec needs a {section!r} object")
        raw_config = payload.get("config", {})
        if not isinstance(raw_config, dict):
            raise ServiceError("job spec 'config' must be a JSON object")
        config = _canonical_config(raw_config)

        raw_netlist = payload["netlist"]
        try:
            netlist = Hypergraph(
                num_nodes=raw_netlist["num_nodes"],
                nets=raw_netlist["nets"],
                node_sizes=raw_netlist.get("node_sizes"),
                net_capacities=raw_netlist.get("net_capacities"),
                name=str(raw_netlist.get("name", "")),
            )
        except KeyError as exc:
            raise ServiceError(f"netlist payload missing field {exc}") from exc
        except Exception as exc:
            raise ServiceError(f"bad netlist payload: {exc}") from exc
        raw_hierarchy = payload["hierarchy"]
        try:
            hierarchy = HierarchySpec(
                capacities=tuple(raw_hierarchy["capacities"]),
                branching=tuple(raw_hierarchy["branching"]),
                weights=tuple(raw_hierarchy["weights"]),
            )
        except KeyError as exc:
            raise ServiceError(
                f"hierarchy payload missing field {exc}"
            ) from exc
        except Exception as exc:
            raise ServiceError(f"bad hierarchy payload: {exc}") from exc

        # Canonical form: the *normalized* netlist (pins sorted and
        # deduplicated by the Hypergraph constructor), explicit sizes
        # and capacities, and a fully-defaulted config.
        canonical_netlist = {
            "name": netlist.name,
            "num_nodes": netlist.num_nodes,
            "node_sizes": [float(s) for s in netlist.node_sizes()],
            "nets": [list(pins) for pins in netlist.nets()],
            "net_capacities": [float(c) for c in netlist.net_capacities()],
        }
        canonical_hierarchy = {
            "capacities": list(hierarchy.capacities),
            "branching": list(hierarchy.branching),
            "weights": list(hierarchy.weights),
        }
        spec = cls(
            netlist=canonical_netlist,
            hierarchy=canonical_hierarchy,
            config=config,
        )
        # Build the solver config now so a bad value is a 400 at
        # admission, not a retried failure mid-solve.
        try:
            if config["engine"] == "multilevel-flow":
                spec.build_multilevel_config()
            else:
                spec.build_config()
        except (ValueError, PartitionError) as exc:
            raise ServiceError(f"bad config: {exc}") from exc
        return spec

    # ------------------------------------------------------------------
    def canonical_hash(self) -> str:
        """SHA-256 over the canonical JSON form — the content address.

        The instance name and the metric engine are excluded: a spec is
        *what* to solve, and neither renaming the netlist nor picking
        another bit-identical metric engine changes the answer.  Only
        ``multilevel-flow``, a different algorithm, hashes apart.
        """
        config = dict(self.config)
        if config["engine"] in ENGINES:
            config["engine"] = "flow"
        doc = {
            "netlist": {
                k: v for k, v in self.netlist.items() if k != "name"
            },
            "hierarchy": self.hierarchy,
            "config": config,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_payload(self) -> Dict[str, object]:
        """The JSON wire form (already canonical)."""
        return {
            "netlist": dict(self.netlist),
            "hierarchy": dict(self.hierarchy),
            "config": dict(self.config),
        }

    # ------------------------------------------------------------------
    def build_netlist(self) -> Hypergraph:
        """The spec's netlist as a library object."""
        return Hypergraph(
            num_nodes=self.netlist["num_nodes"],
            nets=self.netlist["nets"],
            node_sizes=self.netlist["node_sizes"],
            net_capacities=self.netlist["net_capacities"],
            name=str(self.netlist.get("name", "")),
        )

    def build_hierarchy(self) -> HierarchySpec:
        """The spec's hierarchy as a library object."""
        return HierarchySpec(
            capacities=tuple(self.hierarchy["capacities"]),
            branching=tuple(self.hierarchy["branching"]),
            weights=tuple(self.hierarchy["weights"]),
        )

    def build_multilevel_config(self) -> MultilevelFlowConfig:
        """The spec's V-cycle configuration (``engine: multilevel-flow``)."""
        config = self.config
        return MultilevelFlowConfig(
            coarsest_size=config["coarsest_size"],
            corridor_hops=config["corridor_hops"],
            refine_passes=config["refine_passes"],
            seed=config["seed"],
        )

    def build_config(self) -> FlowHTPConfig:
        """The spec's solver configuration as a library object."""
        config = self.config
        return FlowHTPConfig(
            iterations=config["iterations"],
            constructions_per_metric=config["constructions_per_metric"],
            find_cut_restarts=config["find_cut_restarts"],
            find_cut_strategy=config["find_cut_strategy"],
            net_model=config["net_model"],
            seed=config["seed"],
            metric=SpreadingMetricConfig(
                alpha=config["alpha"],
                delta=config["delta"],
                epsilon=config["epsilon"],
                max_rounds=config["max_rounds"],
                engine=config["engine"],
                seed=config["seed"],
                node_sample=config["node_sample"],
            ),
        )


@dataclass
class JobContext:
    """Durability hooks the manager threads into the solver runner.

    ``checkpoint_dir`` doubles as the resume source: the runner always
    tries to restore from it, so a job requeued after a crash picks up
    the dead process's newest valid checkpoint automatically.
    ``abort_check`` is the cooperative cancel/deadline poll the solver
    calls at every round boundary.
    """

    checkpoint_dir: Optional[Path] = None
    checkpoint_every: int = 1
    abort_check: Optional[Callable[[], object]] = None


class AdmissionError(ServiceError):
    """A submission refused by admission control (a full queue).

    Carries the ``retry_after`` hint (seconds) the HTTP layer turns into
    a 429 response with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class UnknownJobError(ServiceError):
    """No job under that id (HTTP 404)."""


class ResultNotReady(ServiceError):
    """Result requested before the job is done (HTTP 409 with the job's
    ``state`` and, if it failed, ``job_error``)."""

    def __init__(
        self, message: str, state: str, job_error: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.state = state
        self.job_error = job_error


def run_spec(
    spec: JobSpec, context: Optional[JobContext] = None
) -> FlowHTPResult:
    """Solve a spec synchronously (the default job runner).

    With a :class:`JobContext` the solve is durable: round checkpoints
    land in ``context.checkpoint_dir`` (which is also consulted for a
    resume first) and ``context.abort_check`` is polled every round.

    ``engine: multilevel-flow`` dispatches to the V-cycle
    (:func:`repro.partitioning.multilevel_flow.multilevel_flow_htp`);
    it honours ``abort_check`` but not round checkpoints — a cancelled
    V-cycle job restarts from scratch (the coarse instance is small, so
    there is little to checkpoint).
    """
    if spec.config["engine"] == "multilevel-flow":
        return multilevel_flow_htp(
            spec.build_netlist(),
            spec.build_hierarchy(),
            spec.build_multilevel_config(),
            abort_check=context.abort_check if context else None,
        )
    if context is None:
        return flow_htp(
            spec.build_netlist(), spec.build_hierarchy(), spec.build_config()
        )
    return flow_htp(
        spec.build_netlist(),
        spec.build_hierarchy(),
        spec.build_config(),
        checkpoint_dir=context.checkpoint_dir,
        checkpoint_every=context.checkpoint_every,
        resume_from=context.checkpoint_dir,
        abort_check=context.abort_check,
    )


class JobState(str, Enum):
    """Lifecycle states of a job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: Legal state-machine moves; anything else raises :class:`ServiceError`.
_TRANSITIONS = {
    JobState.QUEUED: {JobState.RUNNING, JobState.CANCELLED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED, JobState.CANCELLED},
    JobState.DONE: set(),
    JobState.FAILED: set(),
    JobState.CANCELLED: set(),
}

#: States a job can never leave.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

#: Queue sentinel telling a worker task to exit its loop at shutdown.
_STOP = object()


@dataclass
class Job:
    """One submission walking the job state machine."""

    job_id: str
    spec_hash: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    cached: bool = False
    error: Optional[str] = None
    result_payload: Optional[Dict[str, object]] = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    cancel_requested: bool = False
    deadline_epoch: Optional[float] = None
    recovered: bool = False

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``, enforcing the legal transitions."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ServiceError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        if new_state in TERMINAL_STATES:
            self.finished_at = time.time()

    def status(self) -> Dict[str, object]:
        """The JSON status document served by ``GET /jobs/<id>``."""
        doc: Dict[str, object] = {
            "job_id": self.job_id,
            "spec_hash": self.spec_hash,
            "state": self.state.value,
            "cached": self.cached,
            "submitted_at": self.submitted_at,
        }
        if self.finished_at is not None:
            doc["finished_at"] = self.finished_at
        if self.deadline_epoch is not None:
            doc["deadline_epoch"] = self.deadline_epoch
        if self.recovered:
            doc["recovered"] = True
        if self.error is not None:
            doc["error"] = self.error
        if self.state == JobState.DONE and self.result_payload is not None:
            doc["cost"] = self.result_payload["result"]["cost"]
        return doc


class JobManager:
    """Asyncio job queue with bounded concurrency and graceful shutdown.

    Parameters
    ----------
    max_concurrency:
        Jobs solved simultaneously (each on its own executor thread).
    cache:
        Optional :class:`repro.service.cache.ResultCache`; hits complete
        submissions instantly in state ``done`` without touching the
        solver.
    job_timeout:
        Default per-job wall-clock budget in seconds (None: take
        ``tolerance.task_deadline``; that too None means no timeout).
    tolerance:
        :class:`~repro.core.faults.FaultTolerance` recovery budgets —
        ``task_retries`` failed-solve resubmissions with
        ``backoff_base``/``backoff_cap`` exponential backoff, and
        ``task_deadline`` as the fallback job timeout.
    runner:
        The blocking solve callable ``spec -> FlowHTPResult`` (tests
        inject slow/failing stand-ins; defaults to :func:`run_spec`).
        Runners that declare a ``context`` keyword additionally receive
        a :class:`JobContext` with the per-job checkpoint directory and
        abort poll; legacy single-argument runners still work.
    counters:
        Shared :class:`PerfCounters`; job failures, retries, timeouts
        and cancellations are recorded here via ``record_degradation``
        (site ``"service"``) and every completed solve's counters are
        merged in.
    journal:
        Optional :class:`~repro.service.journal.Journal`; every
        lifecycle transition is appended *before* the in-memory state
        moves, and :meth:`recover` replays it after a restart.
    checkpoint_root:
        Optional directory; each running job checkpoints under
        ``<root>/<spec_hash>/`` and a requeued job resumes from there.
        Pruned when the job completes.
    checkpoint_every:
        Solver round-checkpoint cadence (see ``flow_htp``).
    max_queue_depth:
        Admission control: submissions beyond this many queued jobs
        raise :class:`AdmissionError` (None: unbounded).
    """

    def __init__(
        self,
        max_concurrency: int = 2,
        cache=None,
        job_timeout: Optional[float] = None,
        tolerance: Optional[FaultTolerance] = None,
        runner: Optional[Callable[..., FlowHTPResult]] = None,
        counters: Optional[PerfCounters] = None,
        journal: Optional[Journal] = None,
        checkpoint_root: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if max_concurrency < 1:
            raise ServiceError("max_concurrency must be at least 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ServiceError("max_queue_depth must be at least 1")
        self.counters = counters if counters is not None else PerfCounters()
        self.cache = cache
        if cache is not None and cache.counters is not self.counters:
            # One instrument for the whole service: fold any traffic the
            # cache counted pre-adoption into the manager's struct, then
            # share it so hits/misses/evictions land beside the solver
            # counters.
            self.counters.merge(cache.counters)
            cache.counters = self.counters
        self.tolerance = tolerance or FaultTolerance()
        if job_timeout is None:
            job_timeout = self.tolerance.task_deadline
        self.job_timeout = job_timeout
        self._runner = runner or run_spec
        try:
            parameters = inspect.signature(self._runner).parameters
            self._runner_takes_context = "context" in parameters or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values()
            )
        except (TypeError, ValueError):
            self._runner_takes_context = False
        self.journal = journal
        if journal is not None and journal.counters is not self.counters:
            self.counters.merge(journal.counters)
            journal.counters = self.counters
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.max_queue_depth = max_queue_depth
        self._queued = 0
        self._durations: Deque[float] = deque(maxlen=16)
        self._max_concurrency = max_concurrency
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "asyncio.Queue[str]" = asyncio.Queue()
        self._workers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._sequence = itertools.count(1)
        self._accepting = True
        self._started = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._in_flight = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def accepting(self) -> bool:
        """Whether :meth:`submit` currently accepts new jobs."""
        return self._accepting

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_concurrency,
            thread_name_prefix="repro-job",
        )
        for index in range(self._max_concurrency):
            self._workers.append(
                asyncio.create_task(self._worker(), name=f"job-worker-{index}")
            )

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the manager.

        With ``drain=True`` (graceful): refuse new submissions, let
        RUNNING jobs finish, and cancel everything still QUEUED.  With
        ``drain=False``: additionally request cancellation of RUNNING
        jobs (their executor threads finish in the background; results
        are discarded).
        """
        self._accepting = False
        for job in self._jobs.values():
            if job.state == JobState.QUEUED:
                self._cancel_queued(job)
            elif job.state == JobState.RUNNING and not drain:
                job.cancel_requested = True
        if drain:
            await self._idle.wait()
        else:
            # Interrupt in-flight solves.  Termination does NOT rely on
            # this cancellation being delivered: on 3.11 ``wait_for``
            # swallows a cancel that races a just-completed executor
            # future, leaving the worker alive in "cancelling" state.
            # The sentinels below end the loop either way.
            for worker in self._workers:
                worker.cancel()
        for _ in self._workers:
            self._queue.put_nowait(_STOP)
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=drain, cancel_futures=True)
            self._executor = None
        if self.journal is not None:
            self.journal.close()
        self._started = False

    # ------------------------------------------------------------------
    # Submission / queries
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, deadline: Optional[float] = None) -> Job:
        """Enqueue a spec; returns the job (may already be ``done``).

        A cache hit never reaches the queue: the job is created directly
        in state ``done`` with the cached payload and ``cached=True``.
        ``deadline`` (seconds from now) bounds the job's wall clock: it
        caps the solve timeout and is polled by the solver at every
        round boundary, so an expiring job exits cleanly with a final
        checkpoint on disk.  With ``max_queue_depth`` set, submissions
        beyond that many queued jobs raise :class:`AdmissionError`.
        """
        if not self._accepting:
            raise ServiceError("service is shutting down; not accepting jobs")
        if (
            self.max_queue_depth is not None
            and self._queued >= self.max_queue_depth
        ):
            self.counters.admission_rejections += 1
            retry_after = self.retry_after()
            self.counters.record_degradation(
                "job-rejected",
                f"queue depth {self._queued} at limit {self.max_queue_depth}",
                site="service",
            )
            raise AdmissionError(
                f"queue is full ({self._queued} jobs queued, limit "
                f"{self.max_queue_depth}); retry in {retry_after:g}s",
                retry_after=retry_after,
            )
        spec_hash = spec.canonical_hash()
        job_id = f"{spec_hash[:12]}-{next(self._sequence):04d}"
        job = Job(job_id=job_id, spec_hash=spec_hash, spec=spec)
        if deadline is not None:
            job.deadline_epoch = time.time() + float(deadline)
        self._jobs[job_id] = job
        self._order.append(job_id)
        self._journal_append(
            submitted_record(
                job_id,
                spec_hash,
                spec.to_payload(),
                job.submitted_at,
                job.deadline_epoch,
            )
        )
        cached = self.cache.get(spec_hash) if self.cache is not None else None
        if cached is not None:
            job.cached = True
            job.result_payload = cached
            job.transition(JobState.RUNNING)
            job.transition(JobState.DONE)
            self._journal_state(job)
            return job
        self._enqueue(job)
        return job

    def get(self, job_id: str) -> Job:
        """The job record, or :class:`UnknownJobError`."""
        try:
            return self._jobs[job_id]
        except KeyError as exc:
            raise UnknownJobError(f"unknown job id {job_id!r}") from exc

    def jobs(self) -> List[Job]:
        """All jobs in submission order."""
        return [self._jobs[job_id] for job_id in self._order]

    def status(self, job_id: str) -> Dict[str, object]:
        """The job's status document."""
        return self.get(job_id).status()

    def result(self, job_id: str) -> Dict[str, object]:
        """The result payload; :class:`ResultNotReady` until ``done``."""
        job = self.get(job_id)
        if job.state != JobState.DONE:
            raise ResultNotReady(
                f"job {job.job_id} is {job.state.value}, not done",
                state=job.state.value,
                job_error=job.error,
            )
        return dict(job.result_payload or {})

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; no-op for jobs already in a terminal state.

        QUEUED jobs are cancelled immediately; RUNNING jobs get
        ``cancel_requested`` set and report ``cancelled`` once their
        solve returns (the result is discarded, not cached).
        """
        job = self.get(job_id)
        if job.state == JobState.QUEUED:
            self._cancel_queued(job)
        elif job.state == JobState.RUNNING:
            job.cancel_requested = True
        return job

    def state_counts(self) -> Dict[str, int]:
        """Jobs per state (the ``healthz`` summary)."""
        counts = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            counts[job.state.value] += 1
        return counts

    def queue_depth(self) -> int:
        """Jobs accepted but not yet running (the admission gauge)."""
        return self._queued

    @property
    def in_flight(self) -> int:
        """Jobs accepted and not yet settled (queued + running) — the
        load figure a cluster worker reports on its heartbeats."""
        return self._in_flight

    @property
    def max_concurrency(self) -> int:
        """The worker-pool width announced to a cluster router."""
        return self._max_concurrency

    def retry_after(self) -> float:
        """Seconds a rejected client should wait before resubmitting.

        Estimated from recent solve durations and the queue backlog;
        clamped to [1, 60] so the hint is always actionable.
        """
        if self._durations:
            avg = sum(self._durations) / len(self._durations)
        else:
            avg = 1.0
        estimate = avg * (self._queued / max(1, self._max_concurrency) + 1.0)
        return float(min(60.0, max(1.0, math.ceil(estimate))))

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> Dict[str, int]:
        """Rebuild job state from the journal after a restart.

        The contract, per journal-derived state:

        * ``done`` — re-served from the content-addressed cache without
          re-running; if the cached result is gone (or corrupt and
          quarantined), the job is requeued instead.
        * ``queued`` — requeued in original submission order.
        * ``running`` — requeued; the runner resumes from the dead
          process's newest valid checkpoint under ``checkpoint_root``.
        * ``failed`` / ``cancelled`` — restored terminal, for status.

        Jobs whose deadline expired during the outage fail immediately
        rather than burning solver time.  Returns summary counts and
        journals every recovery-time decision, so a second crash replays
        to the same place.
        """
        summary = {
            "recovered": 0,
            "done_from_cache": 0,
            "requeued": 0,
            "terminal": 0,
            "expired": 0,
            "skipped": 0,
        }
        if self.journal is None:
            return summary
        state = self.journal.recover()
        now = time.time()
        max_sequence = 0
        for recovered in state.in_order():
            try:
                spec = JobSpec.from_payload(dict(recovered.spec_payload))
            except ServiceError as exc:
                summary["skipped"] += 1
                self.counters.record_degradation(
                    "recover-skip", exc, site="service"
                )
                continue
            job = Job(
                job_id=recovered.job_id,
                spec_hash=recovered.spec_hash,
                spec=spec,
                submitted_at=(
                    recovered.submitted_at
                    if recovered.submitted_at is not None
                    else now
                ),
                deadline_epoch=recovered.deadline_epoch,
                recovered=True,
            )
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            summary["recovered"] += 1
            suffix = recovered.job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                max_sequence = max(max_sequence, int(suffix))
            if recovered.state == "done":
                cached = (
                    self.cache.get(recovered.spec_hash)
                    if self.cache is not None
                    else None
                )
                if cached is not None:
                    job.cached = True
                    job.result_payload = cached
                    job.state = JobState.DONE
                    job.finished_at = now
                    summary["done_from_cache"] += 1
                    # Fold the job's recorded solver counters back into
                    # the manager's struct: ``/metricsz`` after a
                    # restart must account for work the dead process
                    # did, exactly as if the job had completed here.
                    result = cached.get("result")
                    if isinstance(result, dict) and isinstance(
                        result.get("perf"), dict
                    ):
                        self.counters.merge(
                            PerfCounters.from_dict(result["perf"])
                        )
                    continue
                # The journal promised a result the cache no longer
                # holds (lost or quarantined blob): solve it again.
                self._journal_append(
                    {"type": "requeued", "job_id": job.job_id, "ts": now}
                )
                self._enqueue(job)
                summary["requeued"] += 1
                continue
            if recovered.state in ("failed", "cancelled"):
                job.state = JobState(recovered.state)
                job.error = recovered.error
                job.finished_at = now
                summary["terminal"] += 1
                continue
            # queued or running: the work is still owed.
            if job.deadline_epoch is not None and job.deadline_epoch <= now:
                job.state = JobState.FAILED
                job.error = "deadline expired while the service was down"
                job.finished_at = now
                self._journal_state(job)
                self.counters.record_degradation(
                    "job-timeout", job.error, site="service"
                )
                summary["expired"] += 1
                continue
            if recovered.state == "running":
                self._journal_append(
                    {"type": "requeued", "job_id": job.job_id, "ts": now}
                )
            self._enqueue(job)
            summary["requeued"] += 1
        if max_sequence:
            self._sequence = itertools.count(max_sequence + 1)
        return summary

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enqueue(self, job: Job) -> None:
        self._idle.clear()
        self._in_flight += 1
        self._queued += 1
        self._queue.put_nowait(job.job_id)

    def _journal_append(self, record: Dict[str, object]) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _journal_state(self, job: Job) -> None:
        """Append ``job``'s current state as a lifecycle record."""
        self._journal_append(
            state_record(job.job_id, job.state.value, job.error, job.cached)
        )

    def _job_context(self, job: Job) -> JobContext:
        checkpoint_dir = None
        if self.checkpoint_root is not None:
            checkpoint_dir = self.checkpoint_root / job.spec_hash

        def abort_check() -> object:
            if job.cancel_requested:
                return "cancel requested"
            if (
                job.deadline_epoch is not None
                and time.time() >= job.deadline_epoch
            ):
                return "deadline exceeded"
            return False

        return JobContext(
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            abort_check=abort_check,
        )

    def _call_runner(self, job: Job) -> FlowHTPResult:
        if self._runner_takes_context:
            return self._runner(job.spec, context=self._job_context(job))
        return self._runner(job.spec)

    def _prune_checkpoints(self, job: Job) -> None:
        if self.checkpoint_root is not None:
            shutil.rmtree(
                self.checkpoint_root / job.spec_hash, ignore_errors=True
            )

    def _cancel_queued(self, job: Job) -> None:
        job.cancel_requested = True
        job.transition(JobState.CANCELLED)
        self._journal_state(job)
        self.counters.record_degradation(
            "job-cancelled", "cancelled while queued", site="service"
        )
        self._queued -= 1
        self._job_settled()

    def _job_settled(self) -> None:
        self._in_flight -= 1
        if self._in_flight == 0:
            self._idle.set()

    async def _worker(self) -> None:
        while True:
            job_id = await self._queue.get()
            if job_id is _STOP:
                return
            job = self._jobs[job_id]
            try:
                if job.state == JobState.CANCELLED:
                    continue  # cancelled while queued; already settled
                self._queued -= 1
                job.transition(JobState.RUNNING)
                self._journal_state(job)
                try:
                    await self._run_job(job)
                except asyncio.CancelledError:
                    # Hard shutdown (drain=False) killed the worker task
                    # mid-solve: report the job cancelled, not stuck.
                    if job.state == JobState.RUNNING:
                        job.error = "worker cancelled at shutdown"
                        job.transition(JobState.CANCELLED)
                        self._journal_state(job)
                        self.counters.record_degradation(
                            "job-cancelled", job.error, site="service"
                        )
                    raise
                finally:
                    self._job_settled()
            finally:
                self._queue.task_done()

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        retries = self.tolerance.task_retries
        attempt = 0
        started = time.monotonic()
        timeout = self.job_timeout
        if job.deadline_epoch is not None:
            remaining = job.deadline_epoch - time.time()
            if remaining <= 0:
                job.error = "deadline expired before the solve started"
                job.transition(JobState.FAILED)
                self._journal_state(job)
                self.counters.record_degradation(
                    "job-timeout", job.error, site="service"
                )
                return
            timeout = remaining if timeout is None else min(timeout, remaining)
        while True:
            attempt += 1
            try:
                future = loop.run_in_executor(
                    self._executor, self._call_runner, job
                )
                if timeout is not None:
                    result = await asyncio.wait_for(future, timeout)
                else:
                    result = await future
            except asyncio.TimeoutError:
                job.error = f"timed out after {timeout:g}s"
                job.transition(JobState.FAILED)
                self._journal_state(job)
                self.counters.record_degradation(
                    "job-timeout", job.error, site="service"
                )
                return
            except SolverAborted as exc:
                # The solver exited cooperatively (cancel or deadline),
                # leaving a final checkpoint on disk — never retried.
                job.error = str(exc)
                if job.cancel_requested:
                    job.transition(JobState.CANCELLED)
                    self._journal_state(job)
                    self.counters.record_degradation(
                        "job-cancelled", exc, site="service"
                    )
                else:
                    job.transition(JobState.FAILED)
                    self._journal_state(job)
                    self.counters.record_degradation(
                        "job-timeout", exc, site="service"
                    )
                return
            except Exception as exc:
                if job.cancel_requested:
                    job.error = repr(exc)
                    job.transition(JobState.CANCELLED)
                    self._journal_state(job)
                    self.counters.record_degradation(
                        "job-cancelled", exc, site="service"
                    )
                    return
                if attempt <= retries:
                    self.counters.job_retries += 1
                    self.counters.record_degradation(
                        "job-retry", exc, site="service"
                    )
                    await asyncio.sleep(self.tolerance.backoff(attempt))
                    continue
                job.error = repr(exc)
                job.transition(JobState.FAILED)
                self._journal_state(job)
                self.counters.record_degradation(
                    "job-failed", exc, site="service"
                )
                return
            break

        if job.cancel_requested:
            job.transition(JobState.CANCELLED)
            self._journal_state(job)
            self.counters.record_degradation(
                "job-cancelled",
                "cancelled while running; result discarded",
                site="service",
            )
            return
        payload = {
            "spec_hash": job.spec_hash,
            "result": result.to_dict(),
        }
        if result.perf is not None:
            self.counters.merge(result.perf)
        if self.cache is not None:
            self.cache.put(job.spec_hash, payload)
        job.result_payload = payload
        self._durations.append(time.monotonic() - started)
        # The WAL claims "done" only once the result is safely in the
        # cache's durable tier — recovery re-serves it from there.
        job.transition(JobState.DONE)
        self._journal_state(job)
        self._prune_checkpoints(job)

"""Performance counters threaded through the FLOW hot paths.

The ROADMAP's north star is "as fast as the hardware allows"; you cannot
optimise what you cannot see.  :class:`PerfCounters` is a plain mutable
struct that the spreading-metric engine (Algorithm 2), the constraint
oracle and ``find_cut`` (Algorithm 3) increment as they work.  It is
deliberately dependency-free so every layer — ``core``, ``analysis``,
the CLI and the benchmarks — can share it without import cycles.

Counter semantics
-----------------
``dijkstra_calls``
    Number of ``scipy.sparse.csgraph.dijkstra`` invocations (one batched
    call over ``k`` sources counts once).
``dijkstra_sources``
    Total single-source shortest-path problems solved (a batched call
    over ``k`` sources adds ``k``).
``nodes_settled``
    Nodes settled across all Dijkstra runs (finite-distance entries;
    distance-limited runs settle fewer — the whole point).
``edges_repriced``
    Edge lengths rewritten in place after flow injections.
``batch_checks`` / ``batch_sources``
    Batched oracle sub-rounds issued and the sources they covered.
``recheck_sources``
    Sources re-examined with a fresh single-source run because an
    injection dirtied an edge on their snapshot shortest-path tree.
``retired_free``
    Sources retired straight from a batch snapshot — no second Dijkstra.
``injections``
    Flow-injection steps (Algorithm 2 line "inject Delta").
``cut_evals``
    Candidate regions whose hypergraph cut was evaluated in ``find_cut``
    (Prim prefixes plus MST subtree heads).
``native_fallbacks``
    ``engine='native'`` requests served by the scipy kernel because the
    compiled extension was unavailable (not built, or disabled via
    ``REPRO_DISABLE_NATIVE``); each adds a degradation record.
``job_retries``
    Failed job solves the service resubmitted after a backoff sleep
    (``FaultTolerance.task_retries`` per job).
``cache_hits`` / ``cache_misses`` / ``cache_evictions``
    Content-addressed result-cache traffic (``repro.service.cache``):
    lookups served from the cache (memory or disk), lookups that fell
    through to a fresh solve, and LRU entries displaced by inserts.  A
    warm service request shows ``cache_hits`` advancing while the
    solver counters (``dijkstra_calls``, ``injections``) stand still.
``cache_corrupt``
    Disk blobs rejected as truncated/unparseable/CRC-failing; each one
    was quarantined (renamed ``*.corrupt``) and served as a miss.
``checkpoints_written``
    Crash-safe solver checkpoints persisted (``repro.core.checkpoint``).
``checkpoints_discarded``
    Checkpoint files skipped at load time — torn writes, CRC failures,
    or fingerprints from a different run.  Skipping is silent recovery:
    the newest *valid* checkpoint wins.
``checkpoint_resumes``
    Runs that restored state from a checkpoint instead of starting cold.
``journal_records`` / ``journal_replayed`` / ``journal_torn_records``
    Write-ahead job-journal traffic (``repro.service.journal``): records
    appended, records replayed during recovery, and torn/corrupt lines
    discarded by a scan.
``admission_rejections``
    Submissions refused by admission control (bounded queue depth); the
    HTTP layer surfaces these as 429 + ``Retry-After``.
``cluster_placements``
    Jobs the cluster router forwarded to a worker (each acknowledged
    submission counts once, including the re-forward after a reroute).
``cluster_reroutes``
    Jobs moved to a new worker after their previous owner died or
    refused the forward — the reroute rung of the router's ladder.
``cluster_remote_hits``
    Router cache misses answered by another worker's durable cache via
    the ``GET /cache/<hash>`` read-through tier (no solve ran anywhere).
``ckpt_replications``
    Checkpoint frames a worker pushed to a peer replica over
    ``PUT /ckpt/<job>/<seq>`` (one frame accepted by one peer counts
    once; refused or torn frames do not).
``ckpt_replica_fetches``
    Checkpoint frames a worker installed from a peer replica before
    starting a forwarded job — the shared-nothing failover path that
    replaces the old shared ``--checkpoint-dir`` assumption.
``cache_replications``
    Result payloads the router write-through-replicated to additional
    ring owners over ``PUT /cache/<hash>`` so a cached result survives
    its producer's death.
``router_epoch_bumps``
    Fencing-epoch increments: one per standby takeover (and one when a
    recovering router fences out its own previous incarnation).
``netfaults_injected``
    Network faults a ``repro.testing.netfaults`` proxy actually applied
    to live traffic (delayed/dropped/half-closed/partitioned/reordered
    events, not merely scheduled ones).
``degradations``
    A bounded log of recovery transitions, each a dict with the
    ``action`` taken (``native-scipy`` / ``job-retry`` /
    ``checkpoint-discard`` / ...), the ``site`` and the repr of the
    original ``cause`` exception — a fallback never swallows what
    actually went wrong.
``phase_seconds``
    Wall-clock seconds per named phase (``metric``, ``construct``,
    ``kernel_seconds``, ...), accumulated across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: Cap on the retained degradation records; a pathological run cannot
#: grow the perf struct without bound.
MAX_DEGRADATION_RECORDS = 100

#: The scalar (integer) counters, in presentation order.  ``merge``,
#: ``as_dict`` and ``from_dict`` all iterate this one tuple so a new
#: counter only has to be declared once (plus its dataclass field).
INT_COUNTERS = (
    "dijkstra_calls",
    "dijkstra_sources",
    "nodes_settled",
    "edges_repriced",
    "batch_checks",
    "batch_sources",
    "recheck_sources",
    "retired_free",
    "injections",
    "cut_evals",
    "native_fallbacks",
    "job_retries",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_corrupt",
    "checkpoints_written",
    "checkpoints_discarded",
    "checkpoint_resumes",
    "journal_records",
    "journal_replayed",
    "journal_torn_records",
    "admission_rejections",
    "cluster_placements",
    "cluster_reroutes",
    "cluster_remote_hits",
    "ckpt_replications",
    "ckpt_replica_fetches",
    "cache_replications",
    "router_epoch_bumps",
    "netfaults_injected",
)


@dataclass
class PerfCounters:
    """Mutable instrumentation shared by the FLOW hot paths.

    A plain counter struct threaded through Algorithm 2 (the spreading
    metric), the constraint oracle, ``find_cut`` and the job service.
    See the module docstring for the meaning of each counter.
    """

    dijkstra_calls: int = 0
    dijkstra_sources: int = 0
    nodes_settled: int = 0
    edges_repriced: int = 0
    batch_checks: int = 0
    batch_sources: int = 0
    recheck_sources: int = 0
    retired_free: int = 0
    injections: int = 0
    cut_evals: int = 0
    native_fallbacks: int = 0
    job_retries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_corrupt: int = 0
    checkpoints_written: int = 0
    checkpoints_discarded: int = 0
    checkpoint_resumes: int = 0
    journal_records: int = 0
    journal_replayed: int = 0
    journal_torn_records: int = 0
    admission_rejections: int = 0
    cluster_placements: int = 0
    cluster_reroutes: int = 0
    cluster_remote_hits: int = 0
    ckpt_replications: int = 0
    ckpt_replica_fetches: int = 0
    cache_replications: int = 0
    router_epoch_bumps: int = 0
    netfaults_injected: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    degradations: List[Dict[str, str]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock ``seconds`` under phase ``name``."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def record_degradation(
        self, action: str, cause: object, site: str
    ) -> None:
        """Log one recovery transition, preserving its cause.

        ``cause`` is kept as ``repr`` so the record stays picklable and
        JSON-ready whatever exception type was raised.  The log
        is capped at :data:`MAX_DEGRADATION_RECORDS` entries.
        """
        if len(self.degradations) < MAX_DEGRADATION_RECORDS:
            self.degradations.append(
                {"action": action, "site": site, "cause": repr(cause)}
            )

    def merge(self, other: "PerfCounters") -> None:
        """Fold ``other``'s counts into this struct (for aggregation)."""
        for name in INT_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for record in other.degradations:
            if len(self.degradations) >= MAX_DEGRADATION_RECORDS:
                break
            self.degradations.append(dict(record))
        for name, seconds in other.phase_seconds.items():
            self.add_phase(name, seconds)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (used by the benchmark emitter and the CLI)."""
        doc: Dict[str, object] = {
            name: getattr(self, name) for name in INT_COUNTERS
        }
        doc["phase_seconds"] = dict(self.phase_seconds)
        doc["degradations"] = [dict(r) for r in self.degradations]
        return doc

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PerfCounters":
        """Rebuild a struct written by :meth:`as_dict` (JSON round trip).

        Unknown keys are ignored and missing keys default to zero/empty,
        so payloads written by older versions of the struct still load.
        """
        counters = cls()
        for name in INT_COUNTERS:
            setattr(counters, name, int(payload.get(name, 0)))
        counters.phase_seconds = {
            str(name): float(seconds)
            for name, seconds in dict(payload.get("phase_seconds", {})).items()
        }
        counters.degradations = [
            {str(k): str(v) for k, v in dict(record).items()}
            for record in list(payload.get("degradations", []))[
                :MAX_DEGRADATION_RECORDS
            ]
        ]
        return counters

    def summary(self) -> str:
        """One-line human summary (printed by ``htp partition --perf``)."""
        phases = " ".join(
            f"{name}={seconds:.2f}s"
            for name, seconds in sorted(self.phase_seconds.items())
        )
        recovery = ""
        if self.job_retries:
            recovery = f" | recovery {self.job_retries} job retries"
        cache = ""
        if self.cache_hits or self.cache_misses or self.cache_evictions:
            cache = (
                f" | cache {self.cache_hits} hits / "
                f"{self.cache_misses} misses / "
                f"{self.cache_evictions} evictions"
            )
        durability = ""
        if (
            self.checkpoints_written
            or self.checkpoint_resumes
            or self.journal_records
            or self.admission_rejections
        ):
            durability = (
                f" | durability {self.checkpoints_written} ckpts / "
                f"{self.checkpoint_resumes} resumes / "
                f"{self.journal_records} journal / "
                f"{self.admission_rejections} rejected"
            )
        return (
            f"dijkstra {self.dijkstra_calls} calls / "
            f"{self.dijkstra_sources} sources / "
            f"{self.nodes_settled} settled | "
            f"batch {self.batch_checks} checks / "
            f"{self.retired_free} retired free / "
            f"{self.recheck_sources} rechecks | "
            f"{self.injections} injections / "
            f"{self.edges_repriced} edges repriced | "
            f"{self.cut_evals} cut evals{recovery}{cache}"
            f"{durability} | {phases}"
        )

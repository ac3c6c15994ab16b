"""Algorithm 1: the FLOW constructive algorithm for HTP.

Repeat ``iterations`` times: compute a spreading metric (Algorithm 2),
construct one or more partitions from it (Algorithm 3), keep the best.
``constructions_per_metric > 1`` implements the extension suggested in the
paper's conclusions, which expects extra constructions per metric to be
nearly free because the metric dominates the runtime.  That holds at
small ``delta``: with ``delta=0.03`` and ``max_rounds=1000`` the metric
takes 70-79% of a solve (``benchmarks/results/scaling.txt``).  At the
defaults it does not: a traced c2670 solve spends 71% in
``construct_partition`` and 20% in the metric, so each extra
construction adds real time.

Every iteration is a pure function of a pair of pre-drawn seeds
``(metric_seed, construction_seeds)``, drawn from the master RNG in
iteration order, so a resumed run can restart at any iteration boundary
and reproduce the uninterrupted run exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.checkpoint import (
    FlowCheckpointer,
    MetricCheckpoint,
    decode_outcome,
    load_flow_resume,
    run_fingerprint,
)
from repro.core.construct import construct_partition
from repro.core.perf import PerfCounters
from repro.core.spreading_metric import (
    MetricSummary,
    SpreadingMetricConfig,
    compute_spreading_metric,
)
from repro.errors import CheckpointError, PartitionError, SolverAborted
from repro.htp.cost import total_cost
from repro.htp.hierarchy import HierarchySpec
from repro.htp.partition import PartitionTree
from repro.hypergraph.expansion import to_graph
from repro.hypergraph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph


@dataclass
class FlowHTPConfig:
    """Configuration of the FLOW driver (Algorithm 1).

    Attributes
    ----------
    iterations:
        ``N`` of Algorithm 1 — metric/construction rounds.
    constructions_per_metric:
        Partitions constructed per metric (the conclusions' extension; 1
        reproduces the paper's Algorithm 1 exactly).  Nearly free only
        at small ``delta``, where the metric takes 70-79% of a solve;
        at the defaults construction takes 71% of a c2670 solve against
        the metric's 20%, so each extra construction adds real time.
    find_cut_restarts:
        Random seeds tried inside each ``find_cut`` call.
    find_cut_strategy:
        ``'prim'`` (Algorithm 3 verbatim), ``'mst'`` (the conclusions'
        Karger-style MST-subtree refinement) or ``'both'`` (default).
    net_model:
        ``'clique'`` or ``'cycle'`` — how the netlist becomes a graph.
    metric:
        Algorithm 2 configuration.
    seed:
        Master seed; per-iteration randomness derives from it.
    exact_refine:
        When True, run :func:`repro.analysis.exact.tree_dp_refine` on
        the best partition before returning — exact on tree-structured
        instances, a max-spanning-forest surrogate otherwise; adopted
        only if feasible and strictly cheaper.  Pure end-of-run
        post-processing on small instances (it gives up silently past
        its node budget), so it deliberately does not enter the resume
        fingerprint.
    """

    iterations: int = 2
    constructions_per_metric: int = 4
    find_cut_restarts: int = 2
    find_cut_strategy: str = "both"
    net_model: str = "clique"
    metric: SpreadingMetricConfig = field(default_factory=SpreadingMetricConfig)
    seed: int = 0
    exact_refine: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.constructions_per_metric < 1:
            raise ValueError("constructions_per_metric must be at least 1")
        if self.find_cut_strategy not in ("prim", "mst", "both"):
            raise ValueError(
                "find_cut_strategy must be 'prim', 'mst' or 'both', got "
                f"{self.find_cut_strategy!r}"
            )
        if self.net_model not in ("clique", "cycle"):
            raise ValueError(
                f"net_model must be 'clique' or 'cycle', got {self.net_model!r}"
            )


@dataclass
class FlowHTPResult:
    """Best partition found plus per-iteration diagnostics.

    ``iteration_costs`` holds the best construction cost of each metric
    iteration; ``metric_objectives`` the LP objective ``sum c(e) d(e)`` of
    each metric (an *upper* proxy for solution quality, not a bound);
    ``metric_results`` one :class:`MetricSummary` per metric;
    ``runtime_seconds`` the wall-clock cost of the whole run; ``perf``
    aggregates the solver's :class:`PerfCounters` (Dijkstra calls, dirty
    edges repriced, cut evaluations, per-phase wall time) across all
    iterations.
    """

    partition: PartitionTree
    cost: float
    iteration_costs: List[float]
    metric_objectives: List[float]
    metric_results: List[MetricSummary]
    runtime_seconds: float
    perf: Optional[PerfCounters] = None

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready document; inverse of :meth:`from_dict`.

        Carries the partition, every per-iteration diagnostic, one
        :class:`MetricSummary` entry per metric and the aggregated perf
        counters — the document the service serves, caches and replicates.
        """
        return {
            "partition": self.partition.to_dict(),
            "cost": self.cost,
            "iteration_costs": list(self.iteration_costs),
            "metric_objectives": list(self.metric_objectives),
            "metric_results": [
                metric.to_dict() for metric in self.metric_results
            ],
            "runtime_seconds": self.runtime_seconds,
            "perf": self.perf.as_dict() if self.perf is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FlowHTPResult":
        """Rebuild a result written by :meth:`to_dict` (JSON round trip)."""
        try:
            partition = PartitionTree.from_dict(payload["partition"])
            metrics = [
                MetricSummary.from_dict(entry)
                for entry in payload["metric_results"]
            ]
            perf_payload = payload.get("perf")
            return cls(
                partition=partition,
                cost=float(payload["cost"]),
                iteration_costs=[float(c) for c in payload["iteration_costs"]],
                metric_objectives=[
                    float(o) for o in payload["metric_objectives"]
                ],
                metric_results=metrics,
                runtime_seconds=float(payload["runtime_seconds"]),
                perf=(
                    PerfCounters.from_dict(perf_payload)
                    if perf_payload is not None
                    else None
                ),
            )
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise PartitionError(
                f"malformed FlowHTPResult payload: {exc!r}"
            ) from exc


def _run_flow_iteration(
    hypergraph: Hypergraph,
    graph: Graph,
    spec: HierarchySpec,
    config: FlowHTPConfig,
    metric_seed: int,
    construction_seeds: List[int],
    on_round=None,
    metric_resume: Optional[MetricCheckpoint] = None,
    abort_check=None,
) -> Tuple[float, PartitionTree, MetricSummary, PerfCounters]:
    """One FLOW iteration: a metric, then one partition per construction seed.

    Returns ``(iteration_best_cost, best_partition, metric_summary,
    counters)``; the caller merges counters and picks the global best.
    """
    counters = PerfCounters()
    metric_config = SpreadingMetricConfig(
        alpha=config.metric.alpha,
        delta=config.metric.delta,
        epsilon=config.metric.epsilon,
        max_rounds=config.metric.max_rounds,
        engine=config.metric.engine,
        seed=metric_seed,
        node_sample=config.metric.node_sample,
    )
    phase_start = time.perf_counter()
    metric = compute_spreading_metric(
        graph,
        spec,
        metric_config,
        rng=random.Random(metric_seed),
        counters=counters,
        on_round=on_round,
        resume=metric_resume,
        abort_check=abort_check,
    )
    counters.add_phase("metric", time.perf_counter() - phase_start)

    iteration_best = float("inf")
    iteration_partition: Optional[PartitionTree] = None
    phase_start = time.perf_counter()
    for construct_seed in construction_seeds:
        if abort_check is not None:
            reason = abort_check()
            if reason:
                # The metric's final checkpoint is already on disk; the
                # (cheap, deterministic) constructions rerun on resume.
                raise SolverAborted(str(reason))
        partition = construct_partition(
            hypergraph,
            graph,
            spec,
            metric.lengths,
            rng=random.Random(construct_seed),
            find_cut_restarts=config.find_cut_restarts,
            strategy=config.find_cut_strategy,
            counters=counters,
        )
        cost = total_cost(hypergraph, partition, spec)
        if cost < iteration_best:
            iteration_best = cost
            iteration_partition = partition
    counters.add_phase("construct", time.perf_counter() - phase_start)
    if iteration_partition is None:  # pragma: no cover - config guard
        raise PartitionError("FLOW iteration produced no partition")
    return iteration_best, iteration_partition, metric.summary(), counters


def flow_htp(
    hypergraph: Hypergraph,
    spec: HierarchySpec,
    config: Optional[FlowHTPConfig] = None,
    graph: Optional[Graph] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 1,
    resume_from: Optional[Union[str, Path]] = None,
    abort_check: Optional[Callable[[], object]] = None,
) -> FlowHTPResult:
    """Run the FLOW algorithm on a netlist under a hierarchy spec.

    Parameters
    ----------
    hypergraph : Hypergraph
        The netlist to partition.
    spec : HierarchySpec
        Per-level size and branching bounds.
    config : FlowHTPConfig, optional
        Driver configuration; defaults to :class:`FlowHTPConfig`.
    graph : Graph, optional
        A pre-built net-model expansion to reuse (must share node ids
        with the netlist).  Supplying it lets callers evaluating many
        configurations amortise the expansion and its CSR cache.
    checkpoint_dir : str or Path, optional
        Enable crash-safe durability: atomic, CRC-stamped snapshots of
        the round state land here (see :mod:`repro.core.checkpoint`).
    checkpoint_every : int, optional
        Snapshot cadence in metric rounds (1 = every round); iteration
        boundaries and final/abort states are always written.
    resume_from : str or Path, optional
        Directory to restore from.  The newest valid checkpoint whose
        fingerprint matches this exact run (netlist + hierarchy +
        config) is adopted; anything torn, CRC-failing or stale is
        counted on ``checkpoints_discarded`` and skipped — a directory
        with nothing usable simply starts cold.  Passing the same
        directory as both ``checkpoint_dir`` and ``resume_from`` is the
        idiomatic "continue if possible" spelling.
    abort_check : callable, optional
        Cooperative abort polled at every metric round boundary (and
        between constructions): a truthy return value aborts the run
        with :class:`~repro.errors.SolverAborted` after writing a final
        checkpoint, so the next run resumes instead of restarting.

    Returns
    -------
    FlowHTPResult
        Best partition, its cost, per-iteration diagnostics and merged
        :class:`PerfCounters`.

    Notes
    -----
    **Engine equivalence guarantee.**  For a fixed ``config.seed`` the
    returned partition and every diagnostic list are bit-identical
    across every ``metric.engine``: the engines differ only in how a
    violation check is computed, never in its verdict.

    **Resume identity guarantee.**  A run killed at any point and
    resumed via ``resume_from`` returns the same partition, cost and
    per-iteration diagnostics (metric summaries included) as an
    uninterrupted run; only wall-clock and perf counters differ.
    """
    config = config or FlowHTPConfig()
    start = time.perf_counter()
    counters = PerfCounters()
    rng = random.Random(config.seed)
    if graph is None:
        graph = to_graph(
            hypergraph, model=config.net_model, rng=random.Random(config.seed)
        )

    durable = checkpoint_dir is not None or resume_from is not None
    checkpointer: Optional[FlowCheckpointer] = None
    completed_outcomes: List[
        Tuple[float, PartitionTree, MetricSummary, PerfCounters]
    ] = []
    start_iteration = 0
    metric_resume: Optional[MetricCheckpoint] = None
    if durable:
        fingerprint = run_fingerprint(hypergraph, spec, config)
        resume_payload = None
        if resume_from is not None:
            resume_payload = load_flow_resume(
                resume_from, fingerprint, counters=counters
            )
        if resume_payload is not None:
            try:
                completed_outcomes = [
                    decode_outcome(doc)
                    for doc in resume_payload.get("completed", [])
                ]
                start_iteration = int(resume_payload.get("iteration", 0))
                metric_doc = resume_payload.get("metric")
                metric_resume = (
                    MetricCheckpoint.from_payload(metric_doc)
                    if metric_doc
                    else None
                )
                if metric_resume is None:
                    counters.checkpoint_resumes += 1
            except CheckpointError as exc:
                # A CRC-valid envelope with an undecodable body (e.g. a
                # future format) is stale, not fatal: start cold.
                counters.checkpoints_discarded += 1
                counters.record_degradation(
                    "checkpoint-stale", exc, site="checkpoint"
                )
                completed_outcomes = []
                start_iteration = 0
                metric_resume = None
                resume_payload = None
        if checkpoint_dir is not None:
            checkpointer = FlowCheckpointer(
                checkpoint_dir,
                fingerprint,
                every=checkpoint_every,
                counters=counters,
            )
            if resume_payload is not None:
                checkpointer.restore(resume_payload)

    seeds: List[Tuple[int, List[int]]] = []
    for _iteration in range(config.iterations):
        metric_seed = rng.randrange(2**31)
        construction_seeds = [
            rng.randrange(2**31)
            for _ in range(config.constructions_per_metric)
        ]
        seeds.append((metric_seed, construction_seeds))

    outcomes = list(completed_outcomes)
    for index in range(start_iteration, len(seeds)):
        if checkpointer is not None:
            checkpointer.begin_iteration(index)
        metric_seed, construction_seeds = seeds[index]
        outcome = _run_flow_iteration(
            hypergraph,
            graph,
            spec,
            config,
            metric_seed,
            construction_seeds,
            on_round=(
                checkpointer.on_metric_round
                if checkpointer is not None
                else None
            ),
            metric_resume=(
                metric_resume if index == start_iteration else None
            ),
            abort_check=abort_check,
        )
        outcomes.append(outcome)
        if checkpointer is not None:
            checkpointer.complete_iteration(index, outcome)

    best_partition: Optional[PartitionTree] = None
    best_cost = float("inf")
    iteration_costs: List[float] = []
    metric_objectives: List[float] = []
    metric_results: List[MetricSummary] = []
    for outcome in outcomes:
        iteration_best, iteration_partition, metric, iteration_counters = outcome
        counters.merge(iteration_counters)
        iteration_costs.append(iteration_best)
        metric_objectives.append(metric.objective)
        metric_results.append(metric)
        if iteration_best < best_cost:
            best_cost = iteration_best
            best_partition = iteration_partition

    if best_partition is None:  # pragma: no cover - unreachable by config guard
        raise PartitionError("FLOW produced no partition")
    if config.exact_refine:
        from repro.analysis.exact.tree_dp import tree_dp_refine

        refined = tree_dp_refine(hypergraph, spec, best_partition, graph=graph)
        if refined is not None:
            best_partition, best_cost = refined
    return FlowHTPResult(
        partition=best_partition,
        cost=best_cost,
        iteration_costs=iteration_costs,
        metric_objectives=metric_objectives,
        metric_results=metric_results,
        runtime_seconds=time.perf_counter() - start,
        perf=counters,
    )

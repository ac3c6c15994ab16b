"""Algorithm 2: computing a spreading metric by stochastic flow injection.

Every edge carries a flow ``f(e)`` (initially ``epsilon``) and a length
``d(e) = exp(alpha * f(e) / c(e)) - 1``.  Nodes are visited in random
order; for each node the shortest-path trees ``S(v, k)`` are grown until a
spreading constraint is violated, ``delta`` units of flow are injected on
the violated tree's edges, and the lengths are re-priced (congested edges
are penalised exponentially).  A node whose constraints are all satisfied
is retired — valid because ``d`` only ever grows, so shortest-path
distances and constraint left-hand sides are monotonically nondecreasing
while the right-hand sides ``g`` are fixed.

The loop ends when every node is retired (a feasible spreading metric) or
when the round budget is exhausted (the best-effort metric is returned
with ``satisfied = False``).

Engines
-------
``engine='scipy'`` (default) runs the **batched incremental** round loop:
active sources are checked in sub-round chunks with ONE distance-limited
``scipy.csgraph.dijkstra`` call per chunk, injections are applied
serially in visit order (preserving the seed's semantics exactly), and a
source later in the chunk is re-examined only when an injection dirtied
an edge on its snapshot shortest-path tree — everything else reuses the
snapshot verdict, provably unchanged because edge lengths only grow.
Re-pricing after an injection patches just the dirty edges in place
(``SpreadingOracle.update_lengths``) instead of copying the O(m) metric.

``engine='scipy-serial'`` is the one-source-at-a-time loop (the seed's
behaviour) kept as the reference the batched loop is asserted
bit-identical against; ``engine='python'`` additionally swaps the oracle
to the pure-Python Dijkstra.

``engine='native'`` runs the serial round loop with every per-source
first-violation query answered by the compiled kernel
(``repro.core._kernel``): one early-exiting C pass fuses the
distance-limited Dijkstra with the in-order constraint scan and the
canonical-tree extraction, so the convergent tail — thousands of
satisfied sources re-verified per round — stops paying scipy's
full-ball settling cost or any per-call numpy marshalling.  Repricing
stays in numpy (``np.expm1`` is not guaranteed bitwise-equal to libm),
the kernel only reads the installed CSR metric.  When the extension
is not built (no compiler) or is disabled via ``REPRO_DISABLE_NATIVE``,
the request quietly degrades to the batched ``scipy`` loop with a
``native_fallbacks`` count and a degradation record.  All four engines
produce identical results for a fixed seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import _kernel as native_kernel_mod
from repro.core.checkpoint import MetricCheckpoint
from repro.core.constraints import MIN_CSR_LENGTH, SpreadingOracle
from repro.core.perf import PerfCounters
from repro.errors import CheckpointError, SolverAborted
from repro.htp.hierarchy import HierarchySpec
from repro.hypergraph.graph import Graph

#: Engines accepted by :class:`SpreadingMetricConfig`.
ENGINES = ("scipy", "scipy-serial", "python", "native")

#: Initial batched sub-round size; doubles after every injection-free
#: chunk and resets on injection (injection-heavy phases want small
#: snapshots, the convergent tail wants big ones).
_MIN_CHUNK = 8

#: Upper bound on the dense scratch a single batched chunk may allocate,
#: in (sources x nodes) matrix elements.
_MAX_CHUNK_ELEMENTS = 4_000_000


@dataclass
class SpreadingMetricConfig:
    """Tuning knobs of Algorithm 2.

    Attributes
    ----------
    alpha:
        Exponential pricing rate in ``d(e) = exp(alpha f(e) / c(e)) - 1``.
    delta:
        Flow units injected per violated tree.
    epsilon:
        Initial flow on every edge (lengths start near, not at, zero).
    max_rounds:
        Bound on full passes over the active node set; exceeded means the
        returned metric may be infeasible (``satisfied = False``).
    engine:
        ``'scipy'`` (batched incremental, fast), ``'scipy-serial'``
        (one source per Dijkstra; the reference the batched engine is
        tested bit-identical against), ``'python'`` (pure-Python
        reference) or ``'native'`` (the serial loop with per-source
        checks answered by the compiled kernel; degrades to ``'scipy'``
        when the extension is unavailable).
    seed:
        Seed for the node visiting order.
    node_sample:
        Optional fraction (0, 1] of nodes to enforce constraints for — a
        stochastic speedup for very large instances; 1.0 enforces all.
    """

    alpha: float = 1.0
    delta: float = 1.0
    epsilon: float = 1e-3
    max_rounds: int = 64
    engine: str = "scipy"
    seed: int = 0
    node_sample: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.node_sample <= 1:
            raise ValueError("node_sample must be in (0, 1]")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (choose from {ENGINES})"
            )


@dataclass
class SpreadingMetricResult:
    """Output of Algorithm 2.

    ``lengths`` is the spreading metric ``d`` (indexed by edge id),
    ``flows`` the final edge flows, ``objective`` the LP objective value
    ``sum_e c(e) d(e)`` of the metric, ``injections`` the number of
    flow-injection steps, ``rounds`` the number of passes over the active
    set, ``satisfied`` whether every spreading constraint held at
    termination, and ``counters`` the perf instrumentation when the
    caller supplied a :class:`PerfCounters`.
    """

    lengths: np.ndarray
    flows: np.ndarray
    objective: float
    injections: int
    rounds: int
    satisfied: bool
    counters: Optional[PerfCounters] = None

    def summary(self) -> "MetricSummary":
        """The scalars a FLOW result keeps once the arrays are spent."""
        return MetricSummary(
            objective=self.objective,
            injections=self.injections,
            rounds=self.rounds,
            satisfied=self.satisfied,
        )


@dataclass
class MetricSummary:
    """The scalars of one Algorithm 2 run that a FLOW result keeps.

    Only Algorithm 3 reads a metric's arrays, so a finished iteration
    keeps this record instead; the fields mean what they mean on
    :class:`SpreadingMetricResult`.
    """

    objective: float
    injections: int
    rounds: int
    satisfied: bool

    def to_dict(self) -> Dict[str, object]:
        """The JSON form; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "MetricSummary":
        """Read the four scalar keys, so documents that still carry
        ``lengths`` and ``flows`` load too.  Malformed input raises
        ``KeyError``, ``TypeError`` or ``ValueError``."""
        return cls(
            objective=float(doc["objective"]),
            injections=int(doc["injections"]),
            rounds=int(doc["rounds"]),
            satisfied=bool(doc["satisfied"]),
        )


def compute_spreading_metric(
    graph: Graph,
    spec: HierarchySpec,
    config: Optional[SpreadingMetricConfig] = None,
    rng: Optional[random.Random] = None,
    counters: Optional[PerfCounters] = None,
    on_round: Optional[Callable[[MetricCheckpoint, bool], None]] = None,
    resume: Optional[MetricCheckpoint] = None,
    abort_check: Optional[Callable[[], object]] = None,
) -> SpreadingMetricResult:
    """Run Algorithm 2 on ``graph`` under hierarchy ``spec``.

    Parameters
    ----------
    graph : Graph
        The (net-model-expanded) graph carrying capacities.
    spec : HierarchySpec
        Hierarchy bounds supplying the spreading constraints.
    config : SpreadingMetricConfig, optional
        Tuning knobs; defaults reproduce the paper's Algorithm 2.
    rng : random.Random, optional
        Node-visit-order randomness; defaults to ``Random(config.seed)``.
    counters : PerfCounters, optional
        Instrumentation sink shared with the oracle.
    on_round : callable, optional
        Durability hook ``on_round(state, final)`` invoked after every
        round with a :class:`~repro.core.checkpoint.MetricCheckpoint`
        (``final=True`` once more when the loop ends or aborts).  The
        FLOW driver wires a :class:`~repro.core.checkpoint.FlowCheckpointer`
        in here.
    resume : MetricCheckpoint, optional
        Round state to continue from instead of starting cold.  Resuming
        at a round boundary is bit-identical to never having stopped:
        the flows, lengths, active order, counters and RNG state are all
        restored exactly.
    abort_check : callable, optional
        Cooperative per-round abort: called at the top of every round;
        a truthy return (the reason) emits a final ``on_round`` state
        and raises :class:`~repro.errors.SolverAborted`.

    Returns
    -------
    SpreadingMetricResult
        The metric, flows, objective and diagnostics.  All engines
        return bit-identical results for a fixed seed (the engine only
        changes *how* verdicts are computed, never *which*).
    """
    config = config or SpreadingMetricConfig()
    rng = rng or random.Random(config.seed)
    oracle_engine = "python" if config.engine == "python" else "scipy"
    oracle = SpreadingOracle(
        graph, spec, engine=oracle_engine, counters=counters
    )

    capacities = graph.capacities()
    if resume is not None:
        if resume.flows.shape != (graph.num_edges,):
            raise CheckpointError(
                f"resume state has {resume.flows.shape[0]} edges, "
                f"graph has {graph.num_edges}"
            )
        flows = resume.flows.astype(float, copy=True)
        lengths = resume.lengths.astype(float, copy=True)
        active = list(resume.active)
        if resume.rng_state is not None:
            rng.setstate(resume.rng_state)
        if counters is not None:
            counters.checkpoint_resumes += 1
    else:
        flows = np.full(graph.num_edges, config.epsilon, dtype=float)
        lengths = _price(flows, capacities, config.alpha)
        active = list(graph.nodes())
        if config.node_sample < 1.0:
            sample_size = max(1, int(round(config.node_sample * len(active))))
            active = rng.sample(active, sample_size)
    oracle.set_lengths(lengths)

    engine = config.engine
    native_kernel = None
    if engine == "native":
        if native_kernel_mod.available():
            native_kernel = native_kernel_mod.NativeMetricKernel(
                graph, spec, tol=oracle.tol
            )
        else:
            # Guaranteed fallback: the batched scipy loop is
            # bit-identical, so a missing compiler only costs speed.
            engine = "scipy"
            if counters is not None:
                counters.native_fallbacks += 1
                counters.record_degradation(
                    "native-scipy",
                    native_kernel_mod.unavailable_reason(),
                    site="native-kernel",
                )

    if engine == "scipy":
        injections, rounds = _batched_rounds(
            graph,
            oracle,
            config,
            rng,
            active,
            flows,
            lengths,
            capacities,
            counters,
            on_round=on_round,
            resume=resume,
            abort_check=abort_check,
        )
    elif engine == "native":
        injections, rounds = _native_rounds(
            graph,
            oracle,
            config,
            rng,
            active,
            flows,
            lengths,
            capacities,
            counters,
            native_kernel,
            on_round=on_round,
            resume=resume,
            abort_check=abort_check,
        )
    else:
        injections, rounds = _serial_rounds(
            graph,
            oracle,
            config,
            rng,
            active,
            flows,
            lengths,
            capacities,
            counters,
            on_round=on_round,
            resume=resume,
            abort_check=abort_check,
        )
    if on_round is not None:
        on_round(
            _round_state(rng, flows, lengths, active, injections, rounds),
            True,
        )

    return SpreadingMetricResult(
        lengths=lengths,
        flows=flows,
        objective=float(np.dot(capacities, lengths)),
        injections=injections,
        rounds=rounds,
        satisfied=not active,
        counters=counters,
    )


def _round_state(
    rng: random.Random,
    flows: np.ndarray,
    lengths: np.ndarray,
    active: List[int],
    injections: int,
    rounds: int,
    chunk_size: Optional[int] = None,
) -> MetricCheckpoint:
    """Snapshot the loop state at a round boundary (for ``on_round``)."""
    return MetricCheckpoint(
        flows=flows,
        lengths=lengths,
        active=list(active),
        injections=injections,
        rounds=rounds,
        chunk_size=chunk_size,
        rng_state=rng.getstate(),
    )


def _maybe_abort(
    abort_check,
    on_round,
    rng: random.Random,
    flows: np.ndarray,
    lengths: np.ndarray,
    active: List[int],
    injections: int,
    rounds: int,
    chunk_size: Optional[int] = None,
) -> None:
    """Cooperative per-round abort: final checkpoint, then SolverAborted."""
    if abort_check is None:
        return
    reason = abort_check()
    if not reason:
        return
    if on_round is not None:
        on_round(
            _round_state(
                rng, flows, lengths, active, injections, rounds, chunk_size
            ),
            True,
        )
    raise SolverAborted(str(reason))


def _inject(
    oracle: SpreadingOracle,
    config: SpreadingMetricConfig,
    flows: np.ndarray,
    lengths: np.ndarray,
    capacities: np.ndarray,
    tree_edges,
):
    """Add ``delta`` flow on ``tree_edges`` and reprice them in place.

    Returns ``(edge_ids, old_floored)`` — the dirty edge ids and their
    *pre-injection* floored lengths, which the batched loop's
    snapshot-reuse test (:meth:`BatchCheck.may_touch`) needs: whether an
    edge lay on a snapshot shortest path is a question about the edge's
    length *at snapshot time*, not its repriced value.  None when the
    tree has no edges (the k=1 constraint is violated and nothing can
    be repriced).
    """
    edge_ids = np.fromiter(tree_edges, dtype=np.int64, count=len(tree_edges))
    if not edge_ids.size:
        return None
    old_floored = np.maximum(lengths[edge_ids], MIN_CSR_LENGTH)
    flows[edge_ids] += config.delta
    lengths[edge_ids] = _price(
        flows[edge_ids], capacities[edge_ids], config.alpha
    )
    oracle.update_lengths(edge_ids, lengths[edge_ids])
    return edge_ids, old_floored


def _serial_rounds(
    graph: Graph,
    oracle: SpreadingOracle,
    config: SpreadingMetricConfig,
    rng: random.Random,
    active: List[int],
    flows: np.ndarray,
    lengths: np.ndarray,
    capacities: np.ndarray,
    counters: Optional[PerfCounters],
    on_round=None,
    resume: Optional[MetricCheckpoint] = None,
    abort_check=None,
):
    """The seed's one-source-at-a-time round loop (reference engine)."""
    injections = resume.injections if resume is not None else 0
    rounds = resume.rounds if resume is not None else 0
    while active and rounds < config.max_rounds:
        _maybe_abort(
            abort_check, on_round, rng, flows, lengths, active,
            injections, rounds,
        )
        rounds += 1
        rng.shuffle(active)
        still_active = []
        for source in active:
            violation = oracle.violation_for(source, mode="first")
            if violation is None:
                continue  # retired: monotonicity keeps it satisfied
            _inject(
                oracle, config, flows, lengths, capacities,
                violation.tree_edges,
            )
            injections += 1
            if counters is not None:
                counters.injections += 1
            still_active.append(source)
        active[:] = still_active
        if on_round is not None:
            on_round(
                _round_state(rng, flows, lengths, active, injections, rounds),
                False,
            )
    return injections, rounds


def _native_rounds(
    graph: Graph,
    oracle: SpreadingOracle,
    config: SpreadingMetricConfig,
    rng: random.Random,
    active: List[int],
    flows: np.ndarray,
    lengths: np.ndarray,
    capacities: np.ndarray,
    counters: Optional[PerfCounters],
    kernel,
    on_round=None,
    resume: Optional[MetricCheckpoint] = None,
    abort_check=None,
):
    """The serial round loop with checks answered by the C kernel.

    The trajectory is exactly `_serial_rounds`' (same shuffles, same
    per-source first-violation verdicts, same injections); only *who*
    answers the query changes.  The oracle still owns the CSR metric —
    ``install_weights`` pins the floored lengths before the loop and
    ``update_lengths`` patches dirty edges in place after each
    injection, so the kernel (which reads the live CSR ``data`` array)
    always sees the current metric without any per-call copying.

    Records the ``kernel_seconds`` / ``python_overhead_seconds`` phase
    breakdown: time inside the compiled kernel vs everything else in the
    loop (shuffling, injections, numpy repricing, checkpointing).
    """
    injections = resume.injections if resume is not None else 0
    rounds = resume.rounds if resume is not None else 0
    kernel_seconds = 0.0
    loop_start = time.perf_counter()
    oracle.install_weights()
    while active and rounds < config.max_rounds:
        _maybe_abort(
            abort_check, on_round, rng, flows, lengths, active,
            injections, rounds,
        )
        rounds += 1
        rng.shuffle(active)
        still_active = []
        for source in active:
            tick = time.perf_counter()
            settled, violation = kernel.check(source)
            kernel_seconds += time.perf_counter() - tick
            if counters is not None:
                counters.dijkstra_calls += 1
                counters.dijkstra_sources += 1
                counters.nodes_settled += settled
            if violation is None:
                continue  # retired: monotonicity keeps it satisfied
            _inject(
                oracle, config, flows, lengths, capacities,
                violation.tree_edges,
            )
            injections += 1
            if counters is not None:
                counters.injections += 1
            still_active.append(source)
        active[:] = still_active
        if on_round is not None:
            on_round(
                _round_state(rng, flows, lengths, active, injections, rounds),
                False,
            )
    if counters is not None:
        total = time.perf_counter() - loop_start
        counters.add_phase("kernel_seconds", kernel_seconds)
        counters.add_phase(
            "python_overhead_seconds", max(0.0, total - kernel_seconds)
        )
    return injections, rounds


def _batched_rounds(
    graph: Graph,
    oracle: SpreadingOracle,
    config: SpreadingMetricConfig,
    rng: random.Random,
    active: List[int],
    flows: np.ndarray,
    lengths: np.ndarray,
    capacities: np.ndarray,
    counters: Optional[PerfCounters],
    on_round=None,
    resume: Optional[MetricCheckpoint] = None,
    abort_check=None,
):
    """Batched incremental round loop — bit-identical to `_serial_rounds`.

    Sources are still visited strictly in the shuffled order and
    injections applied one at a time, so the flow trajectory is exactly
    the serial one.  The wins come from *checking*: a chunk of upcoming
    sources shares one distance-limited Dijkstra snapshot, and a source's
    snapshot verdict is reused verbatim unless an earlier-in-chunk
    injection repriced an edge that lay on one of its snapshot shortest
    paths (:meth:`BatchCheck.may_touch`).  Reuse is exact, not
    heuristic: lengths only ever grow, so a repriced edge that was on
    no snapshot shortest path leaves the distance profile — and the
    canonical tree derived from it — unchanged float-for-float.
    """
    endpoints = graph.edge_endpoints()
    chunk_cap = max(
        _MIN_CHUNK, min(256, _MAX_CHUNK_ELEMENTS // max(1, graph.num_nodes))
    )
    chunk_size = _MIN_CHUNK
    injections = 0
    rounds = 0
    if resume is not None:
        injections = resume.injections
        rounds = resume.rounds
        if resume.chunk_size is not None:
            chunk_size = min(chunk_cap, max(_MIN_CHUNK, resume.chunk_size))
    while active and rounds < config.max_rounds:
        _maybe_abort(
            abort_check, on_round, rng, flows, lengths, active,
            injections, rounds, chunk_size,
        )
        rounds += 1
        rng.shuffle(active)
        still_active: List[int] = []
        pos = 0
        while pos < len(active):
            chunk = active[pos : pos + chunk_size]
            pos += len(chunk)
            # Free the previous chunk's distance matrix before the next
            # one is allocated, so only one snapshot is alive at a time.
            snapshot = None
            snapshot = oracle.batch_check(chunk, mode="first")
            dirty_u_parts: List[np.ndarray] = []
            dirty_w_parts: List[np.ndarray] = []
            dirty_len_parts: List[np.ndarray] = []
            dirty_u: Optional[np.ndarray] = None
            dirty_w: Optional[np.ndarray] = None
            dirty_len: Optional[np.ndarray] = None
            chunk_injected = False
            for i, source in enumerate(chunk):
                if dirty_u_parts:
                    if dirty_u is None:
                        dirty_u = np.concatenate(dirty_u_parts)
                        dirty_w = np.concatenate(dirty_w_parts)
                        dirty_len = np.concatenate(dirty_len_parts)
                    touched = snapshot.may_touch(i, dirty_u, dirty_w, dirty_len)
                else:
                    touched = False
                if touched:
                    # A repriced edge lay on a snapshot shortest path of
                    # this source: fall back to a fresh (still
                    # distance-limited) check, which is exactly what the
                    # serial loop computes here.
                    violation = oracle.batch_check([source], mode="first").violations[0]
                    if counters is not None:
                        counters.recheck_sources += 1
                else:
                    violation = snapshot.violations[i]
                if violation is None:
                    if counters is not None and not touched:
                        counters.retired_free += 1
                    continue
                dirty = _inject(
                    oracle,
                    config,
                    flows,
                    lengths,
                    capacities,
                    violation.tree_edges,
                )
                injections += 1
                chunk_injected = True
                if counters is not None:
                    counters.injections += 1
                if dirty is not None:
                    dirty_ids, dirty_old = dirty
                    pair = endpoints[dirty_ids]
                    dirty_u_parts.append(pair[:, 0])
                    dirty_w_parts.append(pair[:, 1])
                    # An edge repriced twice in one chunk appends a
                    # second, staler entry; the first append already
                    # carries the true snapshot-time length, so the
                    # extra entry is merely conservative.
                    dirty_len_parts.append(dirty_old)
                    dirty_u = dirty_w = dirty_len = None
                still_active.append(source)
            if chunk_injected:
                chunk_size = _MIN_CHUNK
            else:
                chunk_size = min(chunk_cap, chunk_size * 2)
        active[:] = still_active
        if on_round is not None:
            on_round(
                _round_state(
                    rng, flows, lengths, active, injections, rounds, chunk_size
                ),
                False,
            )
    return injections, rounds


def _price(
    flows: np.ndarray, capacities: np.ndarray, alpha: float
) -> np.ndarray:
    """Edge pricing ``d(e) = exp(alpha f(e) / c(e)) - 1``."""
    return np.expm1(alpha * flows / capacities)

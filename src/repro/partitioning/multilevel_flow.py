"""Multilevel FLOW: the V-cycle that scales the 1997 algorithm.

Flat FLOW (:mod:`repro.core.flow_htp`) solves a spreading-metric LP per
iteration, which is super-linear in the netlist; past ~10k nodes the
wall-clock budget runs out long before the cut converges.  This module
wraps the exact min-cut machinery in the multilevel paradigm of Heuer,
Sanders and Schlag ("Network Flow-Based Refinement for Multilevel
Hypergraph Partitioning"):

1. **Coarsen** — heavy-edge matchings with a *cluster-size cap* derived
   from the level-0 capacity ``C_0`` (:mod:`repro.partitioning.coarsening`)
   until the instance is small enough for the flat solver;
2. **Coarsest solve** — run FLOW itself on the coarse instance.  Size and
   cut capacity are exactly preserved by contraction, so the same
   :class:`~repro.htp.hierarchy.HierarchySpec` applies unchanged and the
   coarse cost *is* the projected fine cost;
3. **Uncoarsen + corridor refinement** — project the assignment level by
   level and, at each level, grow BFS *corridors* around the most-cut
   leaf pairs, solve an exact s-t min cut on the Lawler expansion of the
   corridor sub-hypergraph (:mod:`repro.algorithms.maxflow`), and accept
   the induced batch move only if the exact Equation-(1) cost delta is
   negative.  Tiny corridors additionally try a global Stoer–Wagner split
   (:mod:`repro.algorithms.mincut`) as a second candidate.

The refinement is feasibility-safe by construction: a corridor side is
never grown beyond the capacity slack of the *opposite* leaf's ancestor
chain, so any cut of the corridor yields a partition that still satisfies
every ``C_l``.  One node per side is always pinned as an anchor, so
leaves cannot drain empty.  Every step iterates in sorted order from a
seeded RNG: results are bit-identical across runs.

:func:`multilevel_fm_htp` is the apples-to-apples comparator — the same
V-cycle with RFM as the coarsest solver and pairwise FM refinement — used
by ``benchmarks/bench_multilevel.py`` for the quality/time tables in
docs/benchmarks.md.  See docs/multilevel.md for the full design story.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.algorithms.maxflow import FlowNetwork
from repro.algorithms.mincut import stoer_wagner_min_cut
from repro.core.flow_htp import FlowHTPConfig, FlowHTPResult, flow_htp
from repro.core.perf import PerfCounters
from repro.core.spreading_metric import ENGINES, SpreadingMetricConfig
from repro.errors import PartitionError, SolverAborted
from repro.htp.cost import total_cost
from repro.htp.hierarchy import HierarchySpec
from repro.htp.partition import PartitionTree
from repro.hypergraph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioning.coarsening import (
    CoarseLevel,
    CoarseningConfig,
    coarsen,
    project_assignment,
)
from repro.partitioning.fm import FMConfig
from repro.partitioning.rfm import rfm_partition

_EPS = 1e-9
_INF = float("inf")

#: Every ``engine`` a solve request may name: the bit-identical metric
#: engines of flat FLOW, plus this module's V-cycle.
SOLVER_ENGINES = ENGINES + ("multilevel-flow",)


@dataclass
class MultilevelFlowConfig:
    """Knobs of the V-cycle (see docs/multilevel.md for the full story).

    Attributes
    ----------
    coarsest_size:
        Stop coarsening at this many nodes; ``None`` picks
        ``max(64, 4 * leaf slots)`` from the spec's branching.
    max_levels:
        Hard cap on coarsening steps.
    cluster_fraction:
        Cluster-size cap as a fraction of ``C_0`` — keeps coarse nodes
        placeable inside level-0 capacity windows.
    max_cluster_size:
        Absolute override of the cap (wins over ``cluster_fraction``).
    corridor_hops:
        BFS rings grown around the boundary seeds of a leaf pair.
    corridor_cap:
        Maximum corridor nodes per side (the slack cap may stop earlier).
    max_pairs_per_level:
        Refine only the most-cut leaf pairs at each uncoarsening level.
    refine_passes:
        Sweeps over the pair list per level; a sweep with no accepted
        move ends the level early.
    stoer_wagner_max:
        Corridors at most this large also try a global min-cut split.
    refiner:
        ``'flow'`` (corridor max-flow), ``'fm'`` (pairwise FM — the
        comparator), or ``'none'``.
    coarse_solver:
        ``'flow'`` (:func:`repro.core.flow_htp.flow_htp`) or ``'rfm'``.
    seed:
        Master seed; the whole V-cycle is a pure function of it.
    flow:
        Full override of the coarsest-level solver configuration.
    """

    coarsest_size: Optional[int] = None
    max_levels: int = 24
    cluster_fraction: float = 0.05
    max_cluster_size: Optional[float] = None
    corridor_hops: int = 2
    corridor_cap: int = 200
    max_pairs_per_level: int = 32
    refine_passes: int = 3
    stoer_wagner_max: int = 48
    refiner: str = "flow"
    coarse_solver: str = "flow"
    seed: int = 0
    flow: Optional[FlowHTPConfig] = None

    def __post_init__(self) -> None:
        if self.refiner not in ("flow", "fm", "none"):
            raise PartitionError(f"unknown refiner {self.refiner!r}")
        if self.coarse_solver not in ("flow", "rfm"):
            raise PartitionError(
                f"unknown coarse solver {self.coarse_solver!r}"
            )


def multilevel_flow_htp(
    hypergraph: Hypergraph,
    spec: HierarchySpec,
    config: Optional[MultilevelFlowConfig] = None,
    abort_check: Optional[Callable[[], object]] = None,
) -> FlowHTPResult:
    """Run the multilevel FLOW V-cycle; returns a flat-FLOW-shaped result.

    The result is a regular :class:`~repro.core.flow_htp.FlowHTPResult`
    (the service, cache and CLI consume it unchanged):
    ``iteration_costs`` carries the coarsest-level iteration costs —
    which, by cut preservation, equal the projected fine costs before
    refinement — with the final refined cost appended;
    ``metric_objectives``/``metric_results`` come from the coarse solve
    (empty for the RFM comparator); ``perf`` aggregates the coarse
    solver's counters with the V-cycle's own phase times (``coarsen``,
    ``coarse_solve``, ``refine``) and corridor ``cut_evals``.

    ``abort_check`` follows the flat solver's contract: polled between
    phases and refinement levels, a truthy return raises
    :class:`~repro.errors.SolverAborted`.
    """
    config = config or MultilevelFlowConfig()
    started = time.perf_counter()
    counters = PerfCounters()
    rng = random.Random(config.seed)

    def poll() -> None:
        if abort_check is not None:
            reason = abort_check()
            if reason:
                raise SolverAborted(str(reason))

    # --- Coarsen -----------------------------------------------------
    cap = config.max_cluster_size
    if cap is None:
        min_size = min(
            (hypergraph.node_size(v) for v in range(hypergraph.num_nodes)),
            default=1.0,
        )
        cap = max(config.cluster_fraction * spec.capacity(0), 2.0 * min_size)
    coarsest_size = config.coarsest_size
    if coarsest_size is None:
        leaf_slots = 1
        for branch in spec.branching:
            leaf_slots *= branch
        coarsest_size = max(64, 4 * leaf_slots)

    phase_start = time.perf_counter()
    levels: List[CoarseLevel] = coarsen(
        hypergraph,
        rng,
        CoarseningConfig(
            coarsest_size=coarsest_size,
            max_levels=config.max_levels,
            max_cluster_size=cap,
        ),
    )
    counters.add_phase("coarsen", time.perf_counter() - phase_start)
    poll()

    # --- Coarsest-level solve ---------------------------------------
    # Clumpy coarse node sizes can make a capacity window unreachable
    # (e.g. a width-zero ``[138, 138]`` window with all-even sizes), so
    # the solve runs a robustness ladder: try the coarsest level, and on
    # PartitionError pop to the next-finer level — the input itself, at
    # the bottom, has the original granularity.
    chain_h = [hypergraph] + [level.hypergraph for level in levels]
    phase_start = time.perf_counter()
    coarse_result: Optional[FlowHTPResult] = None
    coarse_tree: Optional[PartitionTree] = None
    solved_at = 0
    for index in range(len(chain_h) - 1, -1, -1):
        current = chain_h[index]
        try:
            if config.coarse_solver == "flow":
                flow_config = config.flow or _coarse_flow_config(config)
                try:
                    coarse_result = flow_htp(
                        current, spec, flow_config, abort_check=abort_check
                    )
                    coarse_tree = coarse_result.partition
                except PartitionError as exc:
                    # RFM's recursive carving sometimes succeeds where
                    # FLOW's construction windows are infeasible.
                    counters.record_degradation(
                        "coarse_flow_to_rfm", exc, site="multilevel"
                    )
                    coarse_tree = _coarse_rfm(current, spec, config)
                else:
                    # Portfolio guard (the multilevel-standard move —
                    # KaHyPar keeps the best of many initial
                    # partitioners): the coarse instance is tiny, so
                    # also price the cheap RFM tree and keep the
                    # better start for uncoarsening.
                    try:
                        rfm_tree = _coarse_rfm(current, spec, config)
                    except PartitionError:
                        rfm_tree = None
                    if rfm_tree is not None and total_cost(
                        current, rfm_tree, spec
                    ) < total_cost(current, coarse_tree, spec):
                        coarse_tree = rfm_tree
            else:
                coarse_tree = _coarse_rfm(current, spec, config)
            solved_at = index
            break
        except PartitionError as exc:
            if index == 0:
                raise
            counters.record_degradation(
                "coarse_pop_level", exc, site="multilevel"
            )
    assert coarse_tree is not None
    counters.add_phase("coarse_solve", time.perf_counter() - phase_start)
    poll()

    # --- Uncoarsen + refine -----------------------------------------
    chains = {
        leaf: list(coarse_tree.ancestor_chain(leaf))
        for leaf in coarse_tree.leaves()
    }
    assignment = [
        coarse_tree.leaf_of(v) for v in range(chain_h[solved_at].num_nodes)
    ]

    phase_start = time.perf_counter()
    if solved_at > 0:
        for index in range(solved_at - 1, -1, -1):
            poll()
            assignment = project_assignment(
                levels[index].coarse_of, assignment
            )
            _refine(
                chain_h[index], spec, chains, assignment, config, counters
            )
    else:
        _refine(hypergraph, spec, chains, assignment, config, counters)
    counters.add_phase("refine", time.perf_counter() - phase_start)

    # --- Assemble the fine tree -------------------------------------
    doc = coarse_tree.to_dict()
    doc["num_nodes"] = hypergraph.num_nodes
    doc["leaf_of"] = list(assignment)
    tree = PartitionTree.from_dict(doc)
    cost = total_cost(hypergraph, tree, spec)

    iteration_costs: List[float] = []
    metric_objectives: List[float] = []
    metric_results: List[object] = []
    if coarse_result is not None:
        iteration_costs = list(coarse_result.iteration_costs)
        metric_objectives = list(coarse_result.metric_objectives)
        metric_results = list(coarse_result.metric_results)
        if coarse_result.perf is not None:
            counters.merge(coarse_result.perf)
    iteration_costs.append(cost)

    return FlowHTPResult(
        partition=tree,
        cost=cost,
        iteration_costs=iteration_costs,
        metric_objectives=metric_objectives,
        metric_results=metric_results,
        runtime_seconds=time.perf_counter() - started,
        perf=counters,
    )


def multilevel_fm_htp(
    hypergraph: Hypergraph,
    spec: HierarchySpec,
    config: Optional[MultilevelFlowConfig] = None,
    abort_check: Optional[Callable[[], object]] = None,
) -> FlowHTPResult:
    """The FM comparator: same V-cycle, RFM coarse solve, FM refinement."""
    config = config or MultilevelFlowConfig()
    config = replace(config, coarse_solver="rfm", refiner="fm")
    return multilevel_flow_htp(
        hypergraph, spec, config, abort_check=abort_check
    )


def _coarse_rfm(
    hypergraph: Hypergraph,
    spec: HierarchySpec,
    config: MultilevelFlowConfig,
) -> PartitionTree:
    """RFM at the coarsest level, with extra restarts for clumpy sizes."""
    return rfm_partition(
        hypergraph,
        spec,
        rng=random.Random(config.seed),
        fm_config=FMConfig(seed=config.seed, restarts=8),
    )


def _coarse_flow_config(config: MultilevelFlowConfig) -> FlowHTPConfig:
    """The flat solver's configuration for the coarsest level."""
    return FlowHTPConfig(
        iterations=2,
        constructions_per_metric=4,
        seed=config.seed,
        metric=SpreadingMetricConfig(
            delta=0.05,
            max_rounds=200,
            seed=config.seed,
        ),
    )


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------


def _refine(
    hypergraph: Hypergraph,
    spec: HierarchySpec,
    chains: Dict[int, List[int]],
    assignment: List[int],
    config: MultilevelFlowConfig,
    counters: PerfCounters,
) -> int:
    """Refine ``assignment`` in place at one level; returns moves applied."""
    if config.refiner == "none":
        return 0
    sizes: Dict[int, float] = {}
    leaf_count: Dict[int, int] = {}
    for v in range(hypergraph.num_nodes):
        size = hypergraph.node_size(v)
        leaf = assignment[v]
        leaf_count[leaf] = leaf_count.get(leaf, 0) + 1
        for vertex in chains[leaf]:
            sizes[vertex] = sizes.get(vertex, 0.0) + size

    total_moves = 0
    for _sweep in range(config.refine_passes):
        pairs = _cut_pairs(hypergraph, assignment)
        ranked = sorted(
            pairs.items(), key=lambda item: (-item[1][0], item[0])
        )[: config.max_pairs_per_level]
        sweep_moves = 0
        for (leaf_a, leaf_b), (_cut, seeds) in ranked:
            moves = _refine_pair(
                hypergraph,
                spec,
                chains,
                assignment,
                sizes,
                leaf_count,
                leaf_a,
                leaf_b,
                seeds,
                config,
                counters,
            )
            sweep_moves += moves
        total_moves += sweep_moves
        if sweep_moves == 0:
            break
    return total_moves


def _cut_pairs(
    hypergraph: Hypergraph, assignment: List[int]
) -> Dict[Tuple[int, int], Tuple[float, List[int]]]:
    """Cut capacity and boundary nodes per adjacent leaf pair."""
    cut: Dict[Tuple[int, int], float] = {}
    boundary: Dict[Tuple[int, int], Set[int]] = {}
    for net_id, pins in enumerate(hypergraph.nets()):
        leaves = sorted({assignment[p] for p in pins})
        if len(leaves) < 2:
            continue
        capacity = hypergraph.net_capacity(net_id)
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                key = (leaves[i], leaves[j])
                cut[key] = cut.get(key, 0.0) + capacity
                nodes = boundary.setdefault(key, set())
                for p in pins:
                    if assignment[p] == key[0] or assignment[p] == key[1]:
                        nodes.add(p)
    return {
        key: (cut[key], sorted(boundary[key])) for key in sorted(cut)
    }


def _chain_slack(
    spec: HierarchySpec,
    sizes: Dict[int, float],
    chain: List[int],
    lca_level: int,
) -> float:
    """Headroom for inflow into a leaf's ancestor chain below the LCA."""
    slack = _INF
    for level in range(lca_level):
        slack = min(
            slack, spec.capacity(level) - sizes.get(chain[level], 0.0)
        )
    return max(0.0, slack)


def _grow_corridor(
    hypergraph: Hypergraph,
    assignment: List[int],
    leaf_a: int,
    leaf_b: int,
    seeds: List[int],
    slack_a: float,
    slack_b: float,
    config: MultilevelFlowConfig,
) -> Tuple[List[int], List[int]]:
    """BFS the refinement corridor around the pair boundary.

    A node on leaf ``a``'s side joins the corridor only while the running
    corridor-``a`` size stays within ``slack_b`` (the headroom of ``b``'s
    chain) — so *any* cut of the corridor is balance-feasible — and
    symmetrically for ``b``.  Rejected nodes are not expanded.
    """
    corridor_a: List[int] = []
    corridor_b: List[int] = []
    size_a = size_b = 0.0
    visited: Set[int] = set()
    frontier = sorted(set(seeds))
    for _hop in range(config.corridor_hops + 1):
        if not frontier:
            break
        next_frontier: Set[int] = set()
        for v in frontier:
            if v in visited:
                continue
            visited.add(v)
            size = hypergraph.node_size(v)
            if assignment[v] == leaf_a:
                if (
                    len(corridor_a) >= config.corridor_cap
                    or size_a + size > slack_b + _EPS
                ):
                    continue
                corridor_a.append(v)
                size_a += size
            else:
                if (
                    len(corridor_b) >= config.corridor_cap
                    or size_b + size > slack_a + _EPS
                ):
                    continue
                corridor_b.append(v)
                size_b += size
            for net_id in hypergraph.incident_nets(v):
                for u in hypergraph.net(net_id):
                    if u not in visited and (
                        assignment[u] == leaf_a or assignment[u] == leaf_b
                    ):
                        next_frontier.add(u)
        frontier = sorted(next_frontier)
    return corridor_a, corridor_b


def _corridor_cut_moves(
    hypergraph: Hypergraph,
    assignment: List[int],
    leaf_a: int,
    leaf_b: int,
    corridor: List[int],
    counters: PerfCounters,
) -> Dict[int, int]:
    """Exact s-t min cut on the Lawler expansion of the corridor.

    Nets touching the corridor become two-node gadgets ``e1 -> e2`` of
    capacity ``c(e)``; corridor pins attach with infinite arcs, fixed
    pins collapse into the terminals (``s`` for leaf ``a``, ``t`` for
    leaf ``b``), pins in other leaves do not constrain this pair.  The
    min cut side of ``s`` keeps leaf ``a``; the rest moves to ``b``.
    """
    index = {v: i for i, v in enumerate(sorted(corridor))}
    n = len(index)
    source, sink = n, n + 1
    net_ids = sorted(
        {
            net_id
            for v in corridor
            for net_id in hypergraph.incident_nets(v)
        }
    )
    network = FlowNetwork(n + 2 + 2 * len(net_ids))
    for k, net_id in enumerate(net_ids):
        e1 = n + 2 + 2 * k
        e2 = e1 + 1
        network.add_edge(e1, e2, hypergraph.net_capacity(net_id))
        endpoints: Set[int] = set()
        for p in hypergraph.net(net_id):
            if p in index:
                endpoints.add(index[p])
            elif assignment[p] == leaf_a:
                endpoints.add(source)
            elif assignment[p] == leaf_b:
                endpoints.add(sink)
        for x in sorted(endpoints):
            network.add_edge(x, e1, _INF)
            network.add_edge(e2, x, _INF)
    network.max_flow(source, sink)
    counters.cut_evals += 1
    side = network.min_cut_side(source)
    moves: Dict[int, int] = {}
    for v in corridor:
        target = leaf_a if index[v] in side else leaf_b
        if target != assignment[v]:
            moves[v] = target
    return moves


def _stoer_wagner_moves(
    hypergraph: Hypergraph,
    assignment: List[int],
    leaf_a: int,
    leaf_b: int,
    corridor: List[int],
    counters: PerfCounters,
) -> List[Dict[int, int]]:
    """Global-min-cut candidates for a tiny corridor (both orientations).

    Clique-expands the corridor-internal nets into a graph and splits it
    with Stoer–Wagner; since the split is terminal-free, both ways of
    mapping the two groups onto the leaves are returned as candidates.
    """
    ordered = sorted(corridor)
    index = {v: i for i, v in enumerate(ordered)}
    edges: Dict[Tuple[int, int], float] = {}
    for net_id in sorted(
        {n for v in corridor for n in hypergraph.incident_nets(v)}
    ):
        pins = [p for p in hypergraph.net(net_id) if p in index]
        if len(pins) < 2:
            continue
        weight = hypergraph.net_capacity(net_id) / (len(pins) - 1)
        for i in range(len(pins)):
            for j in range(i + 1, len(pins)):
                key = (index[pins[i]], index[pins[j]])
                edges[key] = edges.get(key, 0.0) + weight
    if not edges:
        return []
    graph = Graph(
        num_nodes=len(ordered),
        edges=[(u, v, w) for (u, v), w in sorted(edges.items())],
    )
    _weight, one_side = stoer_wagner_min_cut(graph)
    counters.cut_evals += 1
    candidates: List[Dict[int, int]] = []
    for side_leaf, other_leaf in ((leaf_a, leaf_b), (leaf_b, leaf_a)):
        moves: Dict[int, int] = {}
        for v in ordered:
            target = side_leaf if index[v] in one_side else other_leaf
            if target != assignment[v]:
                moves[v] = target
        if moves:
            candidates.append(moves)
    return candidates


def _fm_pair_moves(
    hypergraph: Hypergraph,
    assignment: List[int],
    leaf_a: int,
    leaf_b: int,
    corridor: List[int],
    slack_a: float,
    slack_b: float,
    config: MultilevelFlowConfig,
) -> Dict[int, int]:
    """FM-style sweep over the corridor (the comparator refiner).

    Single greedy pass ordered by pairwise cut gain over nets internal to
    the pair, honouring the same slack budgets as the flow refiner.
    """
    corridor_set = set(corridor)
    sides = {v: 0 if assignment[v] == leaf_a else 1 for v in corridor}
    moved_to_b = moved_to_a = 0.0
    moves: Dict[int, int] = {}
    for v in sorted(corridor):
        gain = 0.0
        for net_id in hypergraph.incident_nets(v):
            pins = hypergraph.net(net_id)
            capacity = hypergraph.net_capacity(net_id)
            same = other = external = 0
            for p in pins:
                if p == v:
                    continue
                if p in corridor_set:
                    if sides[p] == sides[v]:
                        same += 1
                    else:
                        other += 1
                elif assignment[p] == (leaf_a if sides[v] == 0 else leaf_b):
                    same += 1
                elif assignment[p] == (leaf_b if sides[v] == 0 else leaf_a):
                    other += 1
                else:
                    external += 1
            if same == 0 and other > 0:
                gain += capacity
            elif other == 0 and same > 0:
                gain -= capacity
        if gain <= 0:
            continue
        size = hypergraph.node_size(v)
        if sides[v] == 0:
            if moved_to_b + size > slack_b + _EPS:
                continue
            moved_to_b += size
            sides[v] = 1
            moves[v] = leaf_b
        else:
            if moved_to_a + size > slack_a + _EPS:
                continue
            moved_to_a += size
            sides[v] = 0
            moves[v] = leaf_a
    return moves


def _moves_delta(
    hypergraph: Hypergraph,
    spec: HierarchySpec,
    chains: Dict[int, List[int]],
    assignment: List[int],
    moves: Dict[int, int],
) -> float:
    """Exact Equation-(1) cost delta of a batch move (span convention:
    0 when a net is internal to one block)."""
    affected = sorted(
        {
            net_id
            for v in moves
            for net_id in hypergraph.incident_nets(v)
        }
    )
    delta = 0.0
    for net_id in affected:
        pins = hypergraph.net(net_id)
        capacity = hypergraph.net_capacity(net_id)
        for level in range(spec.num_levels):
            old_blocks = {chains[assignment[p]][level] for p in pins}
            new_blocks = {
                chains[moves.get(p, assignment[p])][level] for p in pins
            }
            old_span = 0 if len(old_blocks) <= 1 else len(old_blocks)
            new_span = 0 if len(new_blocks) <= 1 else len(new_blocks)
            if new_span != old_span:
                delta += (
                    capacity * spec.weight(level) * (new_span - old_span)
                )
    return delta


def _moves_feasible(
    hypergraph: Hypergraph,
    assignment: List[int],
    moves: Dict[int, int],
    leaf_a: int,
    slack_a: float,
    slack_b: float,
) -> bool:
    """Whether a batch move respects both chains' slack budgets."""
    into_a = into_b = 0.0
    for v, target in moves.items():
        size = hypergraph.node_size(v)
        if target == leaf_a:
            into_a += size
        else:
            into_b += size
    return into_a <= slack_a + _EPS and into_b <= slack_b + _EPS


def _refine_pair(
    hypergraph: Hypergraph,
    spec: HierarchySpec,
    chains: Dict[int, List[int]],
    assignment: List[int],
    sizes: Dict[int, float],
    leaf_count: Dict[int, int],
    leaf_a: int,
    leaf_b: int,
    seeds: List[int],
    config: MultilevelFlowConfig,
    counters: PerfCounters,
) -> int:
    """Refine one leaf pair; applies the best negative-delta candidate."""
    chain_a, chain_b = chains[leaf_a], chains[leaf_b]
    lca_level = next(
        level
        for level in range(len(chain_a))
        if chain_a[level] == chain_b[level]
    )
    if lca_level == 0:
        return 0
    slack_a = _chain_slack(spec, sizes, chain_a, lca_level)
    slack_b = _chain_slack(spec, sizes, chain_b, lca_level)
    # Earlier pairs may have moved seed nodes elsewhere.
    seeds = [
        v for v in seeds if assignment[v] == leaf_a or assignment[v] == leaf_b
    ]
    if not seeds:
        return 0
    corridor_a, corridor_b = _grow_corridor(
        hypergraph,
        assignment,
        leaf_a,
        leaf_b,
        seeds,
        slack_a,
        slack_b,
        config,
    )
    # Pin one anchor per side so a leaf can never drain empty.
    if corridor_a and len(corridor_a) >= leaf_count.get(leaf_a, 0):
        corridor_a.remove(min(corridor_a))
    if corridor_b and len(corridor_b) >= leaf_count.get(leaf_b, 0):
        corridor_b.remove(min(corridor_b))
    corridor = corridor_a + corridor_b
    if not corridor:
        return 0

    candidates: List[Dict[int, int]] = []
    if config.refiner == "flow":
        candidates.append(
            _corridor_cut_moves(
                hypergraph, assignment, leaf_a, leaf_b, corridor, counters
            )
        )
        if 2 <= len(corridor) <= config.stoer_wagner_max:
            candidates.extend(
                _stoer_wagner_moves(
                    hypergraph,
                    assignment,
                    leaf_a,
                    leaf_b,
                    corridor,
                    counters,
                )
            )
    # The FM sweep is cheap and exact-gated like every other candidate,
    # so the flow refiner tries it too — it sometimes finds pairwise
    # gains the corridor cut (which prices the pair cut, not the full
    # Equation-(1) objective) leaves on the table.
    candidates.append(
        _fm_pair_moves(
            hypergraph,
            assignment,
            leaf_a,
            leaf_b,
            corridor,
            slack_a,
            slack_b,
            config,
        )
    )

    best_moves: Optional[Dict[int, int]] = None
    best_delta = -_EPS
    for moves in candidates:
        if not moves:
            continue
        if not _moves_feasible(
            hypergraph, assignment, moves, leaf_a, slack_a, slack_b
        ):
            continue
        delta = _moves_delta(hypergraph, spec, chains, assignment, moves)
        if delta < best_delta:
            best_delta = delta
            best_moves = moves
    if best_moves is None:
        return 0

    for v in sorted(best_moves):
        target = best_moves[v]
        size = hypergraph.node_size(v)
        old = assignment[v]
        for vertex in chains[old]:
            sizes[vertex] = sizes.get(vertex, 0.0) - size
        for vertex in chains[target]:
            sizes[vertex] = sizes.get(vertex, 0.0) + size
        leaf_count[old] = leaf_count.get(old, 0) - 1
        leaf_count[target] = leaf_count.get(target, 0) + 1
        assignment[v] = target
    return len(best_moves)

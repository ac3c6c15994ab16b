"""Reference Algorithm 3: ``find_cut`` and ``construct_partition``.

The form :mod:`repro.core.construct` had before its hot loops were
rewritten: dict-keyed bookkeeping, a ``_BlockCutCounter`` per call, a
scan of every graph edge on each MST restart and a Prim generator over
the swap-sifting reference heap.  The rewrite must return the same
lists and trees and leave the RNG in the same state.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithms.union_find import UnionFind
from repro.core.perf import PerfCounters
from repro.errors import InfeasibleError, PartitionError
from repro.htp.hierarchy import HierarchySpec
from repro.htp.partition import PartitionTree
from repro.hypergraph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph
from tests.reference.heap import IndexedHeap

#: Cap on the number of MST subtree candidates whose cut is evaluated.
DEFAULT_MAX_CUT_EVALS = 64

_STRATEGIES = ("prim", "mst", "both")


class _BlockCutCounter:
    """Hypergraph cut bookkeeping for one block's nets."""

    def __init__(self, hypergraph: Hypergraph, candidate_set: Set[int]) -> None:
        self._hypergraph = hypergraph
        self._candidate_set = candidate_set
        self.block_pins: Dict[int, int] = {}
        for v in candidate_set:
            for net_id in hypergraph.incident_nets(v):
                self.block_pins[net_id] = self.block_pins.get(net_id, 0) + 1

    def cut_of(self, region: Sequence[int]) -> float:
        """Capacity of block nets cut by (region, block - region)."""
        inside: Dict[int, int] = {}
        for v in region:
            for net_id in self._hypergraph.incident_nets(v):
                total = self.block_pins.get(net_id, 0)
                if total > 1:
                    inside[net_id] = inside.get(net_id, 0) + 1
        cut = 0.0
        for net_id, count in inside.items():
            if count < self.block_pins[net_id]:
                cut += self._hypergraph.net_capacity(net_id)
        return cut


def find_cut(
    hypergraph: Hypergraph,
    graph: Graph,
    lengths: Sequence[float],
    candidates: Sequence[int],
    lower: float,
    upper: float,
    rng: random.Random,
    restarts: int = 1,
    strategy: str = "both",
    max_cut_evals: int = DEFAULT_MAX_CUT_EVALS,
    counters: Optional[PerfCounters] = None,
) -> List[int]:
    """Carve a low-cut node subset of size in ``[lower, upper]``.

    ``candidates`` is the current block's node set (global ids); growth,
    spanning trees and cut counting are restricted to it.  ``restarts``
    independent attempts (seeds / jittered MSTs) are tried per strategy.

    Falls back to the best under-``upper`` prefix when no region lands in
    the window (possible with non-unit node sizes); raises
    :class:`InfeasibleError` when even a single node exceeds ``upper``.
    """
    if strategy not in _STRATEGIES:
        raise PartitionError(f"unknown find_cut strategy {strategy!r}")
    candidate_set = set(candidates)
    if not candidate_set:
        raise PartitionError("find_cut called with no candidate nodes")
    sizes = graph.node_sizes()
    counter = _BlockCutCounter(hypergraph, candidate_set)

    best_cut = math.inf
    best_region: Optional[List[int]] = None
    fallback_cut = math.inf
    fallback_region: Optional[List[int]] = None

    attempts = max(1, restarts)
    if strategy in ("mst", "both"):
        for _attempt in range(attempts):
            region, cut = _mst_subtree_cut(
                hypergraph,
                graph,
                lengths,
                candidate_set,
                lower,
                upper,
                sizes,
                counter,
                rng,
                max_cut_evals,
                counters,
            )
            if region is not None and cut < best_cut:
                best_cut = cut
                best_region = region
    if strategy in ("prim", "both"):
        for _attempt in range(attempts):
            seed = rng.choice(tuple(candidate_set))
            region, cut, in_window = _prim_window_cut(
                hypergraph,
                graph,
                lengths,
                candidate_set,
                lower,
                upper,
                seed,
                sizes,
                counter,
                rng,
                counters,
            )
            if region is None:
                continue
            if in_window:
                if cut < best_cut:
                    best_cut = cut
                    best_region = region
            elif cut < fallback_cut:
                fallback_cut = cut
                fallback_region = region

    if best_region is not None:
        return best_region
    if fallback_region is not None:
        return fallback_region
    # Last resort for non-unit sizes: a single largest-fitting node.
    fitting = [v for v in candidate_set if sizes[v] <= upper + 1e-9]
    if not fitting:
        raise InfeasibleError(
            f"no node of the block fits under the size bound {upper}"
        )
    return [max(fitting, key=lambda v: sizes[v])]


# ----------------------------------------------------------------------
# Strategy 1: Prim prefix growth (Algorithm 3 verbatim)
# ----------------------------------------------------------------------
def _prim_window_cut(
    hypergraph: Hypergraph,
    graph: Graph,
    lengths: Sequence[float],
    candidate_set: Set[int],
    lower: float,
    upper: float,
    seed: int,
    sizes,
    counter: _BlockCutCounter,
    rng: random.Random,
    counters: Optional[PerfCounters] = None,
) -> Tuple[Optional[List[int]], float, bool]:
    """One Prim growth from ``seed``; returns (best prefix, cut, in window)."""
    inside_count: Dict[int, int] = {}
    cut_capacity = 0.0
    region: List[int] = []
    region_size = 0.0

    best_cut = math.inf
    best_len = 0
    found_in_window = False
    fallback_cut = math.inf
    fallback_len = 0

    restart_order = list(candidate_set)
    rng.shuffle(restart_order)

    for node, _cost, _edge in _restricted_prim(
        graph, seed, lengths, candidate_set, restart_order
    ):
        node_size = float(sizes[node])
        if region and region_size + node_size > upper:
            # Adding this node overshoots; with non-unit sizes a later,
            # smaller node could still fit, but Prim order is the paper's
            # growth rule — stop here.
            break
        region.append(node)
        region_size += node_size
        for net_id in hypergraph.incident_nets(node):
            total = counter.block_pins.get(net_id, 0)
            if total <= 1:
                continue
            inside_count[net_id] = inside_count.get(net_id, 0) + 1
            count = inside_count[net_id]
            if count == 1:
                cut_capacity += hypergraph.net_capacity(net_id)
            elif count == total:
                cut_capacity -= hypergraph.net_capacity(net_id)
        if len(region) == len(candidate_set):
            break  # the full block is never a useful cut
        if lower <= region_size <= upper:
            if cut_capacity < best_cut:
                best_cut = cut_capacity
                best_len = len(region)
            found_in_window = True
        elif region_size <= upper and cut_capacity < fallback_cut:
            # Keep the *minimum-cut* under-window prefix, not the last
            # one seen: growth can walk past the best fallback.
            fallback_cut = cut_capacity
            fallback_len = len(region)

    if counters is not None:
        counters.cut_evals += len(region)  # one maintained cut per prefix
    if found_in_window:
        return region[:best_len], best_cut, True
    if fallback_len:
        return region[:fallback_len], fallback_cut, False
    return None, math.inf, False


def _restricted_prim(
    graph: Graph,
    seed: int,
    lengths: Sequence[float],
    candidate_set: Set[int],
    restart_order: List[int],
):
    """Prim growth over the candidate subset only (yields every member)."""
    visited = {v: False for v in candidate_set}
    heap = IndexedHeap()
    heap.push(seed, -math.inf)
    attach_edge = {seed: -1}
    restarts = iter(restart_order)
    yielded = 0
    target = len(candidate_set)
    while yielded < target:
        if not heap:
            jump = next((v for v in restarts if not visited[v]), None)
            if jump is None:
                jump = next(v for v in candidate_set if not visited[v])
            heap.push(jump, -math.inf)
            attach_edge[jump] = -1
        node, cost = heap.pop()
        node = int(node)
        if visited[node]:
            continue
        visited[node] = True
        yielded += 1
        yield node, (
            math.inf if cost == -math.inf else cost
        ), attach_edge[node]
        for neighbor, edge_id in graph.neighbors(node):
            if neighbor not in visited or visited[neighbor]:
                continue
            weight = lengths[edge_id]
            if neighbor not in heap or weight < heap.priority(neighbor):
                heap.push(neighbor, weight)
                attach_edge[neighbor] = edge_id


# ----------------------------------------------------------------------
# Strategy 2: MST subtree cuts (the conclusions' Karger-style refinement)
# ----------------------------------------------------------------------
def _mst_subtree_cut(
    hypergraph: Hypergraph,
    graph: Graph,
    lengths: Sequence[float],
    candidate_set: Set[int],
    lower: float,
    upper: float,
    sizes,
    counter: _BlockCutCounter,
    rng: random.Random,
    max_cut_evals: int,
    counters: Optional[PerfCounters] = None,
) -> Tuple[Optional[List[int]], float]:
    """Best window-sized MST-subtree cut, or (None, inf)."""
    nodes = sorted(candidate_set)
    index_of = {v: i for i, v in enumerate(nodes)}

    # Kruskal over the block with random tie-jitter (each attempt sees a
    # different spanning tree among metric ties).
    block_edges = [
        (float(lengths[edge_id]) * (1.0 + 1e-9 * rng.random()), edge_id)
        for edge_id, (u, v) in enumerate(graph.edges())
        if u in candidate_set and v in candidate_set
    ]
    block_edges.sort()
    dsu = UnionFind(len(nodes))
    adjacency: Dict[int, List[int]] = {v: [] for v in nodes}
    for _weight, edge_id in block_edges:
        u, v = graph.edge(edge_id)
        if dsu.union(index_of[u], index_of[v]):
            adjacency[u].append(v)
            adjacency[v].append(u)

    # Root the forest; iterative DFS gives parents and an order whose
    # reverse accumulates subtree sizes.
    parent: Dict[int, Optional[int]] = {}
    order: List[int] = []
    for root in nodes:
        if root in parent:
            continue
        parent[root] = None
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adjacency[v]:
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
    subtree_size: Dict[int, float] = {v: float(sizes[v]) for v in nodes}
    children: Dict[int, List[int]] = {v: [] for v in nodes}
    for v in reversed(order):
        p = parent[v]
        if p is not None:
            subtree_size[p] += subtree_size[v]
            children[p].append(v)

    candidates = [
        v
        for v in nodes
        if parent[v] is not None and lower <= subtree_size[v] <= upper
    ]
    if not candidates:
        return None, math.inf
    if len(candidates) > max_cut_evals:
        candidates = rng.sample(candidates, max_cut_evals)

    # Evaluate candidate cuts incrementally.  The DFS above is a
    # pre-order, so the subtree of ``v`` is the contiguous slice
    # ``order[tin[v] : tin[v] + tree_count[v]]`` and the candidate
    # intervals form a laminar family: visiting them in ``tin`` order,
    # each transition either swaps disjoint intervals or peels the
    # complement of a nested one, delta-updating the inside pin counts —
    # near O(total pins) instead of one full ``cut_of`` scan per head.
    tin = {v: i for i, v in enumerate(order)}
    tree_count: Dict[int, int] = {v: 1 for v in nodes}
    for v in reversed(order):
        p = parent[v]
        if p is not None:
            tree_count[p] += tree_count[v]

    incident = hypergraph.incident_nets
    net_capacity = hypergraph.net_capacity
    block_pins = counter.block_pins
    inside_count: Dict[int, int] = {}
    cut = 0.0

    def _add(v: int) -> None:
        nonlocal cut
        for net_id in incident(v):
            total = block_pins.get(net_id, 0)
            if total <= 1:
                continue
            count = inside_count.get(net_id, 0) + 1
            inside_count[net_id] = count
            if count == 1:
                cut += net_capacity(net_id)
            elif count == total:
                cut -= net_capacity(net_id)

    def _remove(v: int) -> None:
        nonlocal cut
        for net_id in incident(v):
            total = block_pins.get(net_id, 0)
            if total <= 1:
                continue
            count = inside_count[net_id] - 1
            if count:
                inside_count[net_id] = count
            else:
                del inside_count[net_id]
            if count == total - 1:
                cut += net_capacity(net_id)
            if count == 0:
                cut -= net_capacity(net_id)

    cuts: Dict[int, float] = {}
    cur_l = cur_r = 0  # current interval [cur_l, cur_r) — empty to start
    for head in sorted(candidates, key=tin.__getitem__):
        left = tin[head]
        right = left + tree_count[head]
        if left >= cur_r:
            # Disjoint successor: swap the whole region.
            for i in range(cur_l, cur_r):
                _remove(order[i])
            for i in range(left, right):
                _add(order[i])
        else:
            # Laminarity + tin order make the new interval nested inside
            # the current one: shed the surrounding prefix and suffix.
            for i in range(cur_l, left):
                _remove(order[i])
            for i in range(right, cur_r):
                _remove(order[i])
        cur_l, cur_r = left, right
        cuts[head] = cut
    if counters is not None:
        counters.cut_evals += len(candidates)

    # Select in the original candidate order (strict <) so tie-breaking
    # matches a head-by-head scan.
    best_cut = math.inf
    best_head: Optional[int] = None
    for head in candidates:
        if cuts[head] < best_cut:
            best_cut = cuts[head]
            best_head = head
    if best_head is None:  # pragma: no cover - candidates is non-empty
        return None, math.inf
    best_region: List[int] = []
    stack = [best_head]
    while stack:
        v = stack.pop()
        best_region.append(v)
        stack.extend(children[v])
    return best_region, best_cut


# ----------------------------------------------------------------------
# Algorithm 3 recursion
# ----------------------------------------------------------------------
def _split_block(
    hypergraph: Hypergraph,
    graph: Graph,
    spec: HierarchySpec,
    lengths: Sequence[float],
    nodes: List[int],
    level: int,
    rng: random.Random,
    find_cut_restarts: int,
    strategy: str,
    counters: Optional[PerfCounters],
) -> List[List[int]]:
    """Carve one block into level-``level`` children via ``find_cut``."""
    block_size = sum(graph.node_size(v) for v in nodes)
    lower, upper = spec.child_bounds(level, block_size)
    remaining = list(nodes)
    remaining_size = block_size
    pieces: List[List[int]] = []
    while remaining:
        if remaining_size <= upper:
            pieces.append(remaining)
            break
        piece = find_cut(
            hypergraph,
            graph,
            lengths,
            remaining,
            lower,
            upper,
            rng,
            restarts=find_cut_restarts,
            strategy=strategy,
            counters=counters,
        )
        pieces.append(piece)
        piece_set = set(piece)
        remaining = [v for v in remaining if v not in piece_set]
        remaining_size -= sum(graph.node_size(v) for v in piece)
    return pieces


def _carve_block(
    hypergraph: Hypergraph,
    graph: Graph,
    spec: HierarchySpec,
    lengths: Sequence[float],
    nodes: List[int],
    level: int,
    rng: random.Random,
    find_cut_restarts: int,
    strategy: str,
    counters: Optional[PerfCounters],
):
    """Recursive carve of one block; returns the nested block structure.

    Every child block recurses with an *independent* RNG derived from a
    seed drawn in piece order, so sibling subtrees are pure functions of
    their (piece, seed) pair and never share RNG state.
    """
    if level == 0:
        return list(nodes)
    pieces = _split_block(
        hypergraph,
        graph,
        spec,
        lengths,
        nodes,
        level,
        rng,
        find_cut_restarts,
        strategy,
        counters,
    )
    child_seeds = [rng.randrange(2**31) for _ in pieces]
    return [
        _carve_block(
            hypergraph,
            graph,
            spec,
            lengths,
            piece,
            level - 1,
            random.Random(seed),
            find_cut_restarts,
            strategy,
            counters,
        )
        for piece, seed in zip(pieces, child_seeds)
    ]


def construct_partition(
    hypergraph: Hypergraph,
    graph: Graph,
    spec: HierarchySpec,
    lengths: Sequence[float],
    rng: Optional[random.Random] = None,
    find_cut_restarts: int = 1,
    strategy: str = "both",
    counters: Optional[PerfCounters] = None,
) -> PartitionTree:
    """Algorithm 3: top-down recursive construction of a partition.

    Parameters
    ----------
    hypergraph : Hypergraph
        The netlist whose nets define cut quality.
    graph : Graph
        The net-model expansion carrying the metric; must share node ids
        with ``hypergraph`` (clique or cycle model — star changes the
        node set and is rejected).
    spec : HierarchySpec
        Per-level size/branching bounds.
    lengths : sequence of float
        The spreading metric, indexed by ``graph`` edge id.
    rng : random.Random, optional
        Randomness for ``find_cut`` seeds and tie jitter.  Child blocks
        recurse with independent RNGs derived from seeds drawn in piece
        order, so sibling subtrees never share RNG state.
    find_cut_restarts : int, optional
        Independent attempts per ``find_cut`` strategy.
    strategy : {'both', 'prim', 'mst'}, optional
        The ``find_cut`` strategy (see module docstring).
    counters : PerfCounters, optional
        Instrumentation sink (``cut_evals``).

    Returns
    -------
    PartitionTree
        A frozen partition honouring ``spec``'s size bounds.
    """
    if graph.num_nodes != hypergraph.num_nodes:
        raise PartitionError(
            "graph and hypergraph disagree on the node set (star-expanded "
            "graphs cannot drive construction)"
        )
    nested = _carve_block(
        hypergraph,
        graph,
        spec,
        lengths,
        list(hypergraph.nodes()),
        spec.num_levels,
        rng or random.Random(0),
        find_cut_restarts,
        strategy,
        counters,
    )
    return PartitionTree.from_nested(nested, num_nodes=hypergraph.num_nodes)

"""Algorithm 3: constructing a partition from a spreading metric.

Two ``find_cut`` strategies are provided:

* ``'prim'`` — the paper's Algorithm 3 verbatim: grow a region from a
  random seed by Prim's minimum-attachment rule under the metric lengths,
  record the hypergraph cut of every prefix, return the best prefix whose
  size lies in ``[LB, UB]``.
* ``'mst'`` — the refinement the paper's conclusions propose (after
  Karger [7]: "find a minimum cut from a minimum spanning tree"): build
  the minimum spanning forest of the block under the metric, consider
  every subtree whose size lands in the window as a candidate region, and
  return the one with minimum hypergraph cut.  Subtrees of the metric MST
  are exactly the clusters the metric separates, so this dominates greedy
  prefix growth in practice.

``'both'`` (the default used by FLOW) evaluates the two and keeps the
better cut.  Cut quality is always evaluated on the *original hypergraph*
(a net is cut when it has pins both inside and outside the region), while
distances come from the graph the metric was computed on — the two share
node ids.

Each ``find_cut`` call builds one block context (:class:`_Block`) that
both strategies and every restart share: the block's nodes sorted by id
with their local indices and sizes, each node's nets that have more than
one pin in the block with those nets' block pin counts, and the block's
edges in edge-id order, read from the adjacency lists rather than from
a scan of every graph edge.  Restarts then work on lists indexed by
local node: an MST restart jitters and sorts the shared edge list, runs
Kruskal on a list union-find until ``n - 1`` edges are in, and roots the
forest; a Prim restart runs :func:`_grow`, the one Prim routine (the
ratio-cut sweep of :mod:`repro.core.ratio_cut` uses it too).  Prim pops
equal lengths in the order the :class:`~repro.algorithms.heap.IndexedHeap`
tie rule gives, so growth order among ties is fixed.

None of this changes an answer: the random draws happen in the same
order (one ``random()`` per block edge in edge-id order per MST restart,
``sample`` past ``max_cut_evals``, ``choice`` then ``shuffle`` per Prim
restart, then the child seeds), and sizes and cuts are summed in the
same order, so trees, costs and ``cut_evals`` match the plain form kept
in ``tests/reference/construct.py`` bit for bit.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithms.heap import IndexedHeap
from repro.core.perf import PerfCounters
from repro.errors import InfeasibleError, PartitionError
from repro.htp.hierarchy import HierarchySpec
from repro.htp.partition import PartitionTree
from repro.hypergraph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph

#: Cap on the number of MST subtree candidates whose cut is evaluated.
DEFAULT_MAX_CUT_EVALS = 64

_STRATEGIES = ("prim", "mst", "both")


class _Block:
    """What every restart of one ``find_cut`` call reads about its block.

    Indices are *local*: positions in ``nodes``, the block sorted by id.
    ``nets[i]`` lists, in incidence order, the local ids of node ``i``'s
    nets that have more than one pin in the block (a net with one block
    pin is never cut by a region of the block); ``net_pins`` and
    ``net_capacity`` give each such net's block pin count and ``c(e)``.
    ``adjacent[i]`` holds node ``i``'s ``(neighbour, length)`` pairs in
    the order of ``graph.neighbors``, and ``edges`` the block's
    ``(u, v, length)`` edges (``u < v``) in edge-id order.
    """

    __slots__ = (
        "nodes", "index_of", "sizes", "nets", "net_pins", "net_capacity",
        "adjacent", "edges",
    )

    def __init__(
        self,
        hypergraph: Hypergraph,
        graph: Graph,
        lengths: Sequence[float],
        candidate_set: Set[int],
    ) -> None:
        nodes = sorted(candidate_set)
        index_of = {v: i for i, v in enumerate(nodes)}
        incident = [hypergraph.incident_nets(v) for v in nodes]
        capacities = hypergraph.net_capacities()
        local_net: Dict[int, int] = {}
        net_pins: List[int] = []
        net_capacity: List[float] = []
        for net_id, count in Counter(chain.from_iterable(incident)).items():
            if count > 1:
                local_net[net_id] = len(net_pins)
                net_pins.append(count)
                net_capacity.append(capacities[net_id])
        node_nets: List[List[int]] = []
        for nets in incident:
            row = []
            for net_id in nets:
                net = local_net.get(net_id)
                if net is not None:
                    row.append(net)
            node_nets.append(row)

        # ``Graph`` sorts its edges by (u, v) and fills adjacency in
        # edge-id order, so every adjacency row is sorted by neighbour:
        # the sorted nodes' higher-id neighbours come in edge-id order.
        adjacent: List[List[Tuple[int, float]]] = []
        edges: List[Tuple[int, int, float]] = []
        for i, v in enumerate(nodes):
            row = []
            for w, edge_id in graph.neighbors(v):
                j = index_of.get(w)
                if j is not None:
                    length = float(lengths[edge_id])
                    row.append((j, length))
                    if j > i:
                        edges.append((i, j, length))
            adjacent.append(row)

        self.nodes = nodes
        self.index_of = index_of
        self.sizes: List[float] = graph.node_sizes()[nodes].tolist()
        self.nets = node_nets
        self.net_pins = net_pins
        self.net_capacity = net_capacity
        self.adjacent = adjacent
        self.edges = edges


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
    # The set's iteration order feeds ``choice``, ``shuffle`` and the
    # last resort below, so it is built from ``candidates`` as given.
    candidate_set = set(candidates)
    if not candidate_set:
        raise PartitionError("find_cut called with no candidate nodes")
    block = _Block(hypergraph, graph, lengths, candidate_set)

    best_cut = math.inf
    best_region: Optional[List[int]] = None
    fallback_cut = math.inf
    fallback_region: Optional[List[int]] = None

    attempts = max(1, restarts)
    if strategy in ("mst", "both"):
        for _attempt in range(attempts):
            region, cut = _mst_subtree_cut(
                block, lower, upper, rng, max_cut_evals, counters
            )
            if region is not None and cut < best_cut:
                best_cut = cut
                best_region = region
    if strategy in ("prim", "both"):
        members = tuple(candidate_set)
        for _attempt in range(attempts):
            seed = rng.choice(members)
            restart_order = list(members)
            rng.shuffle(restart_order)
            region, cut, in_window = _prim_window_cut(
                block, lower, upper, seed, restart_order, counters
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
    sizes = graph.node_sizes()
    fitting = [v for v in candidate_set if sizes[v] <= upper + 1e-9]
    if not fitting:
        raise InfeasibleError(
            f"no node of the block fits under the size bound {upper}"
        )
    return [max(fitting, key=lambda v: sizes[v])]


# ----------------------------------------------------------------------
# Strategy 1: Prim prefix growth (Algorithm 3 verbatim)
# ----------------------------------------------------------------------
def _grow(
    block: _Block,
    seed: int,
    restart_order: Sequence[int],
    limit: float,
) -> Tuple[List[int], List[float], List[float]]:
    """Prim growth over the block from local node ``seed``.

    Returns ``(region, sizes, cuts)``: the local nodes in the order they
    joined, and the size and hypergraph cut capacity of each prefix
    (``sizes[t]`` and ``cuts[t]`` describe ``region[:t + 1]``).  Growth
    stops before a node that would take a non-empty region over
    ``limit`` (its neighbours are never relaxed) or once the whole block
    has joined.  When the frontier empties, growth jumps to the next
    unvisited node of ``restart_order`` (global ids).
    """
    index_of = block.index_of
    node_sizes = block.sizes
    node_nets = block.nets
    net_pins = block.net_pins
    net_capacity = block.net_capacity
    adjacent = block.adjacent
    total = len(node_sizes)
    visited = [False] * total
    inside = [0] * len(net_pins)
    heap = IndexedHeap()
    push = heap.push
    pop = heap.pop
    push(seed, -math.inf)
    jumps = iter(restart_order)
    region: List[int] = []
    sizes: List[float] = []
    cuts: List[float] = []
    size = 0.0
    cut = 0.0
    while True:
        try:
            node = pop()[0]
        except IndexError:  # the frontier is empty: jump
            node = next(
                index_of[v] for v in jumps if not visited[index_of[v]]
            )
        node_size = node_sizes[node]
        if region and size + node_size > limit:
            # Prim order is the paper's growth rule: a later, smaller
            # node might still fit, but growth stops here.
            break
        visited[node] = True
        region.append(node)
        size += node_size
        for net in node_nets[node]:
            count = inside[net] + 1
            inside[net] = count
            if count == 1:
                cut += net_capacity[net]
            elif count == net_pins[net]:
                cut -= net_capacity[net]
        sizes.append(size)
        cuts.append(cut)
        if len(region) == total:
            break
        for neighbour, length in adjacent[node]:
            if not visited[neighbour]:
                push(neighbour, length)
    return region, sizes, cuts


def _prim_window_cut(
    block: _Block,
    lower: float,
    upper: float,
    seed: int,
    restart_order: Sequence[int],
    counters: Optional[PerfCounters] = None,
) -> Tuple[Optional[List[int]], float, bool]:
    """One Prim growth from ``seed``; returns (best prefix, cut, in window)."""
    region, sizes, cuts = _grow(
        block, block.index_of[seed], restart_order, upper
    )
    if counters is not None:
        counters.cut_evals += len(region)  # one maintained cut per prefix
    prefixes = len(region)
    if prefixes == len(block.nodes):
        prefixes -= 1  # the full block is never a useful cut
    best_cut = math.inf
    best_len = 0
    found_in_window = False
    fallback_cut = math.inf
    fallback_len = 0
    for t in range(prefixes):
        size = sizes[t]
        cut = cuts[t]
        if lower <= size <= upper:
            if cut < best_cut:
                best_cut = cut
                best_len = t + 1
            found_in_window = True
        elif size <= upper and cut < fallback_cut:
            # Keep the *minimum-cut* under-window prefix, not the last
            # one seen: growth can walk past the best fallback.
            fallback_cut = cut
            fallback_len = t + 1
    nodes = block.nodes
    if found_in_window:
        return [nodes[v] for v in region[:best_len]], best_cut, True
    if fallback_len:
        return [nodes[v] for v in region[:fallback_len]], fallback_cut, False
    return None, math.inf, False


# ----------------------------------------------------------------------
# Strategy 2: MST subtree cuts (the conclusions' Karger-style refinement)
# ----------------------------------------------------------------------
def _mst_subtree_cut(
    block: _Block,
    lower: float,
    upper: float,
    rng: random.Random,
    max_cut_evals: int,
    counters: Optional[PerfCounters] = None,
) -> Tuple[Optional[List[int]], float]:
    """Best window-sized MST-subtree cut, or (None, inf)."""
    total = len(block.nodes)
    edges = block.edges

    # Kruskal over the block with random tie-jitter (each attempt sees a
    # different spanning tree among metric ties): one draw per block
    # edge in edge-id order; the stable sort breaks weight ties by id.
    draw = rng.random
    weights = [length * (1.0 + 1e-9 * draw()) for _u, _v, length in edges]
    root = list(range(total))
    tree: List[List[int]] = [[] for _ in range(total)]
    missing = total - 1
    for edge in sorted(range(len(weights)), key=weights.__getitem__):
        if not missing:
            break  # a spanning tree: every later edge closes a cycle
        u, v, _length = edges[edge]
        a = u
        while root[a] != a:
            root[a] = root[root[a]]  # path halving
            a = root[a]
        b = v
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a == b:
            continue
        root[a] = b
        tree[u].append(v)
        tree[v].append(u)
        missing -= 1

    # Root the forest; iterative DFS gives parents and a pre-order whose
    # reverse accumulates subtree sizes and node counts.
    parent = [-2] * total  # -2: not reached yet, -1: a root
    order: List[int] = []
    for start in range(total):
        if parent[start] != -2:
            continue
        parent[start] = -1
        stack = [start]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in tree[v]:
                if parent[u] == -2:
                    parent[u] = v
                    stack.append(u)
    subtree_size = list(block.sizes)
    tree_count = [1] * total
    children: List[List[int]] = [[] for _ in range(total)]
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            subtree_size[p] += subtree_size[v]
            tree_count[p] += tree_count[v]
            children[p].append(v)

    candidates = [
        v
        for v in range(total)
        if parent[v] >= 0 and lower <= subtree_size[v] <= upper
    ]
    if not candidates:
        return None, math.inf
    if len(candidates) > max_cut_evals:
        candidates = rng.sample(candidates, max_cut_evals)

    # Evaluate candidate cuts incrementally.  The subtree of ``v`` is
    # the contiguous pre-order slice ``order[tin[v] : tin[v] +
    # tree_count[v]]`` and the candidate intervals form a laminar
    # family: visiting them in ``tin`` order, each transition either
    # swaps disjoint intervals or peels the complement of a nested one,
    # delta-updating the inside pin counts — near O(total pins) instead
    # of one full cut scan per head.
    tin = [0] * total
    for position, v in enumerate(order):
        tin[v] = position
    node_nets = block.nets
    net_pins = block.net_pins
    net_capacity = block.net_capacity
    inside = [0] * len(net_pins)
    cut = 0.0
    cuts: Dict[int, float] = {}
    cur_l = cur_r = 0  # current interval [cur_l, cur_r) — empty to start
    for head in sorted(candidates, key=tin.__getitem__):
        left = tin[head]
        right = left + tree_count[head]
        if left >= cur_r:
            # Disjoint successor: swap the whole region.
            leaving = order[cur_l:cur_r]
            entering = order[left:right]
        else:
            # Laminarity + tin order make the new interval nested inside
            # the current one: shed the surrounding prefix and suffix.
            leaving = order[cur_l:left] + order[right:cur_r]
            entering = []
        for v in leaving:
            for net in node_nets[v]:
                count = inside[net] - 1
                inside[net] = count
                if count == net_pins[net] - 1:
                    cut += net_capacity[net]
                elif count == 0:
                    cut -= net_capacity[net]
        for v in entering:
            for net in node_nets[v]:
                count = inside[net] + 1
                inside[net] = count
                if count == 1:
                    cut += net_capacity[net]
                elif count == net_pins[net]:
                    cut -= net_capacity[net]
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
    nodes = block.nodes
    best_region: List[int] = []
    stack = [best_head]
    while stack:
        v = stack.pop()
        best_region.append(nodes[v])
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
    sizes = graph.node_sizes()
    block_size = sum(sizes[nodes].tolist())
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
        remaining_size -= sum(sizes[piece].tolist())
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

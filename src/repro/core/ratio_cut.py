"""Ratio cuts via stochastic flow injection (refs [10][17]).

The paper's direct ancestors — Lang & Rao's near-optimal cut search and
Yeh, Cheng & Lin's stochastic flow injection — target the *ratio cut*
objective ``cut(A, B) / (s(A) * s(B))``, which needs no explicit size
constraints.  This module closes the loop: it reuses the spreading-metric
engine (with a balanced single-level bound) to produce edge lengths and
sweeps MST-subtree / Prim-growth prefixes for the best ratio, plus an
exact exponential-time reference for small instances.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.construct import _Block, _grow
from repro.core.separator import separator_spec
from repro.core.spreading_metric import (
    SpreadingMetricConfig,
    compute_spreading_metric,
)
from repro.errors import PartitionError
from repro.hypergraph.expansion import to_graph
from repro.hypergraph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph


@dataclass
class RatioCutResult:
    """A bipartition and its ratio-cut objective value."""

    side: List[int]
    cut_capacity: float
    ratio: float


def ratio_cut_value(
    hypergraph: Hypergraph, side: Sequence[int]
) -> Tuple[float, float]:
    """``(cut_capacity, ratio)`` of the bipartition (side, rest)."""
    side_set = set(side)
    size_a = hypergraph.total_size(side_set)
    size_b = hypergraph.total_size() - size_a
    if size_a <= 0 or size_b <= 0:
        raise PartitionError("ratio cut needs two non-empty sides")
    cut = hypergraph.cut_capacity(side_set)
    return cut, cut / (size_a * size_b)


def ratio_cut(
    hypergraph: Hypergraph,
    graph: Optional[Graph] = None,
    lengths: Optional[Sequence[float]] = None,
    rng: Optional[random.Random] = None,
    restarts: int = 4,
    metric_config: Optional[SpreadingMetricConfig] = None,
) -> RatioCutResult:
    """Heuristic minimum ratio cut by metric-guided prefix sweeps.

    Computes a spreading metric (balanced single-level bound) when
    ``lengths`` is not given, then grows Prim prefixes from ``restarts``
    random seeds, scoring *every* prefix by the ratio objective.
    """
    rng = rng or random.Random(0)
    if graph is None:
        graph = to_graph(hypergraph)
    if hypergraph.num_nodes < 2:
        raise PartitionError("ratio cut needs at least two nodes")
    if lengths is None:
        spec = separator_spec(hypergraph.total_size(), rho=0.5)
        metric = compute_spreading_metric(
            graph,
            spec,
            metric_config or SpreadingMetricConfig(),
            rng=rng,
        )
        lengths = metric.lengths

    total = hypergraph.total_size()
    candidate_set = set(hypergraph.nodes())
    block = _Block(hypergraph, graph, lengths, candidate_set)
    best: Optional[RatioCutResult] = None

    for _attempt in range(max(1, restarts)):
        seed = rng.randrange(hypergraph.num_nodes)
        restart_order = list(candidate_set)
        rng.shuffle(restart_order)
        # The block is the whole netlist, so local ids are node ids.
        region, _sizes, cuts = _grow(block, seed, restart_order, math.inf)
        size = 0.0
        # Every proper prefix; the last one is the whole netlist.
        for prefix, (node, cut) in enumerate(zip(region[:-1], cuts), 1):
            size += hypergraph.node_size(node)
            other = total - size
            if other <= 0:
                break
            ratio = cut / (size * other)
            if best is None or ratio < best.ratio:
                best = RatioCutResult(
                    side=sorted(region[:prefix]),
                    cut_capacity=cut,
                    ratio=ratio,
                )
    assert best is not None
    return best


def exact_ratio_cut(hypergraph: Hypergraph) -> RatioCutResult:
    """Exact minimum ratio cut by exhaustive search (n <= 16)."""
    n = hypergraph.num_nodes
    if n > 16:
        raise PartitionError("exact ratio cut is exponential; n <= 16 only")
    best: Optional[RatioCutResult] = None
    nodes = list(range(n))
    # enumerate subsets containing node 0 (canonical side)
    for size in range(1, n):
        for side in itertools.combinations(nodes[1:], size - 1):
            subset = (0,) + side
            cut, ratio = ratio_cut_value(hypergraph, subset)
            if best is None or ratio < best.ratio:
                best = RatioCutResult(
                    side=sorted(subset), cut_capacity=cut, ratio=ratio
                )
    assert best is not None
    return best

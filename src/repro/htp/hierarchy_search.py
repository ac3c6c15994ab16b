"""Searching over hierarchies: the full HTP problem.

The paper frames HTP as finding *both* a hierarchy and a partition:
"Practically, there are many hierarchies into which we can partition a
circuit.  The problem is how to find a hierarchy and a partition so that
the interconnection cost is minimized."  This module enumerates a family
of candidate hierarchies (binary trees over a height range, with a slack
range) and partitions the netlist into each, returning the ranked
outcomes.

Each candidate is a pure function of ``(spec, seed)``.  For the FLOW
algorithm the net-model expansion is built **once** and shared across
every candidate — hierarchy specs change the size bounds, not the graph,
so rebuilding the graph (and its CSR cache) per candidate is pure waste.

Costs across different hierarchies are only comparable when the weights
express a consistent technology; by default each level's weight is 1, so
deeper hierarchies price more cut layers — callers modelling hardware
should pass ``weights_for(height)`` reflecting their actual I/O costs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.flow_htp import FlowHTPConfig, flow_htp
from repro.errors import HierarchyError
from repro.htp.cost import total_cost
from repro.htp.hierarchy import HierarchySpec, binary_hierarchy
from repro.htp.partition import PartitionTree
from repro.htp.validate import partition_violations
from repro.hypergraph.expansion import to_graph
from repro.hypergraph.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioning.rfm import rfm_partition


@dataclass
class HierarchyCandidate:
    """One evaluated hierarchy: spec, partition, cost and runtime."""

    spec: HierarchySpec
    partition: PartitionTree
    cost: float
    height: int
    slack: float
    seconds: float
    valid: bool


def _evaluate_candidate(
    hypergraph: Hypergraph,
    graph: Optional[Graph],
    spec: HierarchySpec,
    algorithm: str,
    config: Optional[FlowHTPConfig],
    seed: int,
    height: int,
    slack: float,
) -> HierarchyCandidate:
    """Partition into one candidate hierarchy and score the result."""
    start = time.perf_counter()
    if algorithm == "flow":
        partition = flow_htp(hypergraph, spec, config, graph=graph).partition
    else:
        partition = rfm_partition(hypergraph, spec, rng=random.Random(seed))
    seconds = time.perf_counter() - start
    cost = total_cost(hypergraph, partition, spec)
    valid = not partition_violations(hypergraph, partition, spec)
    return HierarchyCandidate(
        spec=spec,
        partition=partition,
        cost=cost,
        height=height,
        slack=slack,
        seconds=seconds,
        valid=valid,
    )


def search_hierarchies(
    hypergraph: Hypergraph,
    heights: Sequence[int] = (2, 3, 4),
    slacks: Sequence[float] = (0.10,),
    algorithm: str = "rfm",
    weights_for: Optional[Callable[[int], Sequence[float]]] = None,
    flow_config: Optional[FlowHTPConfig] = None,
    seed: int = 0,
) -> List[HierarchyCandidate]:
    """Partition into every candidate hierarchy; return results by cost.

    Parameters
    ----------
    hypergraph : Hypergraph
        The netlist to partition.
    heights, slacks : sequences
        The candidate grid: one binary hierarchy per (height, slack)
        pair.  Infeasible combinations (e.g. too few nodes for the leaf
        count) are skipped.
    algorithm : {'rfm', 'flow'}
        ``'rfm'`` (fast, default for sweeps) or ``'flow'``.
    weights_for : callable, optional
        ``weights_for(height)`` returning per-level weights.
    flow_config : FlowHTPConfig, optional
        FLOW configuration (``algorithm='flow'`` only).
    seed : int, optional
        Seed for RFM / the default FLOW configuration.

    Returns
    -------
    list of HierarchyCandidate
        Sorted valid-first, then by cost.
    """
    if algorithm not in ("rfm", "flow"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    total = hypergraph.total_size()

    config: Optional[FlowHTPConfig] = None
    flow_graph = None
    if algorithm == "flow":
        config = flow_config or FlowHTPConfig(
            iterations=1, constructions_per_metric=4, seed=seed
        )
        # One expansion for the whole sweep: specs change the size
        # bounds, not the graph, so every candidate shares this graph
        # (and its CSR cache) instead of rebuilding it.  Seeded exactly
        # as flow_htp would internally, so results are unchanged.
        flow_graph = to_graph(
            hypergraph, model=config.net_model, rng=random.Random(config.seed)
        )

    candidates = []
    for height in heights:
        for slack in slacks:
            weights = weights_for(height) if weights_for else None
            try:
                spec = binary_hierarchy(
                    total, height=height, slack=slack, weights=weights
                )
            except HierarchyError:
                continue
            candidates.append(
                _evaluate_candidate(
                    hypergraph,
                    flow_graph,
                    spec,
                    algorithm,
                    config,
                    seed,
                    height,
                    slack,
                )
            )
    candidates.sort(key=lambda c: (not c.valid, c.cost))
    return candidates


def best_hierarchy(
    hypergraph: Hypergraph, **kwargs
) -> HierarchyCandidate:
    """The lowest-cost valid candidate of :func:`search_hierarchies`."""
    candidates = search_hierarchies(hypergraph, **kwargs)
    for candidate in candidates:
        if candidate.valid:
            return candidate
    raise HierarchyError("no candidate hierarchy produced a valid partition")

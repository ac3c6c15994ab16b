"""Hierarchical interconnection cost (Equation 1 of the paper).

``span(e, l)`` is the number of level-``l`` blocks containing pins of net
``e`` — defined as 0 when the net is internal to one block.  The net cost
is ``cost(e) = sum_{l=0}^{L-1} w_l * span(e, l) * c(e)`` and the partition
cost is the sum over nets.

:class:`IncrementalCost` maintains per-net, per-level block pin counts so
that FM-style node moves can be gained and applied in
O(degree * L) instead of re-evaluating the whole netlist.
"""

from __future__ import annotations

from typing import Dict, List

from repro.htp.hierarchy import HierarchySpec
from repro.htp.partition import PartitionTree
from repro.hypergraph.hypergraph import Hypergraph


def net_span(
    hypergraph: Hypergraph,
    partition: PartitionTree,
    net_id: int,
    level: int,
) -> int:
    """``span(e, l)``: blocks at ``level`` touched by net ``net_id`` (0 if 1)."""
    blocks = {
        partition.block_at_level(v, level) for v in hypergraph.net(net_id)
    }
    return 0 if len(blocks) <= 1 else len(blocks)


def net_cost(
    hypergraph: Hypergraph,
    partition: PartitionTree,
    spec: HierarchySpec,
    net_id: int,
) -> float:
    """``cost(e)`` of Equation (1) for one net."""
    capacity = hypergraph.net_capacity(net_id)
    total = 0.0
    for level in range(spec.num_levels):
        total += spec.weight(level) * net_span(
            hypergraph, partition, net_id, level
        )
    return total * capacity


def total_cost(
    hypergraph: Hypergraph,
    partition: PartitionTree,
    spec: HierarchySpec,
) -> float:
    """Total interconnection cost ``sum_e cost(e)`` of a partition.

    Bit-identical to summing :func:`net_cost` over the nets in id order:
    each net's cost is built in the same order (``total = 0.0``, then
    ``total += w_l * span_l`` level by level, then ``total * c(e)``),
    but every node's ancestor chain is fetched once instead of one
    :meth:`~repro.htp.partition.PartitionTree.block_at_level` call per
    pin per level.  A net held by one block at some level is held by
    one block at every level above it, so its spans there are 0.
    """
    weights = [spec.weight(level) for level in range(spec.num_levels)]
    chains = [
        partition.ancestor_chain(partition.leaf_of(v))
        for v in range(hypergraph.num_nodes)
    ]
    capacities = hypergraph.net_capacities()
    costs: List[float] = []
    for net_id, pins in enumerate(hypergraph.nets()):
        pin_chains = [chains[v] for v in pins]
        total = 0.0
        span = 0
        for level, weight in enumerate(weights):
            if level == 0 or span:
                blocks = len({chain[level] for chain in pin_chains})
                span = blocks if blocks > 1 else 0
            total += weight * span
        costs.append(total * capacities[net_id])
    return sum(costs)


def induced_metric(
    hypergraph: Hypergraph,
    partition: PartitionTree,
    spec: HierarchySpec,
) -> List[float]:
    """The spreading metric a partition induces: ``d(e) = cost(e) / c(e)``.

    This is the construction of Lemma 1; feasibility of the result in the
    linear program (P1) is what the lemma asserts.
    """
    return [
        net_cost(hypergraph, partition, spec, net_id)
        / hypergraph.net_capacity(net_id)
        for net_id in range(hypergraph.num_nets)
    ]


def _span_of_count(distinct_blocks: int) -> int:
    """Map a distinct-block count to the paper's span value."""
    return 0 if distinct_blocks <= 1 else distinct_blocks


class IncrementalCost:
    """Incrementally maintained hierarchical cost under node moves.

    Keeps, for every net and level ``0..L-1``, the pin count per block, and
    the current total cost.  ``gain(node, target_leaf)`` prices a move
    without applying it; ``apply(node, target_leaf)`` performs it and
    updates both this structure and the partition tree.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        partition: PartitionTree,
        spec: HierarchySpec,
    ) -> None:
        self._hypergraph = hypergraph
        self._partition = partition
        self._spec = spec
        self._levels = spec.num_levels
        # _counts[net_id][level] : {block_id: pin_count}
        self._counts: List[List[Dict[int, int]]] = []
        self._cost = 0.0
        for net_id in range(hypergraph.num_nets):
            per_level: List[Dict[int, int]] = []
            capacity = hypergraph.net_capacity(net_id)
            for level in range(self._levels):
                counter: Dict[int, int] = {}
                for v in hypergraph.net(net_id):
                    block = partition.block_at_level(v, level)
                    counter[block] = counter.get(block, 0) + 1
                per_level.append(counter)
                self._cost += (
                    spec.weight(level) * _span_of_count(len(counter)) * capacity
                )
            self._counts.append(per_level)

    @property
    def cost(self) -> float:
        """Current total cost."""
        return self._cost

    @property
    def partition(self) -> PartitionTree:
        """The partition tree being tracked."""
        return self._partition

    def gain(self, node: int, target_leaf: int) -> float:
        """Cost *decrease* if ``node`` moved to ``target_leaf`` (may be < 0)."""
        return -self._move_delta(node, target_leaf, apply_move=False)

    def apply(self, node: int, target_leaf: int) -> float:
        """Move ``node``; returns the realised gain (cost decrease)."""
        delta = self._move_delta(node, target_leaf, apply_move=True)
        self._cost += delta
        self._partition.move(node, target_leaf)
        return -delta

    def recompute(self) -> float:
        """Full recomputation (validation aid); returns the exact cost."""
        return total_cost(self._hypergraph, self._partition, self._spec)

    # ------------------------------------------------------------------
    def _move_delta(
        self, node: int, target_leaf: int, apply_move: bool
    ) -> float:
        """Signed cost change of moving ``node`` to ``target_leaf``."""
        partition = self._partition
        spec = self._spec
        source_chain = partition.ancestor_chain(partition.leaf_of(node))
        target_chain = partition.ancestor_chain(target_leaf)
        delta = 0.0
        for net_id in self._hypergraph.incident_nets(node):
            capacity = self._hypergraph.net_capacity(net_id)
            per_level = self._counts[net_id]
            for level in range(self._levels):
                old_block = source_chain[level]
                new_block = target_chain[level]
                if old_block == new_block:
                    continue
                counter = per_level[level]
                old_span = _span_of_count(len(counter))
                old_count = counter[old_block]
                new_distinct = len(counter)
                if old_count == 1:
                    new_distinct -= 1
                if new_block not in counter:
                    new_distinct += 1
                new_span = _span_of_count(new_distinct)
                delta += spec.weight(level) * (new_span - old_span) * capacity
                if apply_move:
                    if old_count == 1:
                        del counter[old_block]
                    else:
                        counter[old_block] = old_count - 1
                    counter[new_block] = counter.get(new_block, 0) + 1
        return delta

"""The optimised Algorithm 3 hot paths against their plain references.

``find_cut``/``construct_partition`` (one block context per call, list
union-find Kruskal, a single Prim routine), the hole-sifting
``IndexedHeap`` and the ancestor-chain ``total_cost`` must give the
answers of the straightforward forms kept in :mod:`tests.reference`:
the same lists, trees and heap arrays, bit-identical float costs, and
the same RNG state afterwards (so every later draw matches too).
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.heap import IndexedHeap
from repro.core import construct
from repro.core.construct import construct_partition, find_cut
from repro.htp.cost import total_cost
from repro.htp.hierarchy import HierarchySpec
from repro.htp.partition import PartitionTree
from repro.hypergraph.expansion import to_graph
from repro.hypergraph.hypergraph import Hypergraph
from tests.reference import construct as reference_construct
from tests.reference.cost import total_cost as reference_total_cost
from tests.reference.heap import IndexedHeap as ReferenceHeap

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Few distinct values, so equal lengths (Kruskal and Prim ties) and
# equal priorities (heap ties) are common.
_TIED = [0.25, 0.5, 1.0, 1.0, 2.0]


@st.composite
def netlists(draw):
    """Small netlists, often disconnected, with unit or mixed sizes.

    Returns ``(hypergraph, graph, lengths)``; ``lengths`` holds one
    value per graph edge, drawn from a tied set or continuous.
    """
    n = draw(st.integers(min_value=2, max_value=22))
    nets = draw(
        st.lists(
            st.lists(
                st.integers(0, n - 1), min_size=2, max_size=4, unique=True
            ),
            min_size=1,
            max_size=2 * n,
        )
    )
    mixed = draw(st.booleans())
    sizes = (
        draw(
            st.lists(
                st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0]),
                min_size=n,
                max_size=n,
            )
        )
        if mixed
        else None
    )
    capacities = draw(
        st.lists(
            st.sampled_from([1.0, 0.5, 2.25, 0.1, 0.3, 0.7, 1 / 3]),
            min_size=len(nets),
            max_size=len(nets),
        )
    )
    hypergraph = Hypergraph(
        n, nets, node_sizes=sizes, net_capacities=capacities
    )
    model = draw(st.sampled_from(["clique", "cycle"]))
    graph = to_graph(hypergraph, model=model, rng=random.Random(0))
    if draw(st.booleans()):
        lengths = draw(
            st.lists(
                st.sampled_from(_TIED),
                min_size=graph.num_edges,
                max_size=graph.num_edges,
            )
        )
    else:
        lengths = draw(
            st.lists(
                st.floats(0.01, 10.0),
                min_size=graph.num_edges,
                max_size=graph.num_edges,
            )
        )
    return hypergraph, graph, lengths


def _outcome(call):
    """``call()``'s value, or its exception's type and message."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        return type(exc).__name__, str(exc)


@given(
    instance=netlists(),
    data=st.data(),
    strategy=st.sampled_from(["prim", "mst", "both"]),
    restarts=st.integers(1, 3),
    max_cut_evals=st.sampled_from([1, 2, 64]),
    as_array=st.booleans(),
    seed=st.integers(0, 2**16),
)
@_SETTINGS
def test_find_cut_matches_reference(
    instance, data, strategy, restarts, max_cut_evals, as_array, seed
):
    """Same region list, same exception and same RNG state afterwards.

    Windows range from roomy to impossible, so the fallback prefix, the
    single-node last resort and ``InfeasibleError`` are all reached.
    """
    hypergraph, graph, lengths = instance
    if as_array:
        lengths = np.asarray(lengths, dtype=float)
    n = hypergraph.num_nodes
    candidates = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    block_size = sum(hypergraph.node_size(v) for v in candidates)
    upper = data.draw(st.floats(0.25, max(0.25, block_size)))
    lower = data.draw(st.floats(0.0, block_size + 1.0))
    ours, theirs = random.Random(seed), random.Random(seed)

    def run(cut, rng):
        return cut(
            hypergraph, graph, lengths, candidates, lower, upper, rng,
            restarts=restarts, strategy=strategy,
            max_cut_evals=max_cut_evals,
        )

    assert _outcome(lambda: run(find_cut, ours)) == _outcome(
        lambda: run(reference_construct.find_cut, theirs)
    )
    assert ours.getstate() == theirs.getstate()


@given(
    instance=netlists(),
    data=st.data(),
    max_cut_evals=st.sampled_from([2, 64]),
    seed=st.integers(0, 2**16),
)
@_SETTINGS
def test_restart_cuts_match_reference(instance, data, max_cut_evals, seed):
    """One MST and one Prim restart: same region and the same cut float.

    ``find_cut`` only compares cuts, so a change in the order the cut is
    summed in could hide behind an unchanged answer; this pins the value.
    """
    hypergraph, graph, lengths = instance
    n = hypergraph.num_nodes
    candidate_set = set(
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    )
    block_size = sum(hypergraph.node_size(v) for v in candidate_set)
    upper = data.draw(st.floats(0.25, max(0.25, block_size)))
    lower = data.draw(st.floats(0.0, upper))
    block = construct._Block(hypergraph, graph, lengths, candidate_set)
    counter = reference_construct._BlockCutCounter(hypergraph, candidate_set)
    sizes = graph.node_sizes()
    ours, theirs = random.Random(seed), random.Random(seed)

    def hexed(region, cut, *rest):
        return (region, cut.hex(), *rest)

    assert hexed(*construct._mst_subtree_cut(
        block, lower, upper, ours, max_cut_evals
    )) == hexed(*reference_construct._mst_subtree_cut(
        hypergraph, graph, lengths, candidate_set, lower, upper, sizes,
        counter, theirs, max_cut_evals,
    ))
    start = ours.choice(tuple(candidate_set))
    assert start == theirs.choice(tuple(candidate_set))
    restart_order = list(candidate_set)
    ours.shuffle(restart_order)
    assert hexed(*construct._prim_window_cut(
        block, lower, upper, start, restart_order
    )) == hexed(*reference_construct._prim_window_cut(
        hypergraph, graph, lengths, candidate_set, lower, upper, start,
        sizes, counter, theirs,
    ))
    assert ours.getstate() == theirs.getstate()


@given(
    instance=netlists(),
    strategy=st.sampled_from(["prim", "mst", "both"]),
    restarts=st.integers(1, 3),
    height=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@_SETTINGS
def test_construct_partition_matches_reference(
    instance, strategy, restarts, height, seed
):
    """The same tree (or the same exception) from the same seed."""
    hypergraph, graph, lengths = instance
    total = hypergraph.total_size()
    spec = HierarchySpec(
        capacities=[
            total * 0.6 ** (height - level) + 2.0 for level in range(height)
        ]
        + [total + 2.0 + height],
        branching=[3] * height,
        weights=[1.0] * height,
    )

    def run(construct):
        tree = construct(
            hypergraph, graph, spec, lengths, rng=random.Random(seed),
            find_cut_restarts=restarts, strategy=strategy,
        )
        return tree.to_dict()

    assert _outcome(lambda: run(construct_partition)) == _outcome(
        lambda: run(reference_construct.construct_partition)
    )


_HEAP_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "decrease", "pop"]),
        st.integers(0, 12),
        st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, -1.0, float("-inf")]),
    ),
    max_size=120,
)


@given(ops=_HEAP_OPS)
@settings(max_examples=300, deadline=None)
def test_heap_matches_swap_reference(ops):
    """Same pops, same return values, same arrays after every step."""
    ours, theirs = IndexedHeap(), ReferenceHeap()
    for op, item, priority in ops:
        if op == "push":
            ours.push(item, priority)
            theirs.push(item, priority)
        elif op == "decrease":
            if item not in theirs:
                continue
            assert ours.decrease(item, priority) == theirs.decrease(
                item, priority
            )
        elif len(theirs):
            assert ours.pop() == theirs.pop()
        assert ours._items == theirs._items
        assert ours._priorities == theirs._priorities
        assert ours._position == theirs._position
        assert len(ours) == len(theirs)
    while len(theirs):
        assert ours.pop() == theirs.pop()
    assert not ours


@st.composite
def nested_blocks(draw, nodes, levels):
    """A random nested block structure of depth ``levels`` over ``nodes``."""
    if levels == 0:
        return list(nodes)
    groups = draw(st.integers(1, 3))
    parts = [[] for _ in range(groups)]
    for v in nodes:
        parts[draw(st.integers(0, groups - 1))].append(v)
    return [draw(nested_blocks(part, levels - 1)) for part in parts]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_total_cost_is_bit_identical(data):
    """Non-integer weights and capacities: the same float, bit for bit."""
    n = data.draw(st.integers(2, 30))
    nets = data.draw(
        st.lists(
            st.lists(
                st.integers(0, n - 1), min_size=2, max_size=6, unique=True
            ),
            min_size=1,
            max_size=40,
        )
    )
    capacities = data.draw(
        st.lists(
            st.floats(0.001, 100.0), min_size=len(nets), max_size=len(nets)
        )
    )
    hypergraph = Hypergraph(n, nets, net_capacities=capacities)
    levels = data.draw(st.integers(1, 4))
    partition = PartitionTree.from_nested(
        data.draw(nested_blocks(range(n), levels)), num_nodes=n
    )
    weights = data.draw(
        st.lists(st.floats(0.0, 10.0), min_size=levels, max_size=levels)
    )
    spec = HierarchySpec(
        capacities=[float(n + level) for level in range(levels + 1)],
        branching=[3] * levels,
        weights=weights,
    )
    assert total_cost(hypergraph, partition, spec).hex() == (
        reference_total_cost(hypergraph, partition, spec).hex()
    )


@pytest.mark.parametrize("strategy", ["prim", "mst", "both"])
def test_c1355_surrogate_trees_and_cut_evals_match(strategy):
    """A full-size surrogate block: same tree and same ``cut_evals``."""
    from repro.core.perf import PerfCounters
    from repro.htp.hierarchy import binary_hierarchy
    from repro.hypergraph.generators import iscas85_surrogate

    hypergraph = iscas85_surrogate("c1355", seed=7, scale=0.5)
    graph = to_graph(hypergraph)
    spec = binary_hierarchy(hypergraph.total_size(), height=3)
    draw = random.Random(7)
    lengths = [draw.choice(_TIED) for _ in range(graph.num_edges)]
    ours, theirs = PerfCounters(), PerfCounters()
    tree = construct_partition(
        hypergraph, graph, spec, lengths, rng=random.Random(3),
        find_cut_restarts=2, strategy=strategy, counters=ours,
    )
    expected = reference_construct.construct_partition(
        hypergraph, graph, spec, lengths, rng=random.Random(3),
        find_cut_restarts=2, strategy=strategy, counters=theirs,
    )
    assert tree.to_dict() == expected.to_dict()
    assert ours.cut_evals == theirs.cut_evals > 0
    assert total_cost(hypergraph, tree, spec).hex() == (
        reference_total_cost(hypergraph, expected, spec).hex()
    )


def test_surrogate_mst_cut_values_match_with_fractional_capacities():
    """Large blocks with fractional capacities: the MST sweep's cut floats.

    On a few hundred nodes the laminar sweep sheds nested prefixes and
    suffixes often, so a change in the order it sums capacities shows up
    in the last bits of the returned cut.
    """
    from repro.hypergraph.generators import iscas85_surrogate

    base = iscas85_surrogate("c1355", seed=5, scale=0.5)
    draw = random.Random(5)
    hypergraph = Hypergraph(
        base.num_nodes,
        base.nets(),
        net_capacities=[
            draw.choice([0.1, 0.3, 0.7, 1 / 3]) for _ in base.nets()
        ],
    )
    graph = to_graph(hypergraph)
    lengths = [draw.choice(_TIED) for _ in range(graph.num_edges)]
    candidate_set = set(hypergraph.nodes())
    block = construct._Block(hypergraph, graph, lengths, candidate_set)
    counter = reference_construct._BlockCutCounter(hypergraph, candidate_set)
    n = hypergraph.num_nodes
    for seed in range(12):
        ours, theirs = random.Random(seed), random.Random(seed)
        region, cut = construct._mst_subtree_cut(
            block, n / 8, n / 2, ours, 64
        )
        expected, expected_cut = reference_construct._mst_subtree_cut(
            hypergraph, graph, lengths, candidate_set, n / 8, n / 2,
            graph.node_sizes(), counter, theirs, 64,
        )
        assert region == expected
        assert cut.hex() == expected_cut.hex()

"""Round-trip tests for the JSON forms of results and partitions.

The service ships :class:`FlowHTPResult` over the wire and through the
content-addressed cache as JSON, so ``to_dict``/``from_dict`` must be a
faithful round trip — including through an actual ``json.dumps`` /
``json.loads`` cycle, which is what the disk blobs and HTTP bodies see.
"""

import json

import pytest

from repro.core.flow_htp import FlowHTPConfig, FlowHTPResult, flow_htp
from repro.core.perf import PerfCounters
from repro.errors import PartitionError
from repro.htp.cost import total_cost
from repro.htp.hierarchy import binary_hierarchy
from repro.htp.partition import PartitionTree
from repro.hypergraph.generators import planted_hierarchy_hypergraph


@pytest.fixture(scope="module")
def solved():
    """A solved instance shared by the result round-trip tests."""
    netlist = planted_hierarchy_hypergraph(48, height=2, seed=2)
    hierarchy = binary_hierarchy(netlist.total_size(), height=2)
    config = FlowHTPConfig(iterations=1, seed=2)
    return netlist, hierarchy, flow_htp(netlist, hierarchy, config)


class TestPartitionTreeRoundTrip:
    def test_round_trip_preserves_assignment(self, solved):
        _netlist, _hierarchy, result = solved
        tree = result.partition
        clone = PartitionTree.from_dict(tree.to_dict())
        assert clone.num_nodes == tree.num_nodes
        assert clone.num_levels == tree.num_levels
        for node in range(tree.num_nodes):
            assert clone.leaf_of(node) == tree.leaf_of(node)

    def test_round_trip_preserves_cost(self, solved):
        netlist, hierarchy, result = solved
        clone = PartitionTree.from_dict(result.partition.to_dict())
        assert (
            total_cost(netlist, clone, hierarchy)
            == total_cost(netlist, result.partition, hierarchy)
        )

    def test_survives_json_text(self, solved):
        tree = solved[2].partition
        text = json.dumps(tree.to_dict())
        clone = PartitionTree.from_dict(json.loads(text))
        assert clone.to_dict() == tree.to_dict()

    def test_from_nested_round_trip(self):
        nested = [[[0, 1], [2, 3]], [[4, 5], [6, 7]]]
        tree = PartitionTree.from_nested(nested, 8)
        assert PartitionTree.from_dict(tree.to_dict()).to_dict() == tree.to_dict()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.pop("vertices"),
            lambda doc: doc.pop("leaf_of"),
            lambda doc: doc.__setitem__("vertices", []),
            lambda doc: doc["vertices"].__setitem__(0, [0, 5]),
            lambda doc: doc.__setitem__("num_nodes", -1),
        ],
    )
    def test_malformed_payload_raises(self, solved, mutate):
        doc = solved[2].partition.to_dict()
        mutate(doc)
        with pytest.raises(PartitionError):
            PartitionTree.from_dict(doc)


class TestFlowHTPResultRoundTrip:
    def test_round_trip_is_bit_identical_json(self, solved):
        _netlist, _hierarchy, result = solved
        doc = result.to_dict()
        clone = FlowHTPResult.from_dict(json.loads(json.dumps(doc)))
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )

    def test_scalar_fields_survive(self, solved):
        _netlist, _hierarchy, result = solved
        clone = FlowHTPResult.from_dict(result.to_dict())
        assert clone.cost == result.cost
        assert clone.iteration_costs == result.iteration_costs
        assert clone.runtime_seconds == result.runtime_seconds

    def test_metric_results_survive(self, solved):
        _netlist, _hierarchy, result = solved
        clone = FlowHTPResult.from_dict(result.to_dict())
        assert len(clone.metric_results) == len(result.metric_results)
        for ours, theirs in zip(clone.metric_results, result.metric_results):
            assert ours.objective == theirs.objective
            assert ours.rounds == theirs.rounds
            assert ours.satisfied == theirs.satisfied

    def test_old_document_with_metric_arrays_loads(self, solved):
        """A cache blob written when results carried per-edge
        ``lengths`` and ``flows`` decodes to the same result."""
        result = solved[2]
        doc = json.loads(json.dumps(result.to_dict()))
        for entry in doc["metric_results"]:
            entry["lengths"] = [0.25, 1.5, 3.0]
            entry["flows"] = [0.001, 0.301, 0.601]
        clone = FlowHTPResult.from_dict(doc)
        assert clone.metric_results == result.metric_results
        assert clone.to_dict() == result.to_dict()

    def test_perf_counters_survive(self, solved):
        _netlist, _hierarchy, result = solved
        assert result.perf is not None
        clone = FlowHTPResult.from_dict(result.to_dict())
        assert clone.perf.as_dict() == result.perf.as_dict()

    def test_malformed_payload_raises(self, solved):
        doc = solved[2].to_dict()
        del doc["partition"]
        with pytest.raises(PartitionError):
            FlowHTPResult.from_dict(doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["metric_results"][0].pop("rounds"),
            lambda doc: doc.__setitem__("perf", "x"),
            lambda doc: doc["partition"]["vertices"][-1].__setitem__(1, 10**6),
        ],
    )
    def test_malformed_field_raises(self, solved, mutate):
        doc = json.loads(json.dumps(solved[2].to_dict()))
        mutate(doc)
        with pytest.raises(PartitionError):
            FlowHTPResult.from_dict(doc)


class TestPerfCountersFromDict:
    def test_round_trip(self):
        counters = PerfCounters()
        counters.dijkstra_calls = 7
        counters.cache_hits = 3
        counters.add_phase("solve", 1.5)
        clone = PerfCounters.from_dict(counters.as_dict())
        assert clone.as_dict() == counters.as_dict()

    def test_tolerates_missing_and_unknown_keys(self):
        clone = PerfCounters.from_dict(
            {"dijkstra_calls": 4, "not_a_counter": 9}
        )
        assert clone.dijkstra_calls == 4
        assert clone.cache_hits == 0

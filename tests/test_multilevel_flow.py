"""The multilevel FLOW V-cycle: invariants, determinism, wiring.

Three layers of guarantees:

* **Coarsening invariants** (Hypothesis) — contraction preserves total
  node weight, maps every net onto its pins' coarse images (net
  membership), and preserves cut capacity under projection.  These are
  the facts that make a :class:`HierarchySpec` stated in absolute sizes
  valid at every level of the V-cycle.
* **Determinism** — ``multilevel-flow`` is bit-identical across runs for
  a fixed seed.
* **Wiring** — the CLI engine flag and the service ``JobSpec`` path both
  reach the V-cycle and return valid, serializable results.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.htp.cost import total_cost
from repro.htp.hierarchy import binary_hierarchy
from repro.htp.validate import partition_violations
from repro.hypergraph import io as hio
from repro.hypergraph.generators import rent_hypergraph, rent_surrogate
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioning.coarsening import (
    CoarseningConfig,
    coarsen,
    contract,
    heavy_edge_matching,
    project_assignment,
)
from repro.partitioning.fm import cut_capacity
from repro.partitioning.multilevel_flow import (
    MultilevelFlowConfig,
    multilevel_flow_htp,
    multilevel_fm_htp,
)
from repro.service.jobs import JobSpec, run_spec


@st.composite
def netlists(draw):
    """Connected netlists with 8..24 nodes, varied sizes and capacities."""
    n = draw(st.integers(min_value=8, max_value=24))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    nets = [(i, i + 1) for i in range(n - 1)]
    for _ in range(draw(st.integers(0, 10))):
        size = rng.randint(2, min(5, n))
        nets.append(tuple(rng.sample(range(n), size)))
    node_sizes = [float(rng.randint(1, 3)) for _ in range(n)]
    net_capacities = [float(rng.randint(1, 4)) for _ in nets]
    return Hypergraph(
        n, nets=nets, node_sizes=node_sizes, net_capacities=net_capacities
    )


class TestCoarseningInvariants:
    @given(netlists(), st.integers(0, 1000))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_contraction_preserves_total_weight(self, h, seed):
        coarse_of = heavy_edge_matching(h, random.Random(seed))
        coarse = contract(h, coarse_of)
        assert coarse.total_size() == pytest.approx(h.total_size())
        # Each coarse node's size is the sum of the fine sizes it absorbed.
        for cv in range(coarse.num_nodes):
            absorbed = sum(
                h.node_size(v)
                for v in range(h.num_nodes)
                if coarse_of[v] == cv
            )
            assert coarse.node_size(cv) == pytest.approx(absorbed)

    @given(netlists(), st.integers(0, 1000))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_contraction_preserves_net_membership(self, h, seed):
        """Every fine net maps onto one coarse net (or became internal),
        and total net capacity is conserved up to internalized nets."""
        coarse_of = heavy_edge_matching(h, random.Random(seed))
        coarse = contract(h, coarse_of)
        coarse_nets = {
            pins: net_id for net_id, pins in enumerate(coarse.nets())
        }
        internal = 0.0
        mapped = {}
        for net_id, pins in enumerate(h.nets()):
            image = tuple(sorted({coarse_of[v] for v in pins}))
            if len(image) < 2:
                internal += h.net_capacity(net_id)
                continue
            assert image in coarse_nets, (
                f"net {net_id} image {image} missing from the coarse nets"
            )
            mapped[image] = mapped.get(image, 0.0) + h.net_capacity(net_id)
        # Parallel fine nets merge by summing capacities, exactly.
        for image, capacity in mapped.items():
            assert coarse.net_capacity(
                coarse_nets[image]
            ) == pytest.approx(capacity)
        total_fine = sum(
            h.net_capacity(i) for i in range(h.num_nets)
        )
        total_coarse = sum(
            coarse.net_capacity(i) for i in range(coarse.num_nets)
        )
        assert total_coarse == pytest.approx(total_fine - internal)

    @given(netlists(), st.integers(0, 1000), st.integers(0, 1000))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_projection_preserves_cut(self, h, seed, part_seed):
        """A projected assignment cuts exactly the capacity the coarse
        assignment cuts — the soundness of uncoarsening."""
        coarse_of = heavy_edge_matching(h, random.Random(seed))
        coarse = contract(h, coarse_of)
        rng = random.Random(part_seed)
        coarse_sides = [rng.randint(0, 1) for _ in range(coarse.num_nodes)]
        fine_sides = project_assignment(coarse_of, coarse_sides)
        assert cut_capacity(coarse, coarse_sides) == pytest.approx(
            cut_capacity(h, fine_sides)
        )

    @given(netlists(), st.integers(0, 1000))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_coarsen_chain_respects_cluster_cap(self, h, seed):
        cap = 2.5 * max(h.node_size(v) for v in range(h.num_nodes))
        levels = coarsen(
            h,
            random.Random(seed),
            CoarseningConfig(
                coarsest_size=2, max_levels=8, max_cluster_size=cap
            ),
        )
        for level in levels:
            coarse = level.hypergraph
            for v in range(coarse.num_nodes):
                # A merge is only taken when the combined size fits the
                # cap, so no cluster can exceed it (single oversized
                # input nodes would be the only exception; the strategy
                # has none).
                assert coarse.node_size(v) <= cap + 1e-9


class TestVCycle:
    def setup_method(self):
        self.h = rent_hypergraph(600, seed=2)
        self.spec = binary_hierarchy(self.h.total_size(), height=3)

    def test_valid_partition_and_cost(self):
        result = multilevel_flow_htp(
            self.h, self.spec, MultilevelFlowConfig(seed=3)
        )
        assert partition_violations(self.h, result.partition, self.spec) == []
        assert result.cost == pytest.approx(
            total_cost(self.h, result.partition, self.spec)
        )
        # iteration_costs ends with the final refined cost.
        assert result.iteration_costs[-1] == pytest.approx(result.cost)

    def test_fm_comparator_valid(self):
        result = multilevel_fm_htp(
            self.h, self.spec, MultilevelFlowConfig(seed=3)
        )
        assert partition_violations(self.h, result.partition, self.spec) == []

    def test_deterministic_across_runs(self):
        a = multilevel_flow_htp(
            self.h, self.spec, MultilevelFlowConfig(seed=5)
        )
        b = multilevel_flow_htp(
            self.h, self.spec, MultilevelFlowConfig(seed=5)
        )
        assert a.cost == b.cost
        assert a.partition.to_dict() == b.partition.to_dict()

    def test_result_round_trips_through_dict(self):
        from repro.core.flow_htp import FlowHTPResult

        result = multilevel_flow_htp(
            self.h, self.spec, MultilevelFlowConfig(seed=3)
        )
        back = FlowHTPResult.from_dict(result.to_dict())
        assert back.cost == result.cost
        assert back.partition.to_dict() == result.partition.to_dict()

    def test_flat_fallback_on_tiny_instance(self):
        """An instance already below the coarsest size runs flat but
        still returns a valid partition."""
        tiny = rent_hypergraph(80, seed=4)
        spec = binary_hierarchy(tiny.total_size(), height=2)
        result = multilevel_flow_htp(tiny, spec, MultilevelFlowConfig(seed=1))
        assert partition_violations(tiny, result.partition, spec) == []

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 1: Algorithm 3 peels any number of pieces per "
            "block, so a coarse FLOW solve can overfill a vertex; the "
            "item 1 fix (pack pieces into K_l children) must flip this"
        ),
    )
    def test_height4_rent10000_seed3011_is_k_feasible(self):
        """The benchmark's multilevel-rent ``--seed 3`` instance 11: the
        returned tree has "vertex 6 at level 1 has 6 children > K_1 = 2"."""
        netlist = rent_hypergraph(10000, seed=3011)
        spec = binary_hierarchy(netlist.total_size(), height=4)
        result = multilevel_flow_htp(
            netlist, spec, MultilevelFlowConfig(seed=11)
        )
        assert result.cost == total_cost(netlist, result.partition, spec)
        assert partition_violations(netlist, result.partition, spec) == []

    def test_rejects_bad_knobs(self):
        from repro.errors import PartitionError

        with pytest.raises(PartitionError):
            MultilevelFlowConfig(refiner="annealing")
        with pytest.raises(PartitionError):
            MultilevelFlowConfig(coarse_solver="hmetis")


class TestGenerators:
    def test_rent_hypergraph_deterministic(self):
        a = rent_hypergraph(500, seed=9)
        b = rent_hypergraph(500, seed=9)
        assert a.nets() == b.nets()
        assert a.net_capacities() == b.net_capacities()
        assert rent_hypergraph(500, seed=10).nets() != a.nets()

    def test_rent_hypergraph_shape(self):
        h = rent_hypergraph(2000, seed=1)
        assert h.num_nodes == 2000
        assert h.num_nets >= 2000  # ~1.06 nets per node
        assert h.total_size() == pytest.approx(2000.0)

    def test_rent_surrogate_scales_iscas(self):
        h = rent_surrogate("c1355", factor=3, seed=0)
        assert h.name == "c1355x3"
        assert h.num_nodes == 3 * 546  # 3x the c1355 surrogate node count

    def test_rent_hypergraph_rejects_bad_args(self):
        from repro.errors import HypergraphError

        with pytest.raises(HypergraphError):
            rent_hypergraph(1)
        with pytest.raises(HypergraphError):
            rent_hypergraph(100, rent_exponent=1.5)
        with pytest.raises(HypergraphError):
            rent_hypergraph(100, leaf_size=1)


class TestWiring:
    def test_cli_partition_multilevel_flow(self, tmp_path, capsys):
        path = tmp_path / "rent.hgr"
        assert (
            main(
                [
                    "generate",
                    str(path),
                    "--kind",
                    "rent",
                    "--nodes",
                    "400",
                    "--seed",
                    "2",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "partition",
                    str(path),
                    "--engine",
                    "multilevel-flow",
                    "--height",
                    "3",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "multilevel-FLOW cost:" in out
        assert "WARNING" not in out

    def test_cli_rejects_checkpoint_dir(self, tmp_path, capsys):
        path = tmp_path / "rent.hgr"
        hio.write_hgr(rent_hypergraph(100, seed=1), path)
        code = main(
            [
                "partition",
                str(path),
                "--engine",
                "multilevel-flow",
                "--checkpoint-dir",
                str(tmp_path / "ckpt"),
            ]
        )
        assert code == 2

    def test_jobspec_round_trip(self):
        h = rent_hypergraph(300, seed=6)
        spec = JobSpec.from_parts(
            h,
            binary_hierarchy(h.total_size(), height=3),
            {"engine": "multilevel-flow", "seed": 2, "refine_passes": 2},
        )
        result = run_spec(spec)
        assert partition_violations(
            h, result.partition, spec.build_hierarchy()
        ) == []
        # The config participates in the canonical hash.
        other = JobSpec.from_parts(
            h,
            binary_hierarchy(h.total_size(), height=3),
            {"engine": "multilevel-flow", "seed": 2, "refine_passes": 3},
        )
        assert spec.canonical_hash() != other.canonical_hash()

    def test_jobspec_rejects_unknown_engine(self):
        from repro.errors import ServiceError

        h = rent_hypergraph(50, seed=0)
        with pytest.raises(ServiceError):
            JobSpec.from_parts(
                h,
                binary_hierarchy(h.total_size(), height=2),
                {"engine": "multilevel"},
            )

    def test_abort_check_honoured(self):
        from repro.errors import SolverAborted

        h = rent_hypergraph(600, seed=2)
        spec = binary_hierarchy(h.total_size(), height=3)
        with pytest.raises(SolverAborted):
            multilevel_flow_htp(
                h,
                spec,
                MultilevelFlowConfig(seed=1),
                abort_check=lambda: "deadline",
            )

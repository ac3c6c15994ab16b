"""The compiled metric kernel tier: bit-identity and fallback.

The contract (see ``docs/architecture.md`` §Engines): ``engine='native'``
is a pure accelerator.  When the C extension is built, every per-source
first-violation verdict — and therefore the whole metric trajectory —
is bit-identical to ``scipy-serial``; when it is not built (or is
disabled via ``REPRO_DISABLE_NATIVE``), the request degrades to the
batched scipy loop with a recorded, counted fallback and the *results
do not change*.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import _kernel as native_kernel
from repro.core.constraints import SpreadingOracle
from repro.core.perf import PerfCounters
from repro.core.spreading_metric import (
    ENGINES,
    SpreadingMetricConfig,
    compute_spreading_metric,
)
from repro.htp.hierarchy import binary_hierarchy
from repro.hypergraph import Hypergraph, planted_hierarchy_hypergraph, to_graph

needs_kernel = pytest.mark.skipif(
    not native_kernel.available(),
    reason="native kernel extension not built in this environment",
)


@pytest.fixture(scope="module")
def instance():
    hypergraph = planted_hierarchy_hypergraph(num_nodes=96, height=3, seed=5)
    spec = binary_hierarchy(hypergraph.total_size(), height=3)
    graph = to_graph(hypergraph, rng=random.Random(0))
    return hypergraph, graph, spec


@pytest.fixture(scope="module")
def sized_instance():
    base = planted_hierarchy_hypergraph(num_nodes=72, height=2, seed=9)
    sized = Hypergraph(
        72,
        nets=base.nets(),
        node_sizes=[1.0 + (v % 3) for v in base.nodes()],
        name="sized",
    )
    spec = binary_hierarchy(sized.total_size(), height=2)
    graph = to_graph(sized, rng=random.Random(0))
    return sized, graph, spec


def _metric(graph, spec, engine, seed, counters=None):
    config = SpreadingMetricConfig(
        delta=0.05, max_rounds=40, engine=engine, seed=seed
    )
    return compute_spreading_metric(
        graph, spec, config, rng=random.Random(seed), counters=counters
    )


def test_native_is_a_registered_engine():
    assert "native" in ENGINES
    with pytest.raises(ValueError):
        SpreadingMetricConfig(engine="navite")


@needs_kernel
class TestKernelBitIdentity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_native_matches_scipy_serial(self, instance, seed):
        _, graph, spec = instance
        baseline = _metric(graph, spec, "scipy-serial", seed)
        result = _metric(graph, spec, "native", seed)
        assert result.lengths.tolist() == baseline.lengths.tolist()
        assert result.flows.tolist() == baseline.flows.tolist()
        assert result.objective == baseline.objective
        assert result.rounds == baseline.rounds
        assert result.injections == baseline.injections

    def test_native_matches_scipy_serial_with_node_sizes(self, sized_instance):
        _, graph, spec = sized_instance
        baseline = _metric(graph, spec, "scipy-serial", seed=2)
        result = _metric(graph, spec, "native", seed=2)
        assert result.lengths.tolist() == baseline.lengths.tolist()
        assert result.objective == baseline.objective

    def test_per_source_verdicts_match_oracle(self, instance):
        """Query-level identity: every Violation field, every source."""
        _, graph, spec = instance
        oracle = SpreadingOracle(graph, spec)
        rng = np.random.default_rng(7)
        lengths = rng.uniform(0.0, 0.3, graph.num_edges)
        lengths[rng.integers(0, graph.num_edges, 20)] = 0.0  # floored path
        oracle.set_lengths(lengths)
        oracle.install_weights()
        kernel = native_kernel.NativeMetricKernel(graph, spec, tol=oracle.tol)
        for source in graph.nodes():
            reference = oracle.violation_for(source, mode="first")
            _settled, got = kernel.check(source)
            assert got == reference

    def test_phase_breakdown_recorded(self, instance):
        _, graph, spec = instance
        counters = PerfCounters()
        _metric(graph, spec, "native", seed=0, counters=counters)
        assert counters.phase_seconds["kernel_seconds"] > 0.0
        assert counters.phase_seconds["python_overhead_seconds"] >= 0.0
        assert counters.native_fallbacks == 0
        assert counters.dijkstra_calls > 0
        assert counters.nodes_settled > 0


class TestDegradation:
    """``--engine native`` must keep working with no compiled extension."""

    def test_env_disable_degrades_to_scipy(self, instance, monkeypatch):
        _, graph, spec = instance
        monkeypatch.setenv(native_kernel.DISABLE_ENV, "1")
        assert not native_kernel.available()
        assert native_kernel.DISABLE_ENV in native_kernel.unavailable_reason()
        baseline_counters = PerfCounters()
        counters = PerfCounters()
        monkeypatch.delenv(native_kernel.DISABLE_ENV)
        baseline = _metric(
            graph, spec, "scipy", seed=1, counters=baseline_counters
        )
        monkeypatch.setenv(native_kernel.DISABLE_ENV, "1")
        result = _metric(graph, spec, "native", seed=1, counters=counters)
        assert result.lengths.tolist() == baseline.lengths.tolist()
        assert result.objective == baseline.objective
        assert counters.native_fallbacks == 1
        record = next(
            r for r in counters.degradations if r["site"] == "native-kernel"
        )
        assert record["action"] == "native-scipy"
        assert native_kernel.DISABLE_ENV in record["cause"]
        # No phase breakdown on the degraded path: the kernel never ran.
        assert "kernel_seconds" not in counters.phase_seconds

    def test_import_failure_degrades_to_scipy(self, instance, monkeypatch):
        """Simulate a box with no compiler: the extension never imported."""
        _, graph, spec = instance
        monkeypatch.delenv(native_kernel.DISABLE_ENV, raising=False)
        monkeypatch.setattr(native_kernel, "_native", None)
        monkeypatch.setattr(
            native_kernel, "_IMPORT_ERROR", "ImportError('no module')"
        )
        assert not native_kernel.available()
        assert "not built" in native_kernel.unavailable_reason()
        counters = PerfCounters()
        baseline = _metric(graph, spec, "scipy", seed=4)
        result = _metric(graph, spec, "native", seed=4, counters=counters)
        assert result.lengths.tolist() == baseline.lengths.tolist()
        assert counters.native_fallbacks == 1


class TestCLI:
    def test_unknown_engine_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "tiny.hgr"
        assert main(["generate", str(path), "--nodes", "16", "--seed", "0"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", str(path), "--engine", "nosuchengine"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_native_engine_accepted(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "tiny.hgr"
        assert main(["generate", str(path), "--nodes", "24", "--seed", "1"]) == 0
        # Works whether or not the extension is built: without it the
        # engine degrades to scipy and the run still succeeds.
        assert main(
            ["partition", str(path), "--engine", "native", "--height", "2",
             "--iterations", "1"]
        ) == 0

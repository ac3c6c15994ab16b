"""Micro-benchmarks of the batched spreading-metric engine.

Times the Algorithm-2 hot paths that the batched/incremental engine
rebuilt — ``compute_spreading_metric`` end to end (batched vs the serial
reference), the batched oracle sweep, and the incremental MST-subtree
cut evaluation — asserting bit-identical results while recording
medians + perf counters for the ``--bench-json`` trajectory
(``BENCH_micro.json`` at the repo root).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_spreading_batch.py \
        -q --bench-json BENCH_micro.json
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np
import pytest

from repro.core.constraints import SpreadingOracle
from repro.core.construct import find_cut
from repro.core.perf import PerfCounters
from repro.core.spreading_metric import (
    SpreadingMetricConfig,
    compute_spreading_metric,
)
from repro.htp.hierarchy import binary_hierarchy
from repro.hypergraph.expansion import to_graph
from repro.hypergraph.generators import iscas85_surrogate
from repro.hypergraph.hypergraph import Hypergraph


def _median_time(fn, repeats: int):
    """Median wall time of ``fn`` over ``repeats`` runs (plus last result)."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


@pytest.fixture(scope="module")
def instance(experiment_config):
    netlist = iscas85_surrogate("c2670", scale=experiment_config.scale)
    spec = binary_hierarchy(netlist.total_size(), height=4)
    graph = to_graph(netlist)
    return netlist, spec, graph


@pytest.mark.parametrize(
    "label,metric_kwargs,repeats",
    [
        ("c2670", {}, 3),
        ("c2670,headline", {"alpha": 0.3, "delta": 0.03, "epsilon": 0.1}, 3),
    ],
)
def test_spreading_metric_batched_vs_serial(
    instance, bench_record, label, metric_kwargs, repeats
):
    """Batched engine vs the serial reference: identical output, timed."""
    _netlist, spec, graph = instance

    last_counters = {}

    def run_batched():
        counters = PerfCounters()
        result = compute_spreading_metric(
            graph,
            spec,
            SpreadingMetricConfig(engine="scipy", **metric_kwargs),
            counters=counters,
        )
        last_counters["value"] = counters
        return result

    batched_s, batched = _median_time(run_batched, repeats)
    serial_s, serial = _median_time(
        lambda: compute_spreading_metric(
            graph,
            spec,
            SpreadingMetricConfig(engine="scipy-serial", **metric_kwargs),
        ),
        repeats,
    )

    assert np.array_equal(batched.lengths, serial.lengths)
    assert np.array_equal(batched.flows, serial.flows)
    assert batched.injections == serial.injections
    assert batched.rounds == serial.rounds
    assert batched.satisfied == serial.satisfied

    bench_record(
        f"compute_spreading_metric[{label}]",
        batched_s,
        serial_seconds=serial_s,
        speedup=serial_s / batched_s,
        counters=last_counters["value"].as_dict(),
    )


def test_spreading_metric_native_vs_scipy(instance, bench_record):
    """Compiled kernel vs both scipy engines: identical output, timed.

    The headline row of the native tier: the fused C kernel answers the
    same per-source first-violation queries as ``scipy-serial`` with an
    early exit at the first violated prefix, recording the
    ``kernel_seconds`` / ``python_overhead_seconds`` phase split.  Skips
    (and leaves no row) when the extension is not built; ``verify.sh``
    logs the same condition as a build SKIP.
    """
    import os
    import sysconfig

    from repro.core import _kernel as native_kernel

    if not native_kernel.available():
        pytest.skip("native kernel extension not built")

    _netlist, spec, graph = instance
    metric_kwargs = {"alpha": 0.3, "delta": 0.03, "epsilon": 0.1}
    last_counters = {}

    def run_native():
        counters = PerfCounters()
        result = compute_spreading_metric(
            graph,
            spec,
            SpreadingMetricConfig(engine="native", **metric_kwargs),
            counters=counters,
        )
        last_counters["value"] = counters
        return result

    native_s, native = _median_time(run_native, 3)
    scipy_s, batched = _median_time(
        lambda: compute_spreading_metric(
            graph,
            spec,
            SpreadingMetricConfig(engine="scipy", **metric_kwargs),
        ),
        3,
    )
    serial_s, serial = _median_time(
        lambda: compute_spreading_metric(
            graph,
            spec,
            SpreadingMetricConfig(engine="scipy-serial", **metric_kwargs),
        ),
        3,
    )

    assert np.array_equal(native.lengths, serial.lengths)
    assert np.array_equal(native.lengths, batched.lengths)
    assert np.array_equal(native.flows, serial.flows)
    assert native.injections == serial.injections
    assert native.rounds == serial.rounds
    assert native.satisfied == serial.satisfied

    counters = last_counters["value"]
    bench_record(
        "compute_spreading_metric[c2670,headline,native]",
        native_s,
        serial_seconds=serial_s,
        scipy_seconds=scipy_s,
        speedup=serial_s / native_s,
        speedup_vs_scipy=scipy_s / native_s,
        cpu_count=os.cpu_count(),
        compiler=sysconfig.get_config_var("CC"),
        phase_seconds=dict(counters.phase_seconds),
        counters=counters.as_dict(),
    )


def test_oracle_batch_sweep(instance, bench_record):
    """One batched sweep over many sources vs one serial call per source."""
    _netlist, spec, graph = instance
    rng = np.random.RandomState(0)
    lengths = rng.uniform(0.01, 1.0, graph.num_edges)
    sources = list(range(min(200, graph.num_nodes)))

    oracle = SpreadingOracle(graph, spec)
    oracle.set_lengths(lengths)
    batched_s, batched = _median_time(
        lambda: oracle.violations_for_batch(sources), 5
    )
    serial_s, serial = _median_time(
        lambda: [oracle.violation_for(v) for v in sources], 5
    )
    assert batched == serial

    bench_record(
        f"oracle_sweep_{len(sources)}_sources[c2670]",
        batched_s,
        serial_seconds=serial_s,
        speedup=serial_s / batched_s,
    )


def test_mst_incremental_nested_candidates(bench_record):
    """Deeply nested subtree candidates — the incremental sweep's O(n) case.

    A path hypergraph makes every suffix a candidate head: the seed's
    per-head ``cut_of`` rescan was O(n^2) here (~1.7 s at n = 3000).
    """
    n = 3000
    netlist = Hypergraph(
        num_nodes=n, nets=[(i, i + 1) for i in range(n - 1)]
    )
    graph = to_graph(netlist)
    lengths = [1.0] * graph.num_edges
    last_counters = {}

    def run():
        counters = PerfCounters()
        region = find_cut(
            netlist,
            graph,
            lengths,
            list(range(n)),
            2.0,
            float(n - 1),
            random.Random(0),
            strategy="mst",
            max_cut_evals=10**6,
            counters=counters,
        )
        last_counters["value"] = counters
        return region

    seconds, region = _median_time(run, 3)
    assert 2 <= len(region) <= n - 1

    bench_record(
        f"find_cut_mst_nested[path{n}]",
        seconds,
        counters=last_counters["value"].as_dict(),
    )

"""Differential fuzzing: every engine must produce bit-identical metrics.

Random small hypergraphs run through the ``scipy-serial``, ``scipy``,
``python`` and ``native`` (when the compiled kernel is built)
spreading-metric engines with the same seed; any disagreement is a
determinism bug — and it would also poison the service cache, whose
content address treats all four engines as one.  On mismatch the instance is shrunk
(dropping nets while the mismatch reproduces) and written to
``tests/regressions/`` as a JSON counterexample, which the
corpus-replay test below then guards forever.

A second cross-check runs ``multilevel-flow`` against flat FLOW on
small Rent instances: both partitions must be feasible and both
engines' reported costs must equal the canonical ``total_cost``
recompute of their own partition.  (The two costs may legitimately
differ from each other — different algorithms — but neither may
mis-report or violate a constraint.)  Counterexamples persist as
``diff_ml_seed*.json`` and replay through the same corpus test,
dispatched by their ``engines`` field.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core import _kernel as native_kernel
from repro.core.spreading_metric import (
    SpreadingMetricConfig,
    compute_spreading_metric,
)
from repro.htp.hierarchy import binary_hierarchy
from repro.hypergraph import Hypergraph
from repro.hypergraph.expansion import to_graph

REGRESSION_DIR = Path(__file__).parent / "regressions"

#: The cross-product, reference first; ``native`` joins when built.
ENGINES = ("scipy-serial", "scipy", "python")


def _random_netlist(seed: int) -> Hypergraph:
    """A connected random netlist with 12..24 nodes."""
    rng = random.Random(seed)
    n = rng.randrange(12, 25)
    nets = [(i, i + 1) for i in range(n - 1)]  # spanning chain
    for _ in range(rng.randrange(4, 14)):
        size = rng.randrange(2, 5)
        pins = rng.sample(range(n), size)
        nets.append(tuple(pins))
    return Hypergraph(n, nets=nets)


def _metric_lengths(netlist: Hypergraph, height: int, seed: int,
                    engine: str) -> np.ndarray:
    spec = binary_hierarchy(
        max(netlist.total_size(), 4), height=height, slack=0.4
    )
    graph = to_graph(netlist, rng=random.Random(seed))
    config = SpreadingMetricConfig(
        delta=0.1,
        max_rounds=20,
        engine=engine,
        seed=seed,
    )
    result = compute_spreading_metric(
        graph, spec, config, rng=random.Random(seed)
    )
    return np.asarray(result.lengths)


def _first_mismatch(netlist: Hypergraph, height: int, seed: int):
    """(engine_pair, message) of the first engine disagreement, or None."""
    runs = list(ENGINES)
    if native_kernel.available():
        # The compiled kernel joins the cross-product wherever it is
        # built; test_native_engine_present_in_cross_product (skip-marked)
        # documents when it is absent.
        runs.append("native")
    reference = None
    reference_name = None
    for name in runs:
        lengths = _metric_lengths(netlist, height, seed, name)
        if reference is None:
            reference, reference_name = lengths, name
            continue
        if not np.array_equal(reference, lengths):
            bad = int(np.flatnonzero(reference != lengths)[0])
            return (
                (reference_name, name),
                f"lengths differ at edge {bad}: "
                f"{reference[bad]!r} vs {lengths[bad]!r}",
            )
    return None


def _shrink(
    netlist: Hypergraph, height: int, seed: int, mismatch_fn=None
) -> Hypergraph:
    """Greedily drop nets while the engines still disagree.

    ``mismatch_fn`` defaults to :func:`_first_mismatch` (resolved at
    call time so the self-test's monkeypatch applies); the multilevel
    cross-check passes :func:`_ml_mismatch`.
    """
    nets = [tuple(pins) for pins in netlist.nets()]
    shrunk = netlist
    i = 0
    while i < len(nets):
        candidate_nets = nets[:i] + nets[i + 1:]
        if not candidate_nets:
            break
        candidate = Hypergraph(netlist.num_nodes, nets=candidate_nets)
        check = mismatch_fn or _first_mismatch
        try:
            still_bad = check(candidate, height, seed) is not None
        except Exception:
            still_bad = False  # shrink must preserve *this* failure mode
        if still_bad:
            nets = candidate_nets
            shrunk = candidate
        else:
            i += 1
    return shrunk


def _write_counterexample(
    netlist, height, seed, mismatch, prefix: str = "diff"
) -> Path:
    REGRESSION_DIR.mkdir(exist_ok=True)
    engines, message = mismatch
    payload = {
        "num_nodes": netlist.num_nodes,
        "nets": [list(pins) for pins in netlist.nets()],
        "height": height,
        "seed": seed,
        "engines": list(engines),
        "mismatch": message,
    }
    path = REGRESSION_DIR / f"{prefix}_seed{seed}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# multilevel-flow vs flat FLOW
# ----------------------------------------------------------------------
def _ml_instance(seed: int) -> Hypergraph:
    """A small Rent netlist sized for a real (multi-level) V-cycle."""
    from repro.hypergraph.generators import rent_hypergraph

    return rent_hypergraph(120 + 30 * (seed % 3), seed=seed, leaf_size=16)


def _ml_mismatch(netlist: Hypergraph, height: int, seed: int):
    """Cross-check multilevel-flow against flat FLOW on one instance.

    Both must produce feasible partitions, and each engine's reported
    cost must equal the canonical ``total_cost`` recompute of its own
    partition.  Returns ``(engine_pair, message)`` or None.
    """
    from repro.core.flow_htp import FlowHTPConfig, flow_htp
    from repro.htp.cost import total_cost
    from repro.htp.validate import partition_violations
    from repro.partitioning.multilevel_flow import (
        MultilevelFlowConfig,
        multilevel_flow_htp,
    )

    spec = binary_hierarchy(netlist.total_size(), height=height)
    flat = flow_htp(
        netlist, spec, FlowHTPConfig(iterations=1, seed=seed)
    )
    ml = multilevel_flow_htp(netlist, spec, MultilevelFlowConfig(seed=seed))
    pair = ("flat-flow", "multilevel-flow")
    for name, result in (("flat-flow", flat), ("multilevel-flow", ml)):
        problems = partition_violations(netlist, result.partition, spec)
        if problems:
            return pair, f"{name} partition infeasible: {problems[0]}"
        recomputed = total_cost(netlist, result.partition, spec)
        if abs(result.cost - recomputed) > 1e-6 * max(1.0, abs(recomputed)):
            return (
                pair,
                f"{name} reports cost {result.cost!r} but its partition "
                f"recomputes to {recomputed!r}",
            )
    return None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multilevel_flow_consistent_with_flat_flow(seed):
    """multilevel-flow stays feasible and cost-honest vs flat FLOW."""
    netlist = _ml_instance(seed)
    height = 3
    mismatch = _ml_mismatch(netlist, height, seed)
    if mismatch is not None:
        shrunk = _shrink(netlist, height, seed, mismatch_fn=_ml_mismatch)
        final = _ml_mismatch(shrunk, height, seed) or mismatch
        path = _write_counterexample(
            shrunk, height, seed, final, prefix="diff_ml"
        )
        pytest.fail(
            f"multilevel cross-check failed: {final[1]} — shrunk "
            f"reproducer written to {path}"
        )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_engines_bit_identical_on_random_instances(seed):
    """scipy-serial == scipy == python (== native) on random netlists."""
    netlist = _random_netlist(seed)
    height = 2
    mismatch = _first_mismatch(netlist, height, seed)
    if mismatch is not None:
        shrunk = _shrink(netlist, height, seed)
        final = _first_mismatch(shrunk, height, seed) or mismatch
        path = _write_counterexample(shrunk, height, seed, final)
        pytest.fail(
            f"engine mismatch ({final[0][0]} vs {final[0][1]}): "
            f"{final[1]} — shrunk reproducer written to {path}"
        )


@pytest.mark.skipif(
    not native_kernel.available(),
    reason="native kernel extension not built in this environment",
)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_native_engine_present_in_cross_product(seed):
    """With the kernel built, ``native`` joins the fuzz cross-product —
    checked directly here so a silently-skipped engine can't hide."""
    netlist = _random_netlist(seed)
    reference = _metric_lengths(netlist, 2, seed, "scipy-serial")
    native = _metric_lengths(netlist, 2, seed, "native")
    assert np.array_equal(reference, native)


def test_shrinker_and_writer_machinery(monkeypatch, tmp_path):
    """Self-test of the harness: shrinking and JSON writing work.

    Stubs the mismatch detector to flag any instance containing net
    (0, 1); the shrinker must reduce the netlist to essentially that
    net and the writer must produce a loadable counterexample.
    """
    import tests.test_differential_fuzz as fuzz

    def fake_mismatch(netlist, height, seed):
        if any(tuple(sorted(p)) == (0, 1) for p in netlist.nets()):
            return (("scipy", "python"), "stub mismatch")
        return None

    monkeypatch.setattr(fuzz, "_first_mismatch", fake_mismatch)
    monkeypatch.setattr(fuzz, "REGRESSION_DIR", tmp_path)

    netlist = Hypergraph(6, nets=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    shrunk = fuzz._shrink(netlist, height=2, seed=9)
    assert shrunk.num_nets == 1
    assert tuple(sorted(shrunk.net(0))) == (0, 1)

    path = fuzz._write_counterexample(
        shrunk, 2, 9, (("scipy", "python"), "stub mismatch")
    )
    payload = json.loads(path.read_text())
    assert payload["nets"] == [[0, 1]]
    assert payload["seed"] == 9
    assert payload["engines"] == ["scipy", "python"]


def _corpus_files():
    if not REGRESSION_DIR.is_dir():
        return []
    return sorted(REGRESSION_DIR.glob("*.json"))


@pytest.mark.parametrize(
    "path",
    _corpus_files() or [None],
    ids=lambda p: p.name if p else "empty-corpus",
)
def test_regression_corpus_still_identical(path):
    """Replay every committed counterexample; none may regress.

    Dispatch by the recorded ``engines``: multilevel counterexamples
    replay through the multilevel cross-check, metric-engine ones
    through the bit-identity cross-product.
    """
    if path is None:
        pytest.skip("no regression corpus — determinism holding")
    payload = json.loads(path.read_text())
    netlist = Hypergraph(
        payload["num_nodes"],
        nets=[tuple(pins) for pins in payload["nets"]],
    )
    if "multilevel-flow" in payload["engines"]:
        mismatch = _ml_mismatch(
            netlist, payload["height"], payload["seed"]
        )
    else:
        mismatch = _first_mismatch(
            netlist, payload["height"], payload["seed"]
        )
    assert mismatch is None, (
        f"regression {path.name} reproduces again: {mismatch[1]}"
    )

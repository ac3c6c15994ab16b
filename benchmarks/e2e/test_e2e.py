"""Self-test of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Every
workload runs once untraced and once traced at smoke size.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict
from workloads import check_result

from repro.core.flow_htp import FlowHTPConfig, flow_htp
from repro.htp.hierarchy import binary_hierarchy
from repro.htp.partition import PartitionTree
from repro.hypergraph.generators import iscas85_surrogate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, out: Path):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--smoke",
            "--seconds", "2",
            "--trace", str(trace),
            "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    (doc_path,) = out.glob(f"{workload}-*-trace{trace}-*.json")
    return line, json.loads(doc_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_workload_reports_every_metric_and_adds_up(workload, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line, doc = _run(workload, trace, tmp_path)
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in CONFIG[section]
        }
    split = doc["extra"]["trace"]
    loadgen_self = sum(
        layer["self_s"] for layer in split["layers"]["loadgen"].values()
    )
    assert loadgen_self + split["residual_s"] == pytest.approx(split["wall_s"])
    assert split["residual_s"] <= 0.10 * split["wall_s"]


def test_checker_rejects_tampered_cost_and_infeasible_partition():
    netlist = iscas85_surrogate("c1355", seed=3, scale=0.2)
    hierarchy = binary_hierarchy(netlist.total_size(), height=2)
    result = flow_htp(netlist, hierarchy, FlowHTPConfig(iterations=1))
    assert check_result(netlist, hierarchy, result) == []

    tampered = dataclasses.replace(result, cost=result.cost + 1.0)
    assert check_result(netlist, hierarchy, tampered)

    doc = result.partition.to_dict()
    doc["leaf_of"] = [doc["leaf_of"][0]] * netlist.num_nodes
    crammed = dataclasses.replace(result, partition=PartitionTree.from_dict(doc))
    assert check_result(netlist, hierarchy, crammed)


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(steady, steady, "lower", 0.1)[0] == "no change"
    assert verdict(steady, [v * 1.3 for v in steady], "lower", 0.1)[0] == "worse"
    assert verdict(steady, [v * 0.5 for v in steady], "lower", 0.1)[0] == "improved"
    assert verdict(steady, [v * 1.3 for v in steady], "higher", 0.1)[0] == "improved"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.8]
    assert verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"

"""``run.py compare A B``: is B worse than A, metric by metric?

``A`` and ``B`` are directories of run JSONs written with ``run.py
--out``.  With ``--runs N`` the runs are made first: N pairs, one run
into each directory per pair, the order alternating from pair to pair
(A then B, then B then A, ...), each side from its own checkout
(``--checkout-a`` / ``--checkout-b``, default this one).

Per workload and end-to-end metric it prints both medians, both
quartiles, the share of pairs B won (ties count for neither) and a
verdict, following the choosing-metrics rule:

* ``unresolved`` — A's own spread (quartile distance over median) is
  wider than the metric's bound, and not every B run beats every A run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``improved`` — every B run beats every A run, or B won at least 9 of
  10 pairs and the medians differ by more than A's quartile distance;
* ``no change`` — otherwise.

It also prints each side's failure share.  The exit code is 1 when any
metric is worse or any run failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def load_runs(directory: Path):
    """``{workload: [doc, ...]}`` of untraced runs, in run order."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("trace") == 0:
            runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda doc: doc["started_at"])
    return runs


def verdict(a, b, better: str, bound: float):
    """Verdict of B against A for one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "improved", win_share
    if (q3 - q1) / abs(median_a) > bound:
        return "unresolved", win_share
    if sign * (median_b - median_a) / abs(median_a) > bound:
        return "worse", win_share
    if win_share >= 0.9 and abs(median_b - median_a) > q3 - q1:
        return "improved", win_share
    return "no change", win_share


def make_runs(args) -> None:
    sides = [
        (Path(args.checkout_a).resolve(), Path(args.a).resolve()),
        (Path(args.checkout_b).resolve(), Path(args.b).resolve()),
    ]
    for pair in range(args.runs):
        for workload in args.workload:
            for checkout, out in sides if pair % 2 == 0 else sides[::-1]:
                subprocess.run(
                    [
                        sys.executable, "benchmarks/e2e/run.py",
                        "--workload", workload,
                        "--seed", str(args.seed),
                        "--out", str(out),
                    ] + (["--seconds", str(args.seconds)] if args.seconds else []),
                    cwd=checkout,
                    stdout=subprocess.DEVNULL,
                )


def main(argv) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__)
    parser.add_argument("a", help="directory of the parent's run JSONs")
    parser.add_argument("b", help="directory of the change's run JSONs")
    parser.add_argument("--runs", type=int, default=0, help="make N pairs first")
    parser.add_argument("--checkout-a", default=str(ROOT))
    parser.add_argument("--checkout-b", default=str(ROOT))
    parser.add_argument(
        "--workload",
        action="append",
        help="workload to run (repeatable; default all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    args.workload = args.workload or [w["name"] for w in config["workloads"]]
    if args.runs:
        make_runs(args)
    runs_a, runs_b = load_runs(Path(args.a)), load_runs(Path(args.b))
    status = 0
    header = (
        f"{'workload':16} {'metric':13} {'median A':>12} {'Q1..Q3 A':>25} "
        f"{'median B':>12} {'Q1..Q3 B':>25} {'B wins':>6}  verdict"
    )
    print(header)
    for workload in sorted(set(runs_a) & set(runs_b)):
        docs_a, docs_b = runs_a[workload], runs_b[workload]
        for side, docs in (("A", docs_a), ("B", docs_b)):
            attempted = sum(doc["attempted"] for doc in docs)
            failed = sum(doc["failed"] for doc in docs)
            # The same spin on both sides: a gap here is the host, not
            # the code.
            probe = statistics.median(
                value for doc in docs for value in doc["extra"]["meta"]["cpu_probe_ms"]
            )
            print(
                f"{workload:16} failures {side}: {failed}/{attempted} "
                f"over {len(docs)} runs; cpu probe median {probe:.1f} ms"
            )
            if failed or not all(doc["correct"] for doc in docs):
                status = 1
        if len(docs_a) < 2 or len(docs_b) < 2:
            print(f"{workload:16} needs at least two runs per side")
            status = 1
            continue
        for metric in config["end_to_end"]:
            name = metric["name"]
            a = [doc["metrics"][name]["value"] for doc in docs_a]
            b = [doc["metrics"][name]["value"] for doc in docs_b]
            result, win_share = verdict(a, b, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            print(
                f"{workload:16} {name:13} {statistics.median(a):12.5g} "
                f"{qa[0]:12.5g}..{qa[2]:<11.5g} {statistics.median(b):12.5g} "
                f"{qb[0]:12.5g}..{qb[2]:<11.5g} {win_share:6.0%}  {result}"
            )
    return status

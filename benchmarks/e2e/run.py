#!/usr/bin/env python3
"""The end-to-end benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload flow-iscas --seed 3
    python3 benchmarks/e2e/run.py --trace 1             # per-layer split
    python3 benchmarks/e2e/run.py --out runs/parent     # also keep run JSONs
    python3 benchmarks/e2e/run.py compare runs/parent runs/change

A single-workload run prints every metric as ``workload name value
unit``, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics.  It exits non-zero when any output
fails its correctness check.  Without ``--workload`` every workload
runs in a fresh subprocess.  ``compare`` is described in
:mod:`compare`.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CONFIG = ROOT / "BENCHMARK.json"
#: A run must end within 180 s; stop (and clean up) a little earlier.
TIME_BUDGET_S = 170


def _timeout(_signum, _frame) -> None:
    raise TimeoutError(f"benchmark run exceeded {TIME_BUDGET_S}s")


def run_one(args, config) -> int:
    import workloads

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_BUDGET_S)
    started = time.time()
    run = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    signal.alarm(0)
    values = run.layers if args.trace else run.e2e
    metrics = {}
    for metric in config["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
        else:
            run.problems.append(f"metric {name} was not measured")
    correct = run.failed == 0 and not run.problems
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']} {metric['unit']}")
    print(f"# {args.workload} meta {json.dumps(run.extra['meta'])}")
    line = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        doc = dict(
            line,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            started_at=started,
            extra=run.extra,
        )
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        (out / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Each workload in a fresh interpreter, one after another."""
    summary = {}
    for name in names:
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            argv += ["--out", args.out]
        if args.smoke:
            argv.append("--smoke")
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary[name] = json.loads(lines[-1])["correct"] and done.returncode == 0
        except (IndexError, ValueError, KeyError):
            summary[name] = False
    print(json.dumps({"correct": all(summary.values()), "workloads": summary}))
    return 0 if all(summary.values()) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    if not (ROOT / "src" / "repro").is_dir() or not CONFIG.is_file():
        print(
            "error: run from the root of a repository checkout "
            "(needs src/repro and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="DIR", help="also write a run JSON here")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny instances (harness self-test)"
    )
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, names)
    return run_one(args, config)


if __name__ == "__main__":
    sys.exit(main())

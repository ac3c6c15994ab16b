"""Shared fixtures for the benchmark harness.

Set ``REPRO_BENCH_SCALE`` (e.g. ``0.25``) to shrink the surrogate
circuits for a quick smoke run; the default ``1.0`` reproduces the
paper-sized instances.  Reproduced tables are printed, and written to
``benchmarks/results/`` only at full scale (a smoke run writes them to
a temporary directory, so it never rewrites a tracked table).

Pass ``--bench-json PATH`` to also write a machine-readable perf record
(operation -> median seconds + perf counters) — the repo keeps the
canonical trajectory in ``BENCH_micro.json`` at the repo root, refreshed
by ``pytest benchmarks/bench_spreading_batch.py --bench-json
BENCH_micro.json``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentConfig


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "write micro-bench medians and perf counters collected via the "
            "bench_record fixture to PATH as JSON"
        ),
    )


def pytest_configure(config) -> None:
    config._bench_json_store = {}


def pytest_sessionfinish(session, exitstatus) -> None:
    path = session.config.getoption("--bench-json", default=None)
    store = getattr(session.config, "_bench_json_store", {})
    if not path or not store:
        return
    try:
        from repro.core import _kernel as native_kernel

        kernel_built = native_kernel.available()
    except Exception:  # pragma: no cover - defensive
        kernel_built = False
    payload = {
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "scale": float(os.environ.get("REPRO_BENCH_SCALE", "1.0")),
            # Context the engine rows need to be interpretable: the
            # native row only exists when a compiler built the kernel.
            "cpu_count": os.cpu_count(),
            "compiler": shutil.which("cc") or shutil.which("gcc"),
            "native_kernel_built": kernel_built,
        },
        "ops": store,
    }
    target = Path(path)
    if target.exists():
        # A "baseline" section (medians measured at some reference
        # commit) is preserved across refreshes so the before/after
        # trajectory stays in one file.
        try:
            baseline = json.loads(target.read_text()).get("baseline")
        except (OSError, ValueError):
            baseline = None
        if baseline is not None:
            payload["baseline"] = baseline
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n[bench-json written to {path}]")


@pytest.fixture(scope="session")
def bench_record(request):
    """Recorder callable: ``bench_record(op, seconds, **extra)``.

    ``op`` names the operation (e.g. ``compute_spreading_metric[c2670]``),
    ``seconds`` is its median wall time, and ``extra`` may carry counters
    or before/after context.  Everything lands in the ``--bench-json``
    output; without that option the records are simply discarded.
    """
    store = request.config._bench_json_store

    def record(op: str, seconds: float, **extra) -> None:
        entry = {"median_seconds": seconds}
        entry.update(extra)
        store[op] = entry

    return record


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    """Experiment parameters shared by every table benchmark."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return ExperimentConfig(scale=scale)


@pytest.fixture(scope="session")
def results_dir(experiment_config, tmp_path_factory) -> Path:
    """Directory collecting the regenerated tables.

    Only a full-scale run (``REPRO_BENCH_SCALE`` unset or ``1.0``)
    refreshes the tracked tables in ``benchmarks/results/``; a smoke run
    at any other scale writes to a temporary directory instead.
    """
    if experiment_config.scale != 1.0:
        return tmp_path_factory.mktemp("results")
    directory = Path(__file__).parent / "results"
    directory.mkdir(exist_ok=True)
    return directory


@pytest.fixture(scope="session")
def partition_store() -> dict:
    """Cross-benchmark store: Table 2's partitions feed Table 3."""
    return {}


def emit(results_dir: Path, name: str, text: str) -> None:
    """Write a reproduced table to disk and echo it."""
    (results_dir / name).write_text(text + "\n")
    print(f"\n{text}\n[written to {results_dir / name}]")

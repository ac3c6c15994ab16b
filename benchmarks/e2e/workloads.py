"""The four workloads of the end-to-end benchmark and their checks.

Every workload mixes the same two kinds of operation, so every
end-to-end metric is defined on every workload:

* **solves**, which must run the solver — a closed loop of library
  solves (``flow-iscas``, ``multilevel-rent``), or an open loop of
  fresh specs sent to a server (``service-open``, ``cluster-open``);
* **warm repeats** of requests answered before, paced across the run —
  a cache hit over HTTP for the service workloads, a reload of the
  stored result document (``FlowHTPResult.from_dict``) for the library
  workloads, which have no cache.

Every result is checked outside the timed path: the partition must be
feasible under the hierarchy and its cost must equal Equation (1)
recomputed independently; a repeat must return exactly what was stored.

The load generator is this one process with one thread, which holds at
most one connection at a time.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracer import Tracer, clock, install, span_cost_seconds

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
#: Working space for server caches, journals, logs and span dumps; the
#: benchmark reads and writes nothing outside its checkout.
WORK = ROOT / ".e2e_work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro.core.flow_htp  # noqa: E402
import repro.htp.cost  # noqa: E402
import repro.partitioning.multilevel_flow  # noqa: E402
from repro.core import _kernel as native_kernel  # noqa: E402
from repro.errors import PartitionError  # noqa: E402
from repro.htp.hierarchy import binary_hierarchy  # noqa: E402
from repro.htp.validate import check_partition  # noqa: E402
from repro.hypergraph.generators import (  # noqa: E402
    iscas85_surrogate,
    rent_hypergraph,
)
from repro.service.client import ServiceClient, ServiceClientError  # noqa: E402
from repro.service.jobs import JobSpec  # noqa: E402

# Modules, not names: a traced run rebinds the modules' functions, and
# the calls below must go through the rebound ones.  (The packages
# re-export the functions under the module names, hence sys.modules.)
flow_module = sys.modules["repro.core.flow_htp"]
cost_module = sys.modules["repro.htp.cost"]
multilevel_module = sys.modules["repro.partitioning.multilevel_flow"]

#: Open-loop arrival rates (per second) of fresh specs and of repeats,
#: and the share of the run spent issuing arrivals; the rest drains.
MISS_RATE = 2.0
HIT_RATE = 1.0
ARRIVAL_SHARE = 0.9
#: Idle time the generator needs before the next event to slot in a
#: warm repeat (one takes 10-25 ms) without sending an arrival late.
WARM_GAP_S = 0.05
#: Status poll interval per outstanding job: the default of
#: ``ServiceClient.wait``.
POLL_SECONDS = 0.05
#: Surrogate circuit of the fresh specs.  A solve of this small circuit
#: takes ~0.16 s, so at ``MISS_RATE`` two cores stay well below
#: saturation and each run holds enough misses for a steady median.
MISS_CIRCUIT = "c1355"
#: Circuits of the primed specs the repeats ask for, in turn.
PRIME_CIRCUITS = ("c1355", "c2670", "c3540")
#: Solver config of every service spec; ``htp submit --iterations 1``.
SERVICE_CONFIG = {"iterations": 1}
#: A job not done this long after its arrival counts as failed.
JOB_TIMEOUT_S = 60.0
#: An open-loop run whose generator ran later than this at p90 is flagged.
LAG_FLAG_MS = 50.0

#: Router-side client calls, renamed after the router step they time.
ROUTER_CLIENT_LAYERS = {
    "service.client.submit": "service.cluster.forward",
    "service.client.status": "service.cluster.status_proxy",
    "service.client.result": "service.cluster.result_fetch",
    "service.client.cache_lookup": "service.cluster.cache_lookup",
    "service.client.cache_push": "service.cluster.cache_push",
}

#: PerfCounters fields reported per layer (summed over the window).
COUNTERS = {
    "core.construct.cut_evals": "cut_evals",
    "core.spreading_metric.dijkstra_calls": "dijkstra_calls",
    "core.spreading_metric.nodes_settled": "nodes_settled",
}


@dataclass(frozen=True)
class Sizes:
    """Instance and phase sizes; ``SMOKE`` shrinks them for the self-test."""

    scale: float = 1.0  # ISCAS85 surrogate scale
    rent_nodes: int = 10000
    cost_solves: Tuple[int, int] = (16, 5)  # flow-iscas, multilevel-rent
    primes: int = 8
    warm_ops: int = 200
    setup_starts: int = 3


FULL = Sizes()
SMOKE = Sizes(
    scale=0.25,
    rent_nodes=2000,
    cost_solves=(2, 1),
    primes=2,
    warm_ops=20,
    setup_starts=2,
)


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


# ----------------------------------------------------------------------
# Small measurement helpers
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_probe_ms() -> float:
    """A fixed pure-Python spin; tells host slowdowns from regressions."""
    start = clock()
    total = 0
    for value in range(1_000_000):
        total += value * value
    return (clock() - start) * 1000.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def check_result(netlist, hierarchy, result) -> List[str]:
    """Feasibility under ``C_l``/``K_l`` and an honest Equation (1) cost."""
    try:
        check_partition(netlist, result.partition, hierarchy)
    except PartitionError as exc:
        return [str(exc)]
    recomputed = cost_module.total_cost(netlist, result.partition, hierarchy)
    if recomputed != result.cost:
        return [f"reported cost {result.cost!r} != Eq. (1) {recomputed!r}"]
    return []


# ----------------------------------------------------------------------
# Library workloads
# ----------------------------------------------------------------------
def _library_instances(name: str, seed: int, count: int, sizes: Sizes):
    instances = []
    for index in range(count):
        if name == "flow-iscas":
            netlist = iscas85_surrogate(
                "c2670", seed=seed * 1000 + index, scale=sizes.scale
            )
            hierarchy = binary_hierarchy(netlist.total_size(), height=4)
            config = flow_module.FlowHTPConfig(seed=index)
        else:
            netlist = rent_hypergraph(
                sizes.rent_nodes, seed=seed * 1000 + index
            )
            # Height 4, not 5: at height 5 about one solve in four returns
            # a partition that breaks K_l (coarsening stalls near 850
            # clumpy nodes and the coarse FLOW solve overfills a vertex),
            # and a benchmark workload must not fail.
            hierarchy = binary_hierarchy(netlist.total_size(), height=4)
            config = multilevel_module.MultilevelFlowConfig(seed=index)
        instances.append((netlist, hierarchy, config))
    return instances


def _cold_import_seconds() -> float:
    start = clock()
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.core.flow_htp, repro.partitioning.multilevel_flow,"
            " repro.hypergraph.generators",
        ],
        env=child_env(),
        cwd=ROOT,
        check=True,
    )
    return clock() - start


def run_library(
    name: str, seed: int, seconds: float, sizes: Sizes, tracer: Optional[Tracer]
) -> RunResult:
    run = RunResult()
    setup = [_cold_import_seconds() for _ in range(sizes.setup_starts)]
    if tracer is not None:
        install(tracer, "library")
    # Looked up after ``install`` so a traced run calls the wrappers.
    if name == "flow-iscas":
        min_solves = sizes.cost_solves[0]
        cap = min_solves + int(seconds / 0.3)
        solve = flow_module.flow_htp
    else:
        min_solves = sizes.cost_solves[1]
        cap = min_solves + int(seconds / 1.5)
        solve = multilevel_module.multilevel_flow_htp
    instances = _library_instances(name, seed, cap, sizes)
    span = tracer.span if tracer is not None else _no_span
    rng = random.Random(seed)
    results, latencies, lags, stored, warm = [], [], [], [], []

    def reload_one() -> None:
        """The library's repeat: reload a stored result document."""
        index = rng.randrange(len(results))
        with span("loadgen.warm"):
            start = clock()
            again = flow_module.FlowHTPResult.from_dict(json.loads(stored[index]))
            warm.append(clock() - start)
            # Closed loop: checking here delays no scheduled request.
            if (
                again.cost != results[index].cost
                or again.partition.to_dict() != results[index].partition.to_dict()
            ):
                run.fail(f"reloaded result {index} differs from the stored one")

    # Closed loop, one solve at a time.  Repeats are paced across the
    # whole window, so a host slowdown of a few seconds cannot land on
    # all of them.
    window_start = previous = clock()
    while len(results) < cap and (
        len(results) < min_solves or clock() - window_start < seconds
    ):
        netlist, hierarchy, config = instances[len(results)]
        start = clock()
        lags.append(start - previous)
        result = solve(netlist, hierarchy, config)
        latencies.append(clock() - start)
        results.append(result)
        with span("loadgen.warm"):
            stored.append(json.dumps(result.to_dict()))
        while len(warm) < sizes.warm_ops * min(
            1.0, (clock() - window_start) / seconds
        ):
            reload_one()
        previous = clock()
    while len(warm) < sizes.warm_ops:
        reload_one()
    window = (window_start, clock())
    rss = peak_rss_mb()

    for index, result in enumerate(results):
        netlist, hierarchy, _config = instances[index]
        for problem in check_result(netlist, hierarchy, result):
            run.fail(f"solve {index}: {problem}")
    run.attempted = len(results) + len(warm)
    costs = [result.cost for result in results[:min_solves]]
    run.e2e = {
        "setup_s": statistics.median(setup),
        "solve_p50_s": statistics.median(latencies),
        "warm_p50_ms": percentile(warm, 50) * 1000.0,
        "cost_mean": statistics.fmean(costs),
        "peak_rss_mb": rss,
    }
    run.extra.update(
        warm_p95_ms=percentile(warm, 95) * 1000.0,
        solves=len(results),
        solve_p75_s=percentile(latencies, 75),
        lag_p90_ms=percentile(lags, 90) * 1000.0,
    )
    if tracer is not None:
        counters = {
            layer: sum(getattr(r.perf, field_name) for r in results)
            for layer, field_name in COUNTERS.items()
        }
        counters["core.spreading_metric.rounds"] = sum(
            metric.rounds for r in results for metric in r.metric_results
        )
        run.layers, run.extra["trace"] = trace_metrics(
            [("loadgen", _own_dump(tracer))],
            window,
            counters,
            e2e=run.e2e,
            lags=lags,
        )
    return run


def _no_span(_name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def _own_dump(tracer: Tracer) -> Dict[str, object]:
    return {
        "spans": tracer.spans,
        "main_thread": threading.main_thread().ident,
    }


# ----------------------------------------------------------------------
# Service and cluster workloads
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Stack:
    """The server processes behind one service or cluster run.

    ``cluster=False`` is one ``htp serve`` with its default fsync and
    concurrency; ``cluster=True`` is ``htp route --journal`` with two
    ``htp serve --join --max-concurrency 1`` workers, each with a private
    cache and journal.  With ``trace`` the processes start through
    ``launch.py`` and dump their spans when stopped.
    """

    def __init__(self, cluster: bool, work: Path, trace: bool) -> None:
        self.cluster = cluster
        self.work = work
        self.trace = trace
        self.processes: List[Tuple[str, subprocess.Popen]] = []
        self.span_files: List[Path] = []
        self.logs = []
        self.url = ""
        #: Base URL of each solving process, by cluster worker id (None:
        #: the single server).
        self.workers: Dict[Optional[str], str] = {}

    def _spawn(self, label: str, args: List[str]) -> None:
        log = open(self.work / f"{label}.log", "w", encoding="utf-8")
        self.logs.append(log)
        if self.trace:
            spans = self.work / f"{label}.spans.json"
            self.span_files.append(spans)
            argv = [sys.executable, str(HERE / "launch.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "repro.cli", *args]
        process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        self.processes.append((label, process))

    def _wait(self, ready, what: str, timeout: float = 60.0) -> None:
        deadline = clock() + timeout
        while clock() < deadline:
            for label, process in self.processes:
                if process.poll() is not None:
                    raise RuntimeError(
                        f"{label} exited with {process.returncode} before "
                        f"{what}; see {self.work / (label + '.log')}"
                    )
            try:
                if ready():
                    return
            except ServiceClientError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"timed out waiting for {what}")

    def start(self) -> float:
        """Spawn everything; returns seconds from spawn to ready."""
        start = clock()
        port = free_port()
        self.url = f"http://127.0.0.1:{port}"
        probe = ServiceClient(self.url, timeout=5.0)
        if not self.cluster:
            self._spawn(
                "serve",
                [
                    "serve",
                    "--port", str(port),
                    "--cache-dir", str(self.work / "cache"),
                    "--journal", str(self.work / "journal"),
                ],
            )
            self.workers = {None: self.url}
            self._wait(lambda: probe.healthz()["status"] == "ok", "/healthz")
            return clock() - start
        self._spawn(
            "route",
            [
                "route",
                "--port", str(port),
                "--journal", str(self.work / "router-wal"),
            ],
        )
        self._wait(lambda: probe.healthz()["status"] == "ok", "router /healthz")
        for index in range(2):
            worker_port = free_port()
            self.workers[f"w{index}"] = f"http://127.0.0.1:{worker_port}"
            self._spawn(
                f"w{index}",
                [
                    "serve",
                    "--port", str(worker_port),
                    "--max-concurrency", "1",
                    "--join", self.url,
                    "--worker-id", f"w{index}",
                    "--cache-dir", str(self.work / f"cache-w{index}"),
                    "--journal", str(self.work / f"journal-w{index}"),
                ],
            )

        def all_alive() -> bool:
            workers = probe._request("GET", "/workers")["workers"]
            return sum(1 for w in workers if w["state"] == "alive") == 2

        self._wait(all_alive, "two alive workers")
        return clock() - start

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(process.pid) for _, process in self.processes)

    def perf(self) -> Dict[str, int]:
        """Summed solver counters of the workers (``/metricsz``)."""
        totals: Dict[str, int] = {}
        for url in self.workers.values():
            perf = ServiceClient(url, timeout=10.0).metricsz()["perf"]
            for name in COUNTERS.values():
                totals[name] = totals.get(name, 0) + int(perf[name])
        return totals

    def stop(self) -> List[Tuple[str, Dict[str, object]]]:
        """SIGTERM (the servers drain), wait, and collect span dumps."""
        for _label, process in reversed(self.processes):
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for _label, process in reversed(self.processes):
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        for log in self.logs:
            log.close()
        dumps = []
        for path in self.span_files:
            if path.exists():
                doc = json.loads(path.read_text(encoding="utf-8"))
                dumps.append((doc["role"], doc))
        self.processes = []
        return dumps


def _service_specs(seed: int, sizes: Sizes, duration: float):
    """Primed specs, the fresh (miss) specs, and the open-loop schedule.

    Fresh specs arrive on a fixed grid of ``MISS_RATE`` per second and
    repeats as a Poisson stream of ``HIT_RATE`` per second on top, so
    repeats land at random points of the solves while the misses never
    queue behind each other.  (With Poisson misses too, the typical
    miss latency of a 20 s run moved by 30% from seed to seed with the
    luck of the bursts.)
    """

    def spec(circuit: str, instance_seed: int) -> JobSpec:
        netlist = iscas85_surrogate(circuit, seed=instance_seed, scale=sizes.scale)
        hierarchy = binary_hierarchy(netlist.total_size(), height=4)
        return JobSpec.from_parts(netlist, hierarchy, SERVICE_CONFIG)

    rng = random.Random(seed)
    primes = [
        spec(PRIME_CIRCUITS[index % len(PRIME_CIRCUITS)], seed * 1000 + 500 + index)
        for index in range(sizes.primes)
    ]
    misses = max(1, int(duration * MISS_RATE))
    fresh = [spec(MISS_CIRCUIT, seed * 1000 + index) for index in range(misses)]
    schedule = [((index + 0.5) / MISS_RATE, "miss", index) for index in range(misses)]
    offset = rng.expovariate(HIT_RATE)
    while offset < duration:
        schedule.append((offset, "hit", rng.randrange(len(primes))))
        offset += rng.expovariate(HIT_RATE)
    schedule.sort()
    return primes, fresh, schedule


@dataclass
class _Op:
    kind: str
    index: int
    scheduled: float
    sent: float = 0.0
    job_id: str = ""
    polls: int = 0
    next_poll: float = 0.0
    latency: Optional[float] = None
    solved_by: Tuple[Optional[str], str] = (None, "")
    done_latency: Optional[float] = None
    payload: Optional[Dict[str, object]] = None
    error: Optional[str] = None


def _open_loop(
    client, schedule, payloads, span, warm_one, warm_ops: int
) -> Tuple[List[_Op], float, int]:
    """Send every arrival on its schedule; poll outstanding jobs.

    One thread does everything: it sleeps until the next arrival or the
    next due poll, whichever comes first, so a stalled request delays
    later ones and shows as generator lag.  While no fresh job is
    outstanding and the next arrival is more than ``WARM_GAP_S`` away,
    it spends the idle time on warm repeats (``warm_one``), paced to
    ``warm_ops`` over the schedule: they see a quiet server and are
    spread over the whole window, so a host slowdown of a few seconds
    cannot land on all of them.  Returns the arrivals, the window start
    and the number of warm repeats made.
    """
    ops: List[_Op] = []
    outstanding: List[_Op] = []
    start = clock()
    horizon = schedule[-1][0]
    position = warmed = 0

    def fetch(op: _Op) -> None:
        op.payload = client.result(op.job_id)
        op.latency = clock() - op.scheduled

    while position < len(schedule) or outstanding:
        next_arrival = (
            start + schedule[position][0] if position < len(schedule) else math.inf
        )
        polled = min(outstanding, key=lambda o: o.next_poll, default=None)
        next_poll = polled.next_poll if polled is not None else math.inf
        due = min(next_arrival, next_poll)
        if (
            not outstanding
            and warmed < warm_ops * min(1.0, (clock() - start) / horizon)
            and due - clock() > WARM_GAP_S
        ):
            warm_one()
            warmed += 1
            continue
        wait = due - clock()
        if wait > 0:
            with span("loadgen.idle"):
                time.sleep(wait)
        try:
            if next_arrival <= next_poll:
                offset, kind, index = schedule[position]
                position += 1
                op = _Op(kind=kind, index=index, scheduled=start + offset)
                ops.append(op)
                op.sent = clock()
                status = client.submit(payloads[kind][index])
                op.job_id = str(status["job_id"])
                if bool(status.get("cached")) != (kind == "hit"):
                    op.error = f"{kind} answered with cached={status.get('cached')}"
                elif status["state"] == "done":
                    fetch(op)
                elif status["state"] in ("failed", "cancelled"):
                    op.error = f"job {op.job_id} ended {status['state']}"
                else:
                    op.next_poll = clock() + POLL_SECONDS
                    outstanding.append(op)
                continue
            op = polled
            status = client.status(op.job_id)
            op.polls += 1
            if status["state"] == "done":
                outstanding.remove(op)
                # A router names the worker job that solved it.
                op.solved_by = (
                    status.get("worker"),
                    str(status.get("worker_job_id") or op.job_id),
                )
                if bool(status.get("cached")) != (op.kind == "hit"):
                    op.error = f"{op.kind} finished with cached={status.get('cached')}"
                else:
                    fetch(op)
            elif status["state"] in ("failed", "cancelled"):
                outstanding.remove(op)
                op.error = f"job {op.job_id} ended {status['state']}: {status.get('error')}"
            elif clock() - op.scheduled > JOB_TIMEOUT_S:
                outstanding.remove(op)
                op.error = f"job {op.job_id} not done after {JOB_TIMEOUT_S:g}s"
            else:
                op.next_poll = clock() + POLL_SECONDS
        except ServiceClientError as exc:
            op.error = f"{op.kind} {op.job_id or '(unsent)'}: {exc}"
            if op in outstanding:
                outstanding.remove(op)
    return ops, start, warmed


def run_service(
    name: str, seed: int, seconds: float, sizes: Sizes, tracer: Optional[Tracer]
) -> RunResult:
    run = RunResult()
    cluster = name == "cluster-open"
    WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    stack: Optional[Stack] = None
    try:
        # Set-up: cold starts, each with fresh directories; the last one
        # serves the run.
        setup = []
        for attempt in range(sizes.setup_starts):
            work = base / f"start{attempt}"
            work.mkdir()
            stack = Stack(cluster, work, trace=tracer is not None)
            setup.append(stack.start())
            if attempt < sizes.setup_starts - 1:
                stack.stop()
        primes, fresh, schedule = _service_specs(
            seed, sizes, seconds * ARRIVAL_SHARE
        )
        if tracer is not None:
            install(tracer, "client")
        span = tracer.span if tracer is not None else _no_span
        client = ServiceClient(stack.url, timeout=10.0)

        # Untimed prime: the specs the hits and the warm phase repeat.
        primed = []
        for spec in primes:
            job = client.submit_spec(spec)
            status = client.wait(str(job["job_id"]), timeout=JOB_TIMEOUT_S)
            if status["state"] != "done":
                raise RuntimeError(f"prime job ended {status['state']}")
            payload = client.result(str(job["job_id"]))
            for problem in _check_payload(spec, payload):
                raise RuntimeError(f"prime result rejected: {problem}")
            primed.append(payload)
        payloads = {
            "miss": [spec.to_payload() for spec in fresh],
            "hit": [spec.to_payload() for spec in primes],
        }
        perf_before = stack.perf()
        rng = random.Random(seed)
        warm = []

        def warm_one() -> None:
            """A closed-loop repeat of a primed spec: submit, fetch."""
            index = rng.randrange(len(primes))
            with span("loadgen.warm"):
                start = clock()
                try:
                    status = client.submit(payloads["hit"][index])
                    payload = client.result(str(status["job_id"]))
                except ServiceClientError as exc:
                    run.fail(f"warm repeat: {exc}")
                    return
                warm.append(clock() - start)
                # An equality test of two parsed payloads costs well under
                # a millisecond; keeping 200 payloads for later would not.
                if status.get("cached") is not True or payload != primed[index]:
                    run.fail(f"warm repeat of prime {index} was not the primed result")

        wall_offset = time.time() - clock()
        ops, window_start, warmed = _open_loop(
            client, schedule, payloads, span, warm_one, sizes.warm_ops
        )
        for _ in range(sizes.warm_ops - warmed):
            warm_one()
        window = (window_start, clock())
        # When each miss was done on its server (``finished_at``): the
        # client saw it at its next status poll, up to a poll interval
        # later, which would put every latency on a 50 ms grid.
        for op in ops:
            if op.kind == "miss" and op.error is None:
                worker, job_id = op.solved_by
                status = ServiceClient(stack.workers[worker], timeout=10.0).status(job_id)
                op.done_latency = status["finished_at"] - (op.scheduled + wall_offset)
        perf_after = stack.perf()
        rss = stack.peak_rss_mb()
        dumps = stack.stop()
        stack = None
    finally:
        if stack is not None:
            stack.stop()
        shutil.rmtree(base, ignore_errors=True)

    misses = [op for op in ops if op.kind == "miss"]
    hits = [op for op in ops if op.kind == "hit"]
    costs, rounds, result_bytes = [], 0, []
    for op in ops:
        if op.error is not None:
            run.fail(op.error)
            continue
        if op.kind == "hit":
            if op.payload != primed[op.index]:
                run.fail(f"hit of prime {op.index} was not the primed result")
            continue
        problems = _check_payload(fresh[op.index], op.payload)
        for problem in problems:
            run.fail(f"miss {op.job_id}: {problem}")
        if not problems:
            result = op.payload["result"]
            costs.append(float(result["cost"]))
            rounds += sum(int(m["rounds"]) for m in result["metric_results"])
            result_bytes.append(len(json.dumps(op.payload)))
    run.attempted = len(ops) + sizes.warm_ops
    miss_latencies = [op.latency for op in misses if op.latency is not None]
    done_latencies = [op.done_latency for op in misses if op.done_latency is not None]
    hit_latencies = [op.latency for op in hits if op.latency is not None]
    lags = [op.sent - op.scheduled for op in ops]
    if not costs or not warm:
        run.fail("no miss or warm request completed")
        return run
    run.e2e = {
        "setup_s": statistics.median(setup),
        "solve_p50_s": statistics.median(done_latencies),
        "warm_p50_ms": percentile(warm, 50) * 1000.0,
        "cost_mean": statistics.fmean(costs),
        "peak_rss_mb": rss,
    }
    run.extra.update(
        warm_p95_ms=percentile(warm, 95) * 1000.0,
        miss_latencies_s=miss_latencies,
        miss_done_latencies_s=done_latencies,
        warmed_in_gaps=warmed,
        arrivals=len(ops),
        misses=len(misses),
        miss_p80_s=percentile(miss_latencies, 80),
        hit_p50_ms=percentile(hit_latencies, 50) * 1000.0 if hit_latencies else None,
        hit_p80_ms=percentile(hit_latencies, 80) * 1000.0 if hit_latencies else None,
        lag_p90_ms=percentile(lags, 90) * 1000.0,
        lag_flagged=percentile(lags, 90) * 1000.0 > LAG_FLAG_MS,
    )
    if tracer is not None:
        counters = {
            layer: perf_after[field_name] - perf_before[field_name]
            for layer, field_name in COUNTERS.items()
        }
        counters["core.spreading_metric.rounds"] = rounds
        run.layers, run.extra["trace"] = trace_metrics(
            [("loadgen", _own_dump(tracer))] + dumps,
            window,
            counters,
            e2e=run.e2e,
            lags=lags,
            misses=misses,
            result_bytes=result_bytes,
        )
    return run


def _check_payload(spec: JobSpec, payload: Dict[str, object]) -> List[str]:
    """Parse a served result and put it through :func:`check_result`."""
    if payload.get("spec_hash") != spec.canonical_hash():
        return ["result payload carries the wrong content address"]
    try:
        result = flow_module.FlowHTPResult.from_dict(payload["result"])
    except (KeyError, PartitionError) as exc:
        return [f"unparseable result: {exc}"]
    return check_result(spec.build_netlist(), spec.build_hierarchy(), result)


# ----------------------------------------------------------------------
# The traced per-layer split
# ----------------------------------------------------------------------
def trace_metrics(
    dumps,
    window: Tuple[float, float],
    counters: Dict[str, int],
    e2e: Dict[str, float],
    lags: List[float],
    misses: Optional[List[_Op]] = None,
    result_bytes: Optional[List[int]] = None,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Per-layer metrics from span dumps, plus the table behind them.

    ``dumps`` is ``[(role, doc)]`` with the load generator's own spans
    first.  Only spans starting inside the measured window count.  On
    the generator's thread the layers' self times and the unattributed
    residual add up to the window's wall time; server-side layers run
    beside it and are reported as their busy time over that wall time.
    """
    window_start, window_end = window
    wall = window_end - window_start
    layers: Dict[str, Dict[str, float]] = {}
    by_role: Dict[str, Dict[str, Dict[str, float]]] = {}
    loadgen_self = 0.0
    loadgen_client: List[Tuple[float, float]] = []
    solves: Dict[str, Dict[str, float]] = {}
    cache_gets = cache_hits = spans = 0
    for role, doc in dumps:
        for record in doc["spans"]:
            if not window_start <= record["start"] < window_end:
                continue
            name = record["name"]
            if role == "router":
                name = ROUTER_CLIENT_LAYERS.get(name, name)
            for table in (layers, by_role.setdefault(role, {})):
                layer = table.setdefault(name, {"calls": 0, "self_s": 0.0})
                layer["calls"] += 1
                layer["self_s"] += record["self"]
            spans += 1
            if role == "loadgen" and record["thread"] == doc["main_thread"]:
                loadgen_self += record["self"]
                if name.startswith("service.client."):
                    loadgen_client.append((record["start"], record["end"]))
            if name == "service.jobs.run_spec" and "key" in record:
                solves[record["key"]] = record
            if name == "service.cache.get":
                cache_gets += 1
                cache_hits += bool(record.get("hit"))

    # Where a miss's latency goes: its queue wait and solve on the worker.
    queue_wait = solve = latency = 0.0
    for op in misses or []:
        record = solves.get(op.payload.get("spec_hash")) if op.payload else None
        if record is not None and op.done_latency is not None:
            queue_wait += record["queue_wait"]
            solve += record["end"] - record["start"]
            latency += op.done_latency

    # Most client calls open at once (an opening at the instant another
    # closes does not overlap it).
    connections = open_now = 0
    for _time, delta in sorted(
        [(start, 1) for start, _end in loadgen_client]
        + [(end, -1) for _start, end in loadgen_client]
    ):
        open_now += delta
        connections = max(connections, open_now)

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    values: Dict[str, float] = dict(counters)
    for name in {n.rsplit(".", 1)[0] for n in _per_layer_names()}:
        values[f"{name}.calls"] = layer(name, "calls")
        values[f"{name}.self_share"] = layer(name, "self_s") / wall
    residual = wall - loadgen_self
    values.update(
        {
            "service.jobs.queue_wait_share": queue_wait / latency if latency else 0.0,
            "service.jobs.solve_share": solve / latency if latency else 0.0,
            "service.cache.hit_ratio": cache_hits / cache_gets if cache_gets else 0.0,
            "service.client.result_bytes_p50": (
                percentile(result_bytes, 50) if result_bytes else 0.0
            ),
            "service.client.polls_per_miss": (
                statistics.fmean(op.polls for op in misses) if misses else 0.0
            ),
            "loadgen.lag_p90_ms": percentile(lags, 90) * 1000.0,
            "loadgen.threads": threading.active_count(),
            "loadgen.connections_max": connections,
            "trace.wall_s": wall,
            "trace.residual_share": residual / wall,
            "trace.spans": spans,
            "trace.solve_p50_s": e2e["solve_p50_s"],
            "trace.warm_p50_ms": e2e["warm_p50_ms"],
        }
    )
    table = {
        "wall_s": wall,
        "loadgen_self_s": loadgen_self,
        "residual_s": residual,
        "span_cost_s": span_cost_seconds(),
        "layers": by_role,
    }
    table["overhead_est_s"] = table["span_cost_s"] * spans
    return values, table


def _per_layer_names() -> List[str]:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [
        metric["name"]
        for metric in config["per_layer"]
        if metric["name"].endswith((".calls", ".self_share"))
    ]


# ----------------------------------------------------------------------
def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> RunResult:
    """Run one workload; probe the CPU speed before and after."""
    sizes = SMOKE if smoke else FULL
    tracer = Tracer() if trace else None
    probe_before = cpu_probe_ms()
    if name in ("flow-iscas", "multilevel-rent"):
        run = run_library(name, seed, seconds, sizes, tracer)
    else:
        run = run_service(name, seed, seconds, sizes, tracer)
    run.extra["meta"] = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "native_kernel_built": native_kernel.available(),
        "cpu_probe_ms": [probe_before, cpu_probe_ms()],
    }
    return run

"""Span recording for the traced runs of the end-to-end benchmark.

The program under test is not edited: spans are recorded by wrapping
the public functions of each layer from the outside.  :func:`install`
replaces a function everywhere the running interpreter can reach it —
on its class, or in every loaded ``repro`` module that bound it with
``from X import f`` — so calls made through an imported name are
traced too.

A span records its layer name, thread, start, end and *self* time: its
duration minus the part covered by spans opened inside it on the same
thread.  Stacks are per thread because the service solves jobs on
executor threads while its event loop keeps serving requests.

Times come from ``time.perf_counter``, which reads ``CLOCK_MONOTONIC``
on Linux, so spans recorded by different processes on one host share a
time base and can be lined up against the load generator's window.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: ``(module, qualified name, layer)`` of every wrapped public function.
#: The solver layers run in the library workloads' own process and in
#: every service worker.
SOLVER_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.core.flow_htp", "flow_htp", "core.flow_htp"),
    ("repro.core.construct", "construct_partition", "core.construct"),
    (
        "repro.core.spreading_metric",
        "compute_spreading_metric",
        "core.spreading_metric",
    ),
    ("repro.htp.cost", "total_cost", "htp.cost"),
    ("repro.hypergraph.expansion", "to_graph", "hypergraph.expansion"),
    ("repro.partitioning.coarsening", "coarsen", "partitioning.coarsening"),
    (
        "repro.partitioning.coarsening",
        "project_assignment",
        "partitioning.coarsening",
    ),
    ("repro.partitioning.rfm", "rfm_partition", "partitioning.rfm"),
    (
        "repro.partitioning.multilevel_flow",
        "multilevel_flow_htp",
        "partitioning.multilevel_flow",
    ),
]

#: The HTTP client, on the load generator's side and inside the router.
CLIENT_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.service.client", f"ServiceClient.{name}", f"service.client.{name}")
    for name in ("submit", "status", "result", "cache_lookup", "cache_push")
]

#: The service and router layers, inside ``htp serve`` / ``htp route``.
SERVICE_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.service.jobs", "JobSpec.from_payload", "service.jobs.parse"),
    ("repro.service.jobs", "JobSpec.canonical_hash", "service.jobs.hash"),
    ("repro.service.jobs", "JobManager.submit", "service.jobs.submit"),
    ("repro.service.jobs", "run_spec", "service.jobs.run_spec"),
    ("repro.service.journal", "Journal.append", "service.journal"),
    ("repro.service.cache", "ResultCache.get", "service.cache.get"),
    ("repro.service.cache", "ResultCache.put", "service.cache.put"),
    (
        "repro.service.cluster.router",
        "ClusterRouter.submit",
        "service.cluster.router",
    ),
    (
        "repro.service.cluster.router",
        "ClusterRouter.status",
        "service.cluster.router",
    ),
    (
        "repro.service.cluster.router",
        "ClusterRouter.result",
        "service.cluster.router",
    ),
    (
        "repro.service.cluster.placement",
        "ConsistentHashPolicy.choose",
        "service.cluster.placement",
    ),
    (
        "repro.service.cluster.placement",
        "CapacityPolicy.choose",
        "service.cluster.placement",
    ),
]

ROLE_TARGETS = {
    "library": SOLVER_TARGETS,
    "client": CLIENT_TARGETS,
    "server": SOLVER_TARGETS + SERVICE_TARGETS + CLIENT_TARGETS,
}


class Tracer:
    """In-memory span recorder with per-thread stacks."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> list:
        frame = [clock(), 0.0]  # start, time covered by child spans
        self._stack().append(frame)
        return frame

    def _close(self, name: str, frame: list) -> Dict[str, object]:
        end = clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        span = {
            "name": name,
            "thread": threading.get_ident(),
            "depth": len(stack),
            "start": frame[0],
            "end": end,
            "self": duration - frame[1],
        }
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def wrap(
        self,
        name: str,
        fn: Callable,
        hook: Optional[Callable[[dict, tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``hook(span, args, result)``
        may annotate the span after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = self._close(name, frame)
                if hook is not None:
                    hook(span, args, result)

        return traced

    def dump(self, path: str, role: str) -> None:
        """Write every span recorded so far as one JSON document."""
        doc = {
            "role": role,
            "pid": os.getpid(),
            "main_thread": threading.main_thread().ident,
            "spans": list(self.spans),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _service_hooks() -> Dict[str, Callable]:
    """Annotations that join a job's submit to its solve.

    ``JobManager.submit`` returns the job; the spec object it carries is
    the one ``run_spec`` later receives, so its ``id`` links the two and
    gives the job's queue wait and content address.
    """
    submitted: Dict[int, Tuple[float, str]] = {}

    def on_submit(span, args, job) -> None:
        if job is not None:
            submitted[id(args[1])] = (span["end"], job.spec_hash)
            span["key"] = job.spec_hash

    def on_run_spec(span, args, _result) -> None:
        entry = submitted.pop(id(args[0]), None)
        if entry is not None:
            span["queue_wait"] = span["start"] - entry[0]
            span["key"] = entry[1]

    def on_cache_get(span, _args, payload) -> None:
        span["hit"] = payload is not None

    return {
        "service.jobs.submit": on_submit,
        "service.jobs.run_spec": on_run_spec,
        "service.cache.get": on_cache_get,
    }


def install(tracer: Tracer, role: str) -> None:
    """Wrap every target of ``role`` (``library``, ``client``, ``server``)."""
    targets = ROLE_TARGETS[role]
    hooks = _service_hooks()
    # Import every target first: the scan below rebinds the names that
    # already-loaded modules imported; modules loaded later import the
    # wrapped functions.
    for module_name, _qualname, _layer in targets:
        importlib.import_module(module_name)
    for module_name, qualname, layer in targets:
        owner = sys.modules[module_name]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        hook = hooks.get(layer)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(layer, raw.__func__, hook)))
            else:
                setattr(owner, attr, tracer.wrap(layer, raw, hook))
            continue
        raw = getattr(owner, attr)
        traced = tracer.wrap(layer, raw, hook)
        for module in list(sys.modules.values()):
            if (
                module is not None
                and module.__name__.split(".")[0] == "repro"
                and getattr(module, attr, None) is raw
            ):
                setattr(module, attr, traced)


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of one traced call of a no-op, for overhead estimates."""
    tracer = Tracer()
    traced = tracer.wrap("calibrate", lambda: None)
    start = clock()
    for _ in range(samples):
        traced()
    traced_s = clock() - start
    plain = lambda: None  # noqa: E731
    start = clock()
    for _ in range(samples):
        plain()
    return max(0.0, (traced_s - (clock() - start)) / samples)

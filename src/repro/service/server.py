"""Stdlib-only HTTP front end of the partitioning service.

``asyncio.start_server`` plus hand-rolled HTTP/1.0 framing — no new
dependencies.  One request per connection (the thin client opens a
fresh connection per call), JSON bodies both ways.

Endpoints
---------
=======  =======================  ==========================================
method   path                     meaning
=======  =======================  ==========================================
POST     ``/jobs``                submit a JobSpec payload; returns the job
GET      ``/jobs``                list all jobs (submission order)
GET      ``/jobs/<id>``           job status
GET      ``/jobs/<id>/result``    result payload (409 until ``done``)
POST     ``/jobs/<id>/cancel``    cancel a queued/running job
GET      ``/healthz``             liveness + per-state job counts
GET      ``/metricsz``            merged PerfCounters + cache stats
GET      ``/cache/<hash>``        durable-cache read-through (cluster)
PUT      ``/cache/<hash>``        result replica install (cluster)
GET      ``/ckpt/<hash>``         checkpoint frame listing (cluster)
GET      ``/ckpt/<hash>/<seq>``   one CRC-stamped checkpoint frame
PUT      ``/ckpt/<hash>/<seq>``   checkpoint frame replica install
=======  =======================  ==========================================

Error responses are ``{"error": ...}`` with conventional status codes:
400 malformed request/spec, 404 unknown job, 405 wrong method, 409
result not ready (with the job's ``state`` and ``job_error``), 429
queue full (with a ``Retry-After`` header), 503 shutting down.  A
submission may carry a top-level ``deadline`` (seconds of wall clock
the client will wait: a finite, positive number); it caps the job
timeout and is polled by the solver every round, but is *not* part of
the spec's content address.

:class:`HttpServerBase` holds what the worker and the cluster router
(:mod:`repro.service.cluster.router`) share: the HTTP/1.0 framing and
the ``/jobs`` grammar over a job backend (a :class:`JobManager` here, a
``ClusterRouter`` there — both raise the same job errors, mapped to
status codes once, in :func:`_error_response`).  :class:`PartitionServer`
is the worker.  :class:`ServerThread` runs either server on a daemon
thread for embedding in synchronous code (tests, benchmarks, the smoke
script), and :func:`run_until_signalled` is the signal-driven loop
behind ``htp serve`` and ``htp route``.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.checkpoint import (
    install_checkpoint_frame,
    list_checkpoint_frames,
    newest_checkpoint_age,
)
from repro.core.flow_htp import FlowHTPResult
from repro.errors import PartitionError, ServiceError
from repro.service.jobs import (
    AdmissionError,
    JobManager,
    JobSpec,
    ResultNotReady,
    UnknownJobError,
)

_HEX = frozenset("0123456789abcdef")

#: Largest accepted request body (netlists are a few MB at paper scale).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default TCP port of ``htp serve`` / ``htp submit``.
DEFAULT_PORT = 8947

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """Internal: aborts handling with a status code and message."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


def _error_response(
    exc: ServiceError,
) -> Tuple[int, Dict[str, object], Dict[str, str]]:
    """Status, body and headers for a job error raised by either tier."""
    payload: Dict[str, object] = {"error": str(exc)}
    if isinstance(exc, UnknownJobError):
        return 404, payload, {}
    if isinstance(exc, ResultNotReady):
        payload["state"] = exc.state
        if exc.job_error is not None:
            payload["job_error"] = exc.job_error
        return 409, payload, {}
    if isinstance(exc, AdmissionError):
        # ``:g`` keeps a fractional hint (a 1.5 s ask) intact on the wire.
        return 429, payload, {"Retry-After": f"{exc.retry_after:g}"}
    return 400, payload, {}


def _take_deadline(payload: Dict[str, object]) -> Optional[float]:
    """Pop the optional top-level ``deadline`` (seconds) off a submission.

    It rides beside the spec, never inside its content address, and must
    be a finite, positive, non-boolean number, as ``JobSpec`` numbers are.
    """
    if "deadline" not in payload:
        return None
    raw = payload.pop("deadline")
    deadline = math.nan
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            deadline = float(raw)
        except OverflowError:  # an integer past float range
            deadline = math.inf
    if not (math.isfinite(deadline) and deadline > 0):
        raise _HttpError(
            400,
            f"bad deadline {raw!r}: must be a finite, positive number "
            "of seconds",
        )
    return deadline


class HttpServerBase:
    """Shared asyncio HTTP/1.0 plumbing of the service and the router.

    Subclasses implement ``async _route(method, path, body) -> (status,
    payload)`` and may raise :class:`_HttpError` / :class:`ServiceError`
    for conventional error responses.  Binding, framing, error mapping,
    the ``/jobs`` grammar (:meth:`_jobs_route`) and teardown live here.

    For :class:`ServerThread` and :func:`run_until_signalled` a subclass
    also provides ``start()``, ``stop(drain)``, ``ready_lines()`` (the
    lines announced once serving), ``STOPPING`` (announced when a
    shutdown signal arrives) and ``stopped_line()``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port  # replaced by the bound port after binding
        self._server: Optional[asyncio.AbstractServer] = None
        #: Journal-recovery counts, filled by :meth:`start`.
        self.recovery_summary: Dict[str, int] = {}

    async def _bind(self) -> None:
        """Bind the listening socket and learn the ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _unbind(self) -> None:
        """Stop accepting connections (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        """The base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        raise NotImplementedError  # pragma: no cover - interface

    @staticmethod
    def _tally(label: str, counts: Dict[str, int]) -> str:
        """``label: name=count ...``, the announce form of a count table."""
        return label + ": " + " ".join(
            f"{name}={count}" for name, count in counts.items()
        )

    def _recovery_lines(self, label: str) -> List[str]:
        """The journal-recovery announce line, when anything was recovered."""
        summary = {k: v for k, v in self.recovery_summary.items() if v}
        if not summary.get("recovered"):
            return []
        return [self._tally(label, summary)]

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            headers: Dict[str, str] = {}
            try:
                method, path, body = await self._read_request(reader)
                status, payload = await self._route(method, path, body)
            except _HttpError as exc:
                status, payload = exc.status, {"error": exc.message}
                headers = exc.headers
            except ServiceError as exc:
                status, payload, headers = _error_response(exc)
            except Exception as exc:  # pragma: no cover - defensive
                status, payload = 500, {"error": repr(exc)}
            await self._write_response(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _sep, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as exc:
                    raise _HttpError(400, "bad Content-Length") from exc
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"body exceeds {MAX_BODY_BYTES} byte limit"
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method.upper(), path, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.0 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}, not {method}")

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, object]:
        """Decode a JSON object body, mapping failures to 400."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # The job endpoints, over either tier's backend
    # ------------------------------------------------------------------
    def _jobs_route(
        self, jobs, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """Serve the ``/jobs`` endpoints from ``jobs``; 404 otherwise.

        ``jobs`` is a :class:`JobManager` or a ``ClusterRouter``: both
        offer ``submit(spec, deadline)``, ``status(id)``, ``result(id)``,
        ``cancel(id)`` and ``jobs()`` and raise the errors
        :func:`_error_response` maps.  The router blocks on its workers,
        so it runs this off its event loop.
        """
        if path == "/jobs":
            if method == "POST":
                return 200, self._submit(jobs, body)
            self._require(method, "GET")
            return 200, {"jobs": [job.status() for job in jobs.jobs()]}
        if not path.startswith("/jobs/"):
            raise _HttpError(404, f"no such endpoint {path!r}")
        rest = path[len("/jobs/"):]
        if rest.endswith("/result"):
            self._require(method, "GET")
            return 200, jobs.result(rest[: -len("/result")])
        if rest.endswith("/cancel"):
            self._require(method, "POST")
            return 200, jobs.cancel(rest[: -len("/cancel")]).status()
        self._require(method, "GET")
        return 200, jobs.status(rest)

    def _submit(self, jobs, body: bytes) -> Dict[str, object]:
        payload = self._json_body(body)
        deadline = _take_deadline(payload)
        spec = JobSpec.from_payload(payload)  # ServiceError -> 400
        self._admit(spec, payload)
        try:
            return jobs.submit(spec, deadline).status()
        except AdmissionError:
            raise  # 429 with its Retry-After hint
        except ServiceError as exc:
            # Shutting down, no eligible worker, or the worker refused:
            # the request was fine, the service cannot take it now.
            raise _HttpError(503, str(exc)) from exc

    def _admit(self, spec: JobSpec, payload: Dict[str, object]) -> None:
        """Hook between parsing a submission and submitting it."""


class PartitionServer(HttpServerBase):
    """The asyncio HTTP server wrapping a :class:`JobManager`.

    A clustered worker additionally carries ``cluster_view`` (the
    :class:`~repro.service.cluster.replication.ClusterView` its agent
    keeps current — used to fence forwards from zombie routers) and
    ``replicator`` (the checkpoint replicator consulted before solving a
    forwarded job this worker has nothing local for).  Both stay None on
    a plain single-box ``htp serve``.  With ``join_kwargs`` set (see
    :func:`make_worker_agent`) :meth:`start` builds and starts the
    agent that keeps them current, and :meth:`stop` stops it first.
    """

    STOPPING = "shutting down (draining in-flight jobs)"

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host=host, port=port)
        self.manager = manager
        self.cluster_view = None
        self.replicator = None
        self.join_kwargs: Optional[Dict[str, object]] = None
        self.agent = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the manager, replay the journal, bind the socket.

        Recovery runs *before* the socket accepts its first request, so
        clients never observe a half-recovered job table; the summary is
        kept on :attr:`recovery_summary` for the CLI to announce.
        """
        await self.manager.start()
        self.recovery_summary = self.manager.recover()
        await self._bind()
        if self.join_kwargs:
            kwargs = dict(self.join_kwargs)
            advertise_url = kwargs.pop("advertise_url", None) or self.url
            self.agent = make_worker_agent(self.manager, advertise_url, kwargs)
            self.cluster_view = self.agent.view
            self.replicator = self.agent.replicator
            self.agent.start()

    async def stop(self, drain: bool = True) -> None:
        """Leave the cluster, stop listening, then shut the manager down
        (draining by default)."""
        if self.agent is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.agent.stop
            )
            self.agent = None
        await self._unbind()
        await self.manager.shutdown(drain=drain)

    def ready_lines(self) -> List[str]:
        lines = self._recovery_lines("recovered from journal")
        lines.append(f"serving on {self.url}")
        if self.agent is not None:
            lines.append(
                f"joining cluster at {self.agent.router_url} "
                f"as {self.agent.worker_id}"
            )
        return lines

    def stopped_line(self) -> str:
        return self._tally("drained", self.manager.state_counts())

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._require(method, "GET")
            return 200, {
                "status": "ok",
                "accepting": self.manager.accepting,
                "jobs": self.manager.state_counts(),
            }
        if path == "/metricsz":
            self._require(method, "GET")
            manager = self.manager
            cache = manager.cache
            checkpoints = None
            if manager.checkpoint_root is not None:
                checkpoints = {
                    "root": str(manager.checkpoint_root),
                    "newest_age_seconds": newest_checkpoint_age(
                        manager.checkpoint_root
                    ),
                }
            return 200, {
                "perf": manager.counters.as_dict(),
                "cache": cache.stats() if cache is not None else None,
                "queue": {
                    "depth": manager.queue_depth(),
                    "max_depth": manager.max_queue_depth,
                    "rejections": manager.counters.admission_rejections,
                    "retry_after": manager.retry_after(),
                },
                "journal": (
                    manager.journal.stats()
                    if manager.journal is not None
                    else None
                ),
                "checkpoints": checkpoints,
            }
        if path.startswith("/cache/"):
            # The cluster read-through tier: the router answers a warm
            # submission from *any* worker's durable cache by asking the
            # owner directly for the content address.  PUT is the
            # write-through half — the router replicating a fresh result
            # here so it survives its producer's death.
            spec_hash = path[len("/cache/"):]
            if method == "PUT":
                return self._cache_install(spec_hash, body)
            self._require(method, "GET")
            return self._cache_lookup(spec_hash)
        if path.startswith("/ckpt/"):
            return self._ckpt_route(method, path[len("/ckpt/"):], body)
        return self._jobs_route(self.manager, method, path, body)

    def _cache_lookup(self, spec_hash: str) -> Tuple[int, Dict[str, object]]:
        cache = self.manager.cache
        if cache is None:
            raise _HttpError(404, "this worker runs without a result cache")
        try:
            payload = cache.get(spec_hash)
        except ServiceError as exc:  # malformed key
            raise _HttpError(400, str(exc)) from exc
        if payload is None:
            raise _HttpError(
                404, f"no cached result for content address {spec_hash}"
            )
        return 200, dict(payload)

    def _cache_install(
        self, spec_hash: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        cache = self.manager.cache
        if cache is None:
            raise _HttpError(404, "this worker runs without a result cache")
        payload = self._json_body(body)
        try:
            # Install only a payload labelled with this address whose
            # result decodes (not proof that it answers the spec).
            FlowHTPResult.from_dict(payload.get("result"))
            cache.put(spec_hash, payload)
        except (PartitionError, ServiceError) as exc:
            raise _HttpError(400, str(exc)) from exc
        return 200, {"spec_hash": spec_hash, "stored": True}

    # ------------------------------------------------------------------
    # Checkpoint replication endpoints (cluster failover)
    # ------------------------------------------------------------------
    def _ckpt_route(
        self, method: str, rest: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        root = self.manager.checkpoint_root
        if root is None:
            raise _HttpError(
                404, "this worker runs without a checkpoint root"
            )
        spec_hash, _, seq_text = rest.partition("/")
        if not spec_hash or not set(spec_hash) <= _HEX:
            # Content addresses are hex; anything else (notably path
            # segments) never touches the filesystem.
            raise _HttpError(400, f"bad content address {spec_hash!r}")
        if not seq_text:
            self._require(method, "GET")
            frames = list_checkpoint_frames(root / spec_hash)
            return 200, {
                "spec_hash": spec_hash,
                "frames": [seq for seq, _path in frames],
            }
        try:
            seq = int(seq_text)
        except ValueError as exc:
            raise _HttpError(
                400, f"bad frame sequence {seq_text!r}"
            ) from exc
        if method == "PUT":
            envelope = self._json_body(body)
            written = install_checkpoint_frame(
                root / spec_hash, seq, envelope,
                counters=self.manager.counters,
            )
            if written is None:
                raise _HttpError(
                    400,
                    f"frame {spec_hash}/{seq} failed its CRC check; "
                    "discarded",
                )
            return 200, {"spec_hash": spec_hash, "seq": seq, "stored": True}
        self._require(method, "GET")
        path = root / spec_hash / f"ckpt-{seq:08d}.json"
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise _HttpError(
                404, f"no frame {seq} for content address {spec_hash}"
            ) from exc
        if not isinstance(envelope, dict):
            raise _HttpError(
                404, f"no frame {seq} for content address {spec_hash}"
            )
        return 200, envelope

    def _admit(self, spec: JobSpec, payload: Dict[str, object]) -> None:
        """Fence forwards from zombie routers; fetch replicated frames."""
        if "router_epoch" not in payload:
            return
        # The router's fencing stamp rides beside the spec like the
        # deadline does — never inside the content address.  A stamp
        # older than the newest epoch this worker has seen means the
        # sender is a fenced zombie: refuse with 409 so the job fails
        # at the zombie instead of running twice.
        router_epoch = payload.pop("router_epoch")
        view = self.cluster_view
        if view is not None and not view.admit_epoch(router_epoch):
            raise _HttpError(
                409,
                f"stale router epoch {router_epoch!r}; this worker "
                f"has seen epoch {view.epoch}",
            )
        if self.replicator is not None:
            # Failover read path: a forwarded job this worker holds
            # nothing for may have replicated checkpoint frames on its
            # peers — pull them in before the solve so ``resume_from``
            # continues the dead owner's run bit-identically.  Guarded
            # by the cache: a result we already hold needs no frames.
            spec_hash = spec.canonical_hash()
            cache = self.manager.cache
            if cache is None or spec_hash not in cache.keys():
                try:
                    self.replicator.fetch(spec_hash)
                except Exception:  # pragma: no cover - defensive
                    pass  # replication is best-effort; solve from scratch


class ServerThread:
    """A server on a daemon thread, for sync callers.

    The constructor blocks until the socket is bound (so ``.port`` and
    ``.url`` are valid immediately); :meth:`stop` performs the graceful
    (or hard) shutdown and joins the thread.  Usable as a context
    manager.  Runs a :class:`PartitionServer` over
    ``JobManager(**manager_kwargs)``; subclasses (the cluster's
    ``RouterThread``) pick another server through :meth:`_start`.
    """

    def __init__(
        self,
        manager_kwargs: Optional[Dict[str, object]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        kwargs = dict(manager_kwargs or {})
        self._start(
            lambda: PartitionServer(JobManager(**kwargs), host=host, port=port)
        )

    def _start(self, make_server: Callable[[], HttpServerBase]) -> None:
        """Build the server on a fresh thread's loop, start it, and wait."""
        self._make_server = make_server
        self._started = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._drain = True
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None
        self.server = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        try:
            self.server = self._make_server()
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_requested.wait()
        await self.server.stop(drain=self._drain)

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    @property
    def manager(self) -> JobManager:
        assert self.server is not None
        return self.server.manager

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down and join the server thread."""
        if self._loop is None or self._stop_requested is None:
            return
        self._drain = drain
        try:
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        except RuntimeError:  # loop already closed
            pass
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def make_worker_agent(
    manager: JobManager, worker_url: str, join_kwargs: Dict[str, object]
):
    """Build the cluster agent for a serving worker (``--join`` wiring).

    ``join_kwargs`` carries ``router_url`` plus the optional identity
    knobs (``worker_id``, ``weight``, ``interval``).  Load and
    cached-keys callbacks are wired to the live manager; the advertised
    concurrency is the manager's own.  Imported lazily so a plain
    single-box ``htp serve`` never touches the cluster package.

    When the manager keeps a checkpoint root, the agent also gets a
    :class:`~repro.service.cluster.replication.CheckpointReplicator`
    that pushes fresh frames to ring-chosen peers on every heartbeat;
    wire the agent's ``view``/``replicator`` onto the
    :class:`PartitionServer` (its ``start`` does, given ``join_kwargs``)
    to complete the worker's fencing and failover-fetch paths.
    """
    from repro.service.cluster.agent import WorkerAgent
    from repro.service.cluster.replication import CheckpointReplicator

    kwargs = dict(join_kwargs)
    router_url = kwargs.pop("router_url")
    cache = manager.cache
    agent = WorkerAgent(
        router_url=router_url,
        worker_url=worker_url,
        max_concurrency=manager.max_concurrency,
        cached_keys=(lambda: cache.keys()) if cache is not None else None,
        load=lambda: manager.in_flight,
        **kwargs,
    )
    if manager.checkpoint_root is not None:
        agent.replicator = CheckpointReplicator(
            manager.checkpoint_root,
            agent.worker_id,
            agent.view,
            counters=manager.counters,
        )
    return agent


def run_until_signalled(
    make_server: Callable[[], HttpServerBase], announce=print
) -> int:
    """Run a server until SIGINT/SIGTERM, then stop it and exit (0).

    The blocking loop behind ``htp serve`` and ``htp route``:
    ``make_server`` builds the server inside the event loop, and
    ``announce`` gets its :meth:`ready_lines` once the socket is bound
    (the smoke scripts parse ``serving on http://...`` and ``routing on
    http://...`` to learn an ephemeral port), then its
    :attr:`STOPPING` and :meth:`stopped_line` around the shutdown.
    """

    async def _main() -> None:
        server = make_server()
        await server.start()
        for line in server.ready_lines():
            announce(line)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / platform without signal support
        await stop.wait()
        announce(server.STOPPING)
        await server.stop()
        announce(server.stopped_line())

    asyncio.run(_main())
    return 0

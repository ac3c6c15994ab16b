"""Thin blocking client for the partitioning service.

Wraps ``http.client`` (stdlib) around the server's JSON endpoints: one
connection per call, conventional status codes mapped to
:class:`ServiceClientError`.  :meth:`ServiceClient.partition` is the
high-level helper behind ``htp submit`` — build a spec, submit, poll
until terminal, return the deserialized :class:`FlowHTPResult`.

Idempotent reads (status, result, listings, health and metrics probes)
transparently retry on a reset or half-closed connection — the normal
weather around a server restart — with the bounded exponential backoff
of a :class:`~repro.core.faults.FaultTolerance`.  Submissions and
cancels never retry: POSTs are not idempotent and a duplicate is worse
than an error.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Dict, Optional

from repro.core.faults import FaultTolerance
from repro.core.flow_htp import FlowHTPResult
from repro.errors import ServiceError
from repro.htp.hierarchy import HierarchySpec
from repro.hypergraph.hypergraph import Hypergraph
from repro.service.jobs import JobSpec, JobState, TERMINAL_STATES

#: Transport failures worth retrying on an idempotent request: the
#: server died mid-response or the listener bounced.  Refusals
#: (``ConnectionRefusedError``) are *not* here — a down server fails
#: fast rather than burning the backoff budget.
_RETRYABLE = (ConnectionResetError, http.client.RemoteDisconnected)


class ServiceClientError(ServiceError):
    """An HTTP-level failure talking to the service.

    ``status`` holds the HTTP status code (0 for connection failures);
    ``retry_after`` carries the server's ``Retry-After`` hint (seconds)
    on 429 responses, None otherwise.
    """

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after: Optional[float] = None


class ServiceClient:
    """A handle on one server, e.g. ``ServiceClient("http://127.0.0.1:8947")``."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        tolerance: Optional[FaultTolerance] = None,
    ) -> None:
        parsed = urllib.parse.urlparse(base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServiceClientError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.tolerance = tolerance or FaultTolerance()

    # ------------------------------------------------------------------
    # Raw endpoint wrappers
    # ------------------------------------------------------------------
    def submit(
        self,
        spec_payload: Dict[str, object],
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        """POST /jobs — returns the job status document.

        ``deadline`` (seconds) rides beside the spec as the top-level
        payload key the server turns into a job deadline; it never
        touches the spec's content address.
        """
        if deadline is not None:
            spec_payload = dict(spec_payload)
            spec_payload["deadline"] = float(deadline)
        return self._request("POST", "/jobs", body=spec_payload)

    def submit_spec(
        self, spec: JobSpec, deadline: Optional[float] = None
    ) -> Dict[str, object]:
        """Submit a library-level :class:`JobSpec`."""
        return self.submit(spec.to_payload(), deadline=deadline)

    def status(self, job_id: str) -> Dict[str, object]:
        """GET /jobs/<id>."""
        return self._request("GET", f"/jobs/{job_id}", idempotent=True)

    def result(self, job_id: str) -> Dict[str, object]:
        """GET /jobs/<id>/result (raises 409 ServiceClientError until done)."""
        return self._request(
            "GET", f"/jobs/{job_id}/result", idempotent=True
        )

    def cancel(self, job_id: str) -> Dict[str, object]:
        """POST /jobs/<id>/cancel."""
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def jobs(self) -> Dict[str, object]:
        """GET /jobs."""
        return self._request("GET", "/jobs", idempotent=True)

    def healthz(self) -> Dict[str, object]:
        """GET /healthz."""
        return self._request("GET", "/healthz", idempotent=True)

    def metricsz(self) -> Dict[str, object]:
        """GET /metricsz."""
        return self._request("GET", "/metricsz", idempotent=True)

    def cache_lookup(self, spec_hash: str) -> Dict[str, object]:
        """GET /cache/<hash> — a worker's durable-cache read-through.

        Used by the cluster router to answer a submission from *any*
        worker's disk cache; 404 (raised as :class:`ServiceClientError`)
        means the worker no longer holds that content address.
        """
        return self._request(
            "GET", f"/cache/{spec_hash}", idempotent=True
        )

    # ------------------------------------------------------------------
    # Cluster replication + failover endpoints
    # ------------------------------------------------------------------
    def cache_push(
        self, spec_hash: str, payload: Dict[str, object]
    ) -> Dict[str, object]:
        """PUT /cache/<hash> — the router's write-through replication.

        Idempotent by content address, so retries are safe; the worker
        answers 400 unless ``payload`` is labelled ``spec_hash`` and decodes.
        """
        return self._request(
            "PUT", f"/cache/{spec_hash}", body=payload, idempotent=True
        )

    def ckpt_frames(self, spec_hash: str) -> Dict[str, object]:
        """GET /ckpt/<hash> — the frame sequence numbers a peer holds."""
        return self._request("GET", f"/ckpt/{spec_hash}", idempotent=True)

    def ckpt_frame(self, spec_hash: str, seq: int) -> Dict[str, object]:
        """GET /ckpt/<hash>/<seq> — one CRC-stamped checkpoint envelope."""
        return self._request(
            "GET", f"/ckpt/{spec_hash}/{int(seq)}", idempotent=True
        )

    def ckpt_push(
        self, spec_hash: str, seq: int, envelope: Dict[str, object]
    ) -> Dict[str, object]:
        """PUT /ckpt/<hash>/<seq> — replicate one checkpoint frame.

        Idempotent: frame content is fixed by (hash, seq), so replaying
        a push atomically rewrites identical bytes.
        """
        return self._request(
            "PUT",
            f"/ckpt/{spec_hash}/{int(seq)}",
            body=envelope,
            idempotent=True,
        )

    def wal_since(self, since: int) -> Dict[str, object]:
        """GET /wal?since=<n> — the router journal tail a standby polls."""
        return self._request(
            "GET", f"/wal?since={int(since)}", idempotent=True
        )

    def register_standby(self, url: str) -> Dict[str, object]:
        """POST /standby — announce a warm standby's URL to the primary."""
        return self._request("POST", "/standby", body={"url": url})

    # ------------------------------------------------------------------
    # High-level flow
    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = 300.0,
        poll_interval: float = 0.05,
    ) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; returns its status."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if JobState(status["state"]) in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceClientError(
                    f"job {job_id} still {status['state']} after {timeout:g}s"
                )
            time.sleep(poll_interval)

    def partition(
        self,
        netlist: Hypergraph,
        hierarchy: HierarchySpec,
        config: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = 300.0,
        poll_interval: float = 0.05,
        deadline: Optional[float] = None,
    ) -> FlowHTPResult:
        """Submit, poll, deserialize — the one-call client experience.

        Raises :class:`ServiceClientError` when the job fails or is
        cancelled (the job's error message is included).
        """
        spec = JobSpec.from_parts(netlist, hierarchy, config)
        submitted = self.submit_spec(spec, deadline=deadline)
        status = self.wait(
            str(submitted["job_id"]),
            timeout=timeout,
            poll_interval=poll_interval,
        )
        if status["state"] != JobState.DONE.value:
            raise ServiceClientError(
                f"job {status['job_id']} ended {status['state']}: "
                f"{status.get('error', 'no detail')}"
            )
        payload = self.result(str(status["job_id"]))
        return FlowHTPResult.from_dict(payload["result"])

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        idempotent: bool = False,
    ) -> Dict[str, object]:
        """One HTTP exchange; idempotent requests retry reset connections.

        The retry budget and backoff curve come from ``self.tolerance``
        (``task_retries`` waves of ``backoff(wave)`` sleep), the same
        budgets every other recovery ladder in the repo uses.
        """
        retries = self.tolerance.task_retries if idempotent else 0
        wave = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except _RETRYABLE as exc:
                if wave >= retries:
                    raise ServiceClientError(
                        f"cannot reach service at {self.host}:{self.port}"
                        f" after {wave + 1} attempts: {exc}"
                    ) from exc
                wave += 1
                time.sleep(self.tolerance.backoff(wave))

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            try:
                connection.request(method, path, body=data, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except _RETRYABLE:
                raise  # _request decides whether another attempt is owed
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceClientError(
                    f"cannot reach service at {self.host}:{self.port}: {exc}"
                ) from exc
        finally:
            connection.close()
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceClientError(
                f"{method} {path}: non-JSON response "
                f"(status {response.status})",
                status=response.status,
            ) from exc
        if response.status != 200:
            detail = payload.get("error", repr(raw[:200]))
            error = ServiceClientError(
                f"{method} {path}: {detail}", status=response.status
            )
            retry_after = response.getheader("Retry-After")
            if retry_after is not None:
                try:
                    error.retry_after = float(retry_after)
                except ValueError:
                    pass
            raise error
        return payload

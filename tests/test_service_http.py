"""End-to-end tests of the partitioning service over a real socket.

A :class:`ServerThread` binds an ephemeral port per test; the blocking
:class:`ServiceClient` talks to it from the test thread.  The warm-hit
test is the PR's acceptance criterion: an identical JobSpec resubmitted
warm returns a bit-identical result while the spreading-metric solver
counters stand still.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.core.flow_htp import FlowHTPResult, flow_htp
from repro.htp.cost import total_cost
from repro.htp.hierarchy import binary_hierarchy
from repro.hypergraph.generators import (
    iscas85_surrogate,
    planted_hierarchy_hypergraph,
)
from repro.service import (
    JobSpec,
    JobState,
    ResultCache,
    ServerThread,
    ServiceClient,
    ServiceClientError,
)


@pytest.fixture(scope="module")
def netlist():
    return planted_hierarchy_hypergraph(48, height=2, seed=0)


@pytest.fixture(scope="module")
def hierarchy(netlist):
    return binary_hierarchy(netlist.total_size(), height=2)


@pytest.fixture
def spec(netlist, hierarchy):
    return JobSpec.from_parts(netlist, hierarchy, {"iterations": 1})


@pytest.fixture
def server(tmp_path):
    thread = ServerThread(
        manager_kwargs={
            "cache": ResultCache(capacity=8, cache_dir=tmp_path / "cache")
        }
    )
    yield thread
    thread.stop()


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestEndToEnd:
    def test_submit_poll_result_smoke(self, client, spec, netlist, hierarchy):
        """The canonical flow: submit -> poll -> result, over the wire."""
        submitted = client.submit_spec(spec)
        assert submitted["state"] in ("queued", "running", "done")
        status = client.wait(submitted["job_id"])
        assert status["state"] == "done"
        payload = client.result(submitted["job_id"])
        assert payload["spec_hash"] == spec.canonical_hash()
        result = FlowHTPResult.from_dict(payload["result"])
        # The served partition is genuinely the solver's answer: same
        # cost as a local run of the same spec, and internally consistent.
        local = flow_htp(netlist, hierarchy, spec.build_config())
        assert result.cost == local.cost
        assert (
            total_cost(netlist, result.partition, hierarchy) == result.cost
        )

    def test_warm_submit_is_bit_identical_and_skips_solver(
        self, client, spec
    ):
        """Acceptance: warm request == cold request, solver untouched."""
        cold = client.submit_spec(spec)
        client.wait(cold["job_id"])
        cold_payload = client.result(cold["job_id"])
        perf_after_cold = client.metricsz()["perf"]
        assert perf_after_cold["dijkstra_calls"] > 0
        assert perf_after_cold["injections"] > 0
        assert perf_after_cold["cache_misses"] == 1
        assert perf_after_cold["cache_hits"] == 0

        warm = client.submit_spec(spec)
        assert warm["state"] == "done"  # completed at submission time
        assert warm["cached"] is True
        warm_payload = client.result(warm["job_id"])
        assert json.dumps(warm_payload, sort_keys=True) == json.dumps(
            cold_payload, sort_keys=True
        )

        perf_after_warm = client.metricsz()["perf"]
        # The spreading-metric solver did not run again.
        assert (
            perf_after_warm["dijkstra_calls"]
            == perf_after_cold["dijkstra_calls"]
        )
        assert perf_after_warm["injections"] == perf_after_cold["injections"]
        assert perf_after_warm["cache_hits"] == 1

    def test_result_document_is_partition_plus_scalars(self, server, client):
        """The served result carries no per-edge metric arrays: each
        ``metric_results`` entry is four scalars, and a c1355 result
        fits in a few KB."""
        netlist = iscas85_surrogate("c1355", seed=1000)
        hierarchy = binary_hierarchy(netlist.total_size(), height=4)
        spec = JobSpec.from_parts(netlist, hierarchy, {"iterations": 1})
        job_id = client.submit_spec(spec)["job_id"]
        assert client.wait(job_id, timeout=120)["state"] == "done"
        with urllib.request.urlopen(
            f"{server.url}/jobs/{job_id}/result", timeout=10
        ) as response:
            body = response.read()
        entries = json.loads(body)["result"]["metric_results"]
        assert len(entries) == 1
        assert sorted(entries[0]) == [
            "injections", "objective", "rounds", "satisfied",
        ]
        assert len(body) < 5 * 1024

    def test_native_submission_hits_the_scipy_result(
        self, client, spec, netlist, hierarchy
    ):
        """The content address ignores the (bit-identical) metric engine."""
        cold = client.submit_spec(spec)
        client.wait(cold["job_id"])
        cold_payload = client.result(cold["job_id"])
        perf_after_cold = client.metricsz()["perf"]

        native = JobSpec.from_parts(
            netlist, hierarchy, {"iterations": 1, "engine": "native"}
        )
        warm = client.submit_spec(native)
        assert warm["cached"] is True
        assert warm["spec_hash"] == cold["spec_hash"]
        assert client.result(warm["job_id"]) == cold_payload
        perf_after_warm = client.metricsz()["perf"]
        for counter in ("dijkstra_calls", "injections", "cut_evals"):
            assert perf_after_warm[counter] == perf_after_cold[counter]

    def test_warm_hit_survives_server_restart(self, tmp_path, spec):
        """The disk tier makes warmth durable across processes."""
        cache_dir = tmp_path / "blobs"
        with ServerThread(
            manager_kwargs={"cache": ResultCache(cache_dir=cache_dir)}
        ) as first:
            client = ServiceClient(first.url)
            cold = client.submit_spec(spec)
            client.wait(cold["job_id"])
            cold_payload = client.result(cold["job_id"])
        with ServerThread(
            manager_kwargs={"cache": ResultCache(cache_dir=cache_dir)}
        ) as second:
            client = ServiceClient(second.url)
            warm = client.submit_spec(spec)
            assert warm["cached"] is True
            warm_payload = client.result(warm["job_id"])
            assert warm_payload == cold_payload
            perf = client.metricsz()["perf"]
            assert perf["dijkstra_calls"] == 0  # this server never solved

    def test_healthz_and_job_listing(self, client, spec):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["accepting"] is True
        submitted = client.submit_spec(spec)
        client.wait(submitted["job_id"])
        listing = client.jobs()
        assert [j["job_id"] for j in listing["jobs"]] == [
            submitted["job_id"]
        ]
        assert client.healthz()["jobs"]["done"] == 1

    def test_cancel_endpoint(self, netlist, hierarchy, tmp_path):
        release = threading.Event()

        def runner(spec):
            release.wait(5)
            raise RuntimeError("never reached in this test")

        thread = ServerThread(
            manager_kwargs={"max_concurrency": 1, "runner": runner}
        )
        try:
            client = ServiceClient(thread.url)
            blocker = client.submit_spec(
                JobSpec.from_parts(netlist, hierarchy, {"seed": 1})
            )
            queued = client.submit_spec(
                JobSpec.from_parts(netlist, hierarchy, {"seed": 2})
            )
            cancelled = client.cancel(queued["job_id"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceClientError) as excinfo:
                client.result(queued["job_id"])
            assert excinfo.value.status == 409
        finally:
            release.set()
            thread.stop(drain=False)

    def test_graceful_shutdown_with_in_flight_job(self, netlist, hierarchy):
        """Acceptance: shutdown completes the running job, cancels queued."""
        release = threading.Event()
        results = {"solved": 0}

        def runner(spec):
            release.wait(5)
            results["solved"] += 1
            return flow_htp(
                spec.build_netlist(),
                spec.build_hierarchy(),
                spec.build_config(),
            )

        thread = ServerThread(
            manager_kwargs={"max_concurrency": 1, "runner": runner}
        )
        client = ServiceClient(thread.url)
        running = client.submit_spec(
            JobSpec.from_parts(netlist, hierarchy, {"iterations": 1, "seed": 1})
        )
        queued = client.submit_spec(
            JobSpec.from_parts(netlist, hierarchy, {"iterations": 1, "seed": 2})
        )
        deadline = time.monotonic() + 5
        while client.status(running["job_id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        release.set()
        thread.stop(drain=True)  # graceful: drains the in-flight job
        manager = thread.manager
        assert results["solved"] == 1
        states = {
            job.job_id: job.state for job in manager.jobs()
        }
        assert states[running["job_id"]] is JobState.DONE
        assert states[queued["job_id"]] is JobState.CANCELLED


class TestHttpProtocol:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.status("not-a-job")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/healthz", body={})
        assert excinfo.value.status == 405

    def test_bad_json_body_is_400(self, client, server):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            connection.request("POST", "/jobs", body=b"{nope")
            response = connection.getresponse()
            assert response.status == 400
            assert b"JSON" in response.read()
        finally:
            connection.close()

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"netlist": {}, "hierarchy": "wat"})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "override",
        [
            {"iterations": 0},
            {"iterations": "abc"},
            {"delta": -1},
            {"find_cut_strategy": "bogus"},
            {"net_model": "bogus"},
            {"seed": 1.5},
            {"workers": 3},
        ],
    )
    def test_invalid_config_is_400_and_never_journaled(
        self, tmp_path, spec, override
    ):
        """Bad values fail admission instead of failing mid-solve."""
        from repro.service import Journal

        thread = ServerThread(
            manager_kwargs={"journal": Journal(tmp_path / "wal")}
        )
        try:
            client = ServiceClient(thread.url)
            payload = spec.to_payload()
            payload["config"].update(override)
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit(payload)
            assert excinfo.value.status == 400
            assert next(iter(override)) in str(excinfo.value)
            assert client.metricsz()["journal"]["appended"] == 0
            assert client.jobs()["jobs"] == []
        finally:
            thread.stop()

    @pytest.mark.parametrize(
        "body", [{"result": {"cost": -1}}, {"result": "x"}]
    )
    def test_cache_push_refuses_a_payload_it_cannot_serve(
        self, client, spec, body
    ):
        spec_hash = spec.canonical_hash()
        with pytest.raises(ServiceClientError) as exc_info:
            client.cache_push(spec_hash, body)
        assert exc_info.value.status == 400
        with pytest.raises(ServiceClientError) as exc_info:
            client.cache_lookup(spec_hash)
        assert exc_info.value.status == 404
        submitted = client.submit_spec(spec)
        assert submitted["cached"] is False
        assert client.wait(submitted["job_id"])["state"] == "done"

    def test_result_before_done_is_409(self, client, netlist, hierarchy):
        release = threading.Event()
        thread = ServerThread(
            manager_kwargs={
                "max_concurrency": 1,
                "runner": lambda s: release.wait(5),
            }
        )
        try:
            blocked_client = ServiceClient(thread.url)
            job = blocked_client.submit_spec(
                JobSpec.from_parts(netlist, hierarchy)
            )
            with pytest.raises(ServiceClientError) as excinfo:
                blocked_client.result(job["job_id"])
            assert excinfo.value.status == 409
        finally:
            release.set()
            thread.stop(drain=False)

    def test_submit_after_shutdown_is_503(self, netlist, hierarchy):
        thread = ServerThread()
        client = ServiceClient(thread.url)
        # Refuse new work while still answering: flip the manager's
        # accepting flag the way shutdown does, with the socket open.
        thread.manager._accepting = False
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit_spec(JobSpec.from_parts(netlist, hierarchy))
        assert excinfo.value.status == 503
        thread.stop()

    def test_client_rejects_bad_base_url(self):
        with pytest.raises(ServiceClientError):
            ServiceClient("ftp://example.com")

    def test_connection_refused_reports_status_zero(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=1)
        with pytest.raises(ServiceClientError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0


class _FlakyServer:
    """A one-shot stand-in server that drops the first N connections.

    Dropped connections are closed right after the request arrives,
    which the stdlib client surfaces as ``RemoteDisconnected`` — the
    exact weather around a real server restart.  Subsequent connections
    get a canned 200 JSON body.
    """

    def __init__(self, drops, body=b'{"ok": true}'):
        import socket

        self.drops = drops
        self.body = body
        self.connections = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            try:
                conn.recv(4096)
                if self.connections <= self.drops:
                    conn.close()  # mid-exchange hangup
                    continue
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(self.body)}\r\n\r\n".encode()
                    + self.body
                )
            finally:
                conn.close()

    def stop(self):
        self._sock.close()


class TestClientRetries:
    def test_idempotent_get_retries_through_flaky_server(self):
        from repro.core.faults import FaultTolerance

        flaky = _FlakyServer(drops=2)
        try:
            client = ServiceClient(
                flaky.url,
                timeout=5,
                tolerance=FaultTolerance(task_retries=3, backoff_base=0.01),
            )
            assert client.healthz() == {"ok": True}
            assert flaky.connections == 3  # two drops + one success
        finally:
            flaky.stop()

    def test_retry_budget_exhaustion_raises(self):
        from repro.core.faults import FaultTolerance

        flaky = _FlakyServer(drops=100)
        try:
            client = ServiceClient(
                flaky.url,
                timeout=5,
                tolerance=FaultTolerance(task_retries=2, backoff_base=0.01),
            )
            with pytest.raises(ServiceClientError, match="3 attempts"):
                client.healthz()
            assert flaky.connections == 3
        finally:
            flaky.stop()

    def test_post_never_retries(self, netlist, hierarchy):
        from repro.core.faults import FaultTolerance

        flaky = _FlakyServer(drops=100)
        try:
            client = ServiceClient(
                flaky.url,
                timeout=5,
                tolerance=FaultTolerance(task_retries=3, backoff_base=0.01),
            )
            with pytest.raises(ServiceClientError):
                client.submit_spec(JobSpec.from_parts(netlist, hierarchy))
            assert flaky.connections == 1  # one shot, no second POST
        finally:
            flaky.stop()


class TestAdmissionAndDeadlinesOverHttp:
    def test_full_queue_is_429_with_retry_after(self, netlist, hierarchy):
        release = threading.Event()
        thread = ServerThread(
            manager_kwargs={
                "max_concurrency": 1,
                "max_queue_depth": 1,
                "runner": lambda s: release.wait(10),
            }
        )
        try:
            client = ServiceClient(thread.url)
            # Distinct seeds: distinct content addresses, no cache hits.
            client.submit_spec(
                JobSpec.from_parts(netlist, hierarchy, {"seed": 1})
            )
            time.sleep(0.1)  # let the worker pull the first job
            client.submit_spec(
                JobSpec.from_parts(netlist, hierarchy, {"seed": 2})
            )
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit_spec(
                    JobSpec.from_parts(netlist, hierarchy, {"seed": 3})
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1.0
            metrics = client.metricsz()
            assert metrics["queue"]["rejections"] == 1
            assert metrics["queue"]["max_depth"] == 1
        finally:
            release.set()
            thread.stop(drain=False)

    def test_expired_deadline_fails_job_over_http(self, netlist, hierarchy):
        thread = ServerThread(manager_kwargs={"max_concurrency": 1})
        try:
            client = ServiceClient(thread.url)
            job = client.submit_spec(
                JobSpec.from_parts(
                    netlist, hierarchy, {"iterations": 1, "max_rounds": 8}
                ),
                deadline=1e-6,
            )
            status = client.wait(job["job_id"], timeout=30)
            assert status["state"] == JobState.FAILED.value
            assert "deadline" in status["error"]
        finally:
            thread.stop(drain=False)

    def test_bad_deadline_is_400(self, client, spec):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(dict(spec.to_payload(), deadline="soonish"))
        assert excinfo.value.status == 400

    def test_metricsz_exposes_durability_sections(self, tmp_path, spec):
        from repro.service import Journal

        thread = ServerThread(
            manager_kwargs={
                "journal": Journal(tmp_path / "wal"),
                "checkpoint_root": tmp_path / "ckpt",
            }
        )
        try:
            client = ServiceClient(thread.url)
            client.submit_spec(spec)
            client.wait(client.jobs()["jobs"][0]["job_id"], timeout=60)
            metrics = client.metricsz()
            assert metrics["queue"]["depth"] == 0
            assert metrics["journal"]["appended"] >= 2
            assert metrics["journal"]["bytes"] > 0
            assert "checkpoints" in metrics
            assert metrics["perf"]["journal_records"] >= 2
        finally:
            thread.stop()

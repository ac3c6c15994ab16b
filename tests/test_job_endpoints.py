"""One behaviour table for the job endpoints of both tiers.

``htp serve`` and ``htp route`` answer ``/jobs`` with the same code, so
every case here runs twice: against a worker, and against a router
placing on one joined worker.  The worker's solves wait on a gate, so a
job stays unfinished until a test opens it.  The router cases also pin
how many records a routed job leaves in the router's journal.
"""

import http.client
import json
import threading

import pytest

from repro.htp.hierarchy import binary_hierarchy
from repro.hypergraph.generators import planted_hierarchy_hypergraph
from repro.service import (
    JobSpec,
    Journal,
    ResultCache,
    ServerThread,
    ServiceClient,
    ServiceClientError,
    run_spec,
)
from repro.service.cluster import RouterThread
from repro.service.server import make_worker_agent


@pytest.fixture(scope="module")
def spec():
    netlist = planted_hierarchy_hypergraph(32, height=2, seed=4)
    hierarchy = binary_hierarchy(netlist.total_size(), height=2)
    return JobSpec.from_parts(netlist, hierarchy, {"iterations": 1})


class _Tier:
    """A running tier: its URL, the solve gate and its journal."""

    def __init__(self, tmp_path, kind):
        self.gate = threading.Event()
        self.threads, self.agents = [], []

        def gated_runner(spec):
            self.gate.wait(30)
            return run_spec(spec)

        self.worker_wal = tmp_path / "worker-wal"
        worker = ServerThread(
            manager_kwargs={
                "max_concurrency": 1,
                "runner": gated_runner,
                "journal": Journal(self.worker_wal),
                "cache": ResultCache(capacity=8),
            }
        )
        self.threads.append(worker)
        self.wal = self.worker_wal
        self.url = worker.url
        if kind == "router":
            self.wal = tmp_path / "router-wal"
            router = RouterThread(
                router_kwargs={
                    "journal_dir": self.wal,
                    "heartbeat_interval": 0.2,
                }
            )
            self.threads.append(router)
            agent = make_worker_agent(
                worker.manager,
                worker.url,
                {"router_url": router.url, "worker_id": "w0"},
            )
            agent.start()
            self.agents.append(agent)
            assert agent.wait_joined(10.0)
            self.url = router.url

    def records(self, wal=None):
        """Journal records of the tier's front door, minus ``epoch``."""
        records = Journal(wal or self.wal).scan()
        return [r for r in records if r.get("type") != "epoch"]

    def close(self):
        self.gate.set()
        for agent in self.agents:
            agent.stop()
        for thread in reversed(self.threads):
            thread.stop(drain=False)


@pytest.fixture(params=["worker", "router"])
def tier(request, tmp_path):
    running = _Tier(tmp_path, request.param)
    yield running
    running.close()


def _refused(call):
    """The ServiceClientError ``call`` raises."""
    with pytest.raises(ServiceClientError) as excinfo:
        call()
    return excinfo.value


def _raw(url, method, path, body=b""):
    """``(status, JSON body)`` of one request, bypassing the client."""
    host, port = url[len("http://"):].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestBehaviourTable:
    @pytest.mark.parametrize("endpoint", ["status", "result", "cancel"])
    def test_unknown_job_is_404(self, tier, endpoint):
        client = ServiceClient(tier.url)
        error = _refused(lambda: getattr(client, endpoint)("no-such-job"))
        assert error.status == 404

    def test_non_json_body_is_400(self, tier):
        status, doc = _raw(tier.url, "POST", "/jobs", b"{nope")
        assert status == 400
        assert "JSON" in doc["error"]
        assert tier.records() == []

    @pytest.mark.parametrize(
        "method, path",
        [("POST", "/jobs/some-id"), ("GET", "/jobs/some-id/cancel"),
         ("POST", "/jobs/some-id/result"), ("DELETE", "/jobs")],
    )
    def test_wrong_method_is_405(self, tier, method, path):
        client = ServiceClient(tier.url)
        error = _refused(lambda: client._request(method, path, body={}))
        assert error.status == 405

    def test_unknown_path_is_404(self, tier):
        client = ServiceClient(tier.url)
        assert _refused(lambda: client._request("GET", "/nope")).status == 404

    def test_result_of_unfinished_job_is_409_with_state(self, tier, spec):
        client = ServiceClient(tier.url)
        job = client.submit_spec(spec)
        status, doc = _raw(tier.url, "GET", f"/jobs/{job['job_id']}/result")
        assert status == 409
        assert doc["state"] in ("queued", "running")
        assert doc["error"].endswith(f"is {doc['state']}, not done")
        tier.gate.set()
        assert client.wait(job["job_id"], timeout=60)["state"] == "done"
        assert client.result(job["job_id"])["spec_hash"] == job["spec_hash"]

    @pytest.mark.parametrize(
        "deadline", [float("nan"), float("inf"), -1, 0, True, "x"]
    )
    def test_bad_deadline_is_400_and_never_journaled(
        self, tier, spec, deadline
    ):
        client = ServiceClient(tier.url)
        payload = dict(spec.to_payload(), deadline=deadline)
        error = _refused(lambda: client.submit(payload))
        assert error.status == 400
        assert "deadline" in str(error)
        assert tier.records() == []
        assert tier.records(tier.worker_wal) == []
        assert client.jobs()["jobs"] == []


class TestRouterJournalVolume:
    """Records per routed request: the router appends (and fsyncs) as
    many as it did before it shared the worker's journal."""

    def test_cold_job_three_records_cache_hit_two(self, tmp_path, spec):
        tier = _Tier(tmp_path, "router")
        try:
            tier.gate.set()
            client = ServiceClient(tier.url)
            cold = client.submit_spec(spec)
            assert client.wait(cold["job_id"], timeout=60)["state"] == "done"
            assert [r["type"] for r in tier.records()] == [
                "submitted", "forwarded", "state",
            ]
            warm = client.submit_spec(spec)
            assert warm["cached"] is True and warm["state"] == "done"
            assert [r["type"] for r in tier.records()[3:]] == [
                "submitted", "state",
            ]
        finally:
            tier.close()

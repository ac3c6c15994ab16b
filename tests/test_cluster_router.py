"""End-to-end tests of the cluster router over real sockets.

A :class:`RouterThread` and N :class:`ServerThread` workers bind
ephemeral ports per test; :class:`WorkerAgent` instances join and
heartbeat exactly as ``htp serve --join`` would.  Covers the three
submission tiers (placement, router LRU, cluster read-through), the
retry -> reroute -> dead failover ladder, journaled router recovery,
and the recovered-perf ``/metricsz`` fix on the worker side.
"""

import json
import time

import pytest

from repro.core.faults import FaultTolerance
from repro.htp.hierarchy import binary_hierarchy
from repro.hypergraph.generators import planted_hierarchy_hypergraph
from repro.service import (
    JobSpec,
    ResultCache,
    ServerThread,
    ServiceClient,
    ServiceClientError,
)
from repro.service.cluster import (
    ROUTER_CACHE,
    ClusterRouter,
    RouterThread,
    WorkerAgent,
)
from repro.service.journal import Journal, submitted_record
from repro.service.server import make_worker_agent


@pytest.fixture(scope="module")
def netlist():
    return planted_hierarchy_hypergraph(48, height=2, seed=0)


@pytest.fixture(scope="module")
def hierarchy(netlist):
    return binary_hierarchy(netlist.total_size(), height=2)


def _spec(netlist, hierarchy, **config):
    config.setdefault("iterations", 1)
    return JobSpec.from_parts(netlist, hierarchy, config)


@pytest.fixture
def router(tmp_path):
    thread = RouterThread(
        router_kwargs={
            "journal_dir": tmp_path / "router-wal",
            "heartbeat_interval": 0.2,
            "probe_timeout": 1.0,
        }
    )
    yield thread
    thread.stop()


def _spawn_worker(tmp_path, router_url, worker_id, **manager_kwargs):
    manager_kwargs.setdefault(
        "cache",
        ResultCache(capacity=8, cache_dir=tmp_path / f"cache-{worker_id}"),
    )
    worker = ServerThread(manager_kwargs=manager_kwargs)
    agent = make_worker_agent(
        worker.manager,
        worker.url,
        {"router_url": router_url, "worker_id": worker_id},
    )
    # The same wiring ``htp serve --join`` does: fencing + replica fetch
    # on the worker's HTTP surface.
    worker.server.cluster_view = agent.view
    worker.server.replicator = agent.replicator
    agent.start()
    assert agent.wait_joined(10.0), f"{worker_id} never joined the router"
    return worker, agent


@pytest.fixture
def cluster(tmp_path, router):
    workers, agents = [], []
    for index in range(2):
        worker, agent = _spawn_worker(tmp_path, router.url, f"w{index}")
        workers.append(worker)
        agents.append(agent)
    yield router, workers, agents
    for agent in agents:
        agent.stop()
    for worker in workers:
        worker.stop()


class TestRoutedSubmission:
    def test_submit_poll_result_through_router(
        self, cluster, netlist, hierarchy
    ):
        router, _workers, _agents = cluster
        client = ServiceClient(router.url)
        spec = _spec(netlist, hierarchy)
        submitted = client.submit_spec(spec)
        assert submitted["worker"] in ("w0", "w1")
        assert submitted["job_id"].startswith(spec.canonical_hash()[:12])
        status = client.wait(submitted["job_id"], timeout=60)
        assert status["state"] == "done"
        payload = client.result(submitted["job_id"])
        assert payload["spec_hash"] == spec.canonical_hash()
        metrics = client.metricsz()
        assert metrics["cluster"]["placements"] == 1
        assert metrics["cluster"]["workers"]["alive"] == 2

    def test_warm_resubmission_hits_router_cache(
        self, cluster, netlist, hierarchy
    ):
        router, _workers, _agents = cluster
        client = ServiceClient(router.url)
        spec = _spec(netlist, hierarchy)
        cold = client.submit_spec(spec)
        client.wait(cold["job_id"], timeout=60)
        cold_payload = client.result(cold["job_id"])
        warm = client.submit_spec(spec)
        assert warm["state"] == "done"
        assert warm["cached"] is True
        assert warm["worker"] == ROUTER_CACHE
        warm_payload = client.result(warm["job_id"])
        assert json.dumps(warm_payload, sort_keys=True) == json.dumps(
            cold_payload, sort_keys=True
        )
        # The warm answer never reached a worker.
        assert client.metricsz()["cluster"]["placements"] == 1

    def test_read_through_answers_from_worker_disk_cache(
        self, cluster, tmp_path, netlist, hierarchy
    ):
        """A brand-new router (cold LRU) serves a spec one worker solved
        earlier, via the cluster cache index + GET /cache/<hash>."""
        router, workers, agents = cluster
        client = ServiceClient(router.url)
        spec = _spec(netlist, hierarchy, seed=3)
        first = client.submit_spec(spec)
        client.wait(first["job_id"], timeout=60)
        reference = client.result(first["job_id"])

        fresh = RouterThread(router_kwargs={"heartbeat_interval": 0.2})
        fresh_agents = []
        try:
            for index, worker in enumerate(workers):
                agent = make_worker_agent(
                    worker.manager,
                    worker.url,
                    {"router_url": fresh.url, "worker_id": f"w{index}"},
                )
                agent.start()
                assert agent.wait_joined(10.0)
                fresh_agents.append(agent)
            fresh_client = ServiceClient(fresh.url)
            warm = fresh_client.submit_spec(spec)
            assert warm["state"] == "done"
            assert warm["worker"] == ROUTER_CACHE
            assert fresh_client.result(warm["job_id"]) == reference
            metrics = fresh_client.metricsz()
            assert metrics["cluster"]["remote_cache_hits"] == 1
            assert metrics["cluster"]["placements"] == 0
        finally:
            for agent in fresh_agents:
                agent.stop()
            fresh.stop()

    def test_unknown_job_is_404(self, cluster):
        router, _workers, _agents = cluster
        client = ServiceClient(router.url)
        with pytest.raises(ServiceClientError) as exc_info:
            client.status("no-such-job")
        assert exc_info.value.status == 404

    def test_no_workers_is_503(self, tmp_path, netlist, hierarchy):
        thread = RouterThread()
        try:
            client = ServiceClient(thread.url)
            with pytest.raises(ServiceClientError) as exc_info:
                client.submit_spec(_spec(netlist, hierarchy))
            assert exc_info.value.status == 503
            # A refused submission leaves no job behind for a later
            # orphan sweep to place.
            assert client.jobs()["jobs"] == []
        finally:
            thread.stop()

    def test_engine_filter_gates_placement(
        self, tmp_path, router, netlist, hierarchy
    ):
        """A worker that only announced 'python' never receives a scipy
        job — and with no eligible worker the router answers 503."""
        worker = ServerThread(manager_kwargs={})
        agent = WorkerAgent(
            router_url=router.url,
            worker_url=worker.url,
            worker_id="python-only",
            engines=("python",),
            interval=0.2,
        )
        agent.start()
        try:
            assert agent.wait_joined(10.0)
            client = ServiceClient(router.url)
            with pytest.raises(ServiceClientError) as exc_info:
                client.submit_spec(_spec(netlist, hierarchy, engine="scipy"))
            assert exc_info.value.status == 503
        finally:
            agent.stop()
            worker.stop()


class TestFailover:
    def test_dead_forward_reroutes_to_live_worker(
        self, tmp_path, router, netlist, hierarchy
    ):
        """The ladder in one submit: a registered-but-gone worker refuses
        the forward, is marked dead, and the job lands on the live one."""
        worker, agent = _spawn_worker(tmp_path, router.url, "alive")
        try:
            # A phantom worker: registered with a dead URL and enough
            # weight that the hash ring sends most keys its way first.
            phantom = WorkerAgent(
                router_url=router.url,
                worker_url="http://127.0.0.1:9",  # discard port: refused
                worker_id="phantom",
                weight=8.0,
                interval=3600.0,  # joins once, never heartbeats again
            )
            assert phantom.join_once()
            client = ServiceClient(router.url)
            spec = _spec(netlist, hierarchy, seed=11)
            submitted = client.submit_spec(spec)
            assert submitted["worker"] == "alive"
            status = client.wait(submitted["job_id"], timeout=60)
            assert status["state"] == "done"
            metrics = client.metricsz()
            workers = {
                doc["worker_id"]: doc
                for doc in client._request("GET", "/workers")["workers"]
            }
            assert workers["phantom"]["state"] == "dead"
            # Whether a reroute was journaled depends on which worker the
            # ring tried first; the job itself must always complete.
            assert metrics["cluster"]["placements"] >= 1
        finally:
            agent.stop()
            worker.stop()

    def test_missed_heartbeats_walk_the_ladder_to_dead(
        self, tmp_path, router
    ):
        worker, agent = _spawn_worker(tmp_path, router.url, "flaky")
        client = ServiceClient(router.url)
        agent.stop()  # heartbeats cease; the worker itself stays up
        worker.stop()  # and then the worker goes away entirely
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            workers = {
                doc["worker_id"]: doc
                for doc in client._request("GET", "/workers")["workers"]
            }
            if workers["flaky"]["state"] == "dead":
                break
            time.sleep(0.1)
        else:
            raise AssertionError(
                f"worker never declared dead: {workers['flaky']}"
            )

    def test_heartbeat_after_death_demands_rejoin(self, tmp_path, router):
        worker, agent = _spawn_worker(tmp_path, router.url, "lazarus")
        try:
            router.router.registry.mark_dead("lazarus")
            # The agent's next heartbeat gets 404 and transparently
            # re-registers under the same identity.
            assert agent.heartbeat_once()
            assert agent.rejoins == 1
            with router.router._lock:
                assert router.router.registry.get("lazarus").state == "alive"
        finally:
            agent.stop()
            worker.stop()


class TestRouterRecovery:
    def test_journal_replays_resolved_and_open_jobs(
        self, tmp_path, cluster, netlist, hierarchy
    ):
        router, workers, agents = cluster
        client = ServiceClient(router.url)
        spec = _spec(netlist, hierarchy, seed=21)
        submitted = client.submit_spec(spec)
        client.wait(submitted["job_id"], timeout=60)
        reference = client.result(submitted["job_id"])
        router.stop()

        reborn = RouterThread(
            router_kwargs={
                "journal_dir": tmp_path / "router-wal",
                "heartbeat_interval": 0.2,
            }
        )
        fresh_agents = []
        try:
            assert reborn.server.recovery_summary["recovered"] >= 1
            for index, worker in enumerate(workers):
                agent = make_worker_agent(
                    worker.manager,
                    worker.url,
                    {"router_url": reborn.url, "worker_id": f"w{index}"},
                )
                agent.start()
                assert agent.wait_joined(10.0)
                fresh_agents.append(agent)
            client = ServiceClient(reborn.url)
            listing = {job["job_id"] for job in client.jobs()["jobs"]}
            assert submitted["job_id"] in listing
            status = client.status(submitted["job_id"])
            assert status["state"] == "done"
            # The result payload outlived the router: re-fetched from a
            # worker's durable cache through the read-through tier.
            assert client.result(submitted["job_id"]) == reference
        finally:
            for agent in fresh_agents:
                agent.stop()
            reborn.stop()


    def test_job_journaled_but_never_forwarded_is_placed(
        self, tmp_path, netlist, hierarchy
    ):
        """A router that died between journaling a job and forwarding
        it leaves a job no worker ever saw.  Its worker rejoins well
        inside the orphan grace, so only the orphan sweep can place it:
        the job must still finish."""
        spec = _spec(netlist, hierarchy, seed=23)
        spec_hash = spec.canonical_hash()
        job_id = f"{spec_hash[:12]}-r0001"
        wal = Journal(tmp_path / "router-wal")
        wal.append({"type": "epoch", "epoch": 1})
        wal.append(
            submitted_record(job_id, spec_hash, spec.to_payload(), time.time())
        )
        wal.close()
        now = [100.0]
        router = ClusterRouter(
            journal_dir=tmp_path / "router-wal",
            heartbeat_interval=1.0,
            clock=lambda: now[0],
        )
        worker = ServerThread(manager_kwargs={})
        try:
            assert router.recover()["open"] == 1
            router.join({"worker_id": "w0", "url": worker.url})
            for _ in range(20):
                now[0] += 10.0  # far past the 3 s grace
                router.monitor_tick()
            deadline = time.monotonic() + 60
            while router.status(job_id)["state"] != "done":
                assert time.monotonic() < deadline, router.status(job_id)
                time.sleep(0.05)
            assert router.status(job_id)["worker"] == "w0"
            assert len(worker.manager.jobs()) == 1
            assert router.result(job_id)["spec_hash"] == spec_hash
        finally:
            worker.stop()
            router.close()


class TestRecoveredPerfMerge:
    def test_metricsz_includes_recovered_job_counters(self, tmp_path):
        """A restarted worker's /metricsz must account for solver work
        journal-recovered done jobs did in the previous process."""
        netlist = planted_hierarchy_hypergraph(32, height=2, seed=5)
        hierarchy = binary_hierarchy(netlist.total_size(), height=2)
        spec = JobSpec.from_parts(netlist, hierarchy, {"iterations": 1})
        from repro.service import Journal

        def manager_kwargs():
            return {
                "cache": ResultCache(capacity=8, cache_dir=tmp_path / "cache"),
                "journal": Journal(tmp_path / "wal"),
            }

        with ServerThread(manager_kwargs=manager_kwargs()) as first:
            client = ServiceClient(first.url)
            job = client.submit_spec(spec)
            client.wait(job["job_id"], timeout=60)
            live = client.metricsz()["perf"]
            assert live["injections"] > 0

        with ServerThread(manager_kwargs=manager_kwargs()) as reborn:
            client = ServiceClient(reborn.url)
            status = client.status(job["job_id"])
            assert status["state"] == "done" and status["cached"] is True
            recovered = client.metricsz()["perf"]
            assert recovered["injections"] == live["injections"]
            assert recovered["dijkstra_calls"] == live["dijkstra_calls"]


class TestSubmitRetryLoop:
    """The htp submit 429 retry loop (no sockets: a scripted client)."""

    class _BusyClient:
        def __init__(self, failures, retry_after=0.25):
            self.failures = failures
            self.retry_after = retry_after
            self.calls = 0

        def submit_spec(self, spec, deadline=None):
            self.calls += 1
            if self.calls <= self.failures:
                error = ServiceClientError("queue full", status=429)
                error.retry_after = self.retry_after
                raise error
            return {"job_id": "j1", "state": "queued"}

    def test_retries_until_accepted(self):
        from repro.cli import _submit_with_retry

        client = self._BusyClient(failures=2)
        naps, notes = [], []
        doc = _submit_with_retry(
            client, spec=None, deadline=None,
            announce=notes.append, sleep=naps.append,
        )
        assert doc["job_id"] == "j1"
        assert client.calls == 3
        assert naps == [0.25, 0.25]  # honoured the server's estimate
        assert all("0.25s" in note for note in notes)

    def test_no_wait_raises_immediately(self):
        from repro.cli import _submit_with_retry

        client = self._BusyClient(failures=1)
        with pytest.raises(ServiceClientError):
            _submit_with_retry(
                client, spec=None, deadline=None, wait=False,
                sleep=lambda _s: pytest.fail("slept despite --no-wait"),
            )
        assert client.calls == 1

    def test_budget_is_bounded(self):
        from repro.cli import _submit_with_retry

        client = self._BusyClient(failures=99)
        naps = []
        with pytest.raises(ServiceClientError):
            _submit_with_retry(
                client, spec=None, deadline=None, limit=3,
                announce=lambda _m: None, sleep=naps.append,
            )
        assert client.calls == 4  # the first try + 3 retries
        assert len(naps) == 3

    def test_non_429_failures_pass_through(self):
        from repro.cli import _submit_with_retry

        class Refusing:
            def submit_spec(self, spec, deadline=None):
                raise ServiceClientError("cannot reach service", status=0)

        with pytest.raises(ServiceClientError) as exc_info:
            _submit_with_retry(
                Refusing(), spec=None, deadline=None,
                sleep=lambda _s: pytest.fail("slept on a non-429"),
            )
        assert exc_info.value.status == 0

    def test_fractional_retry_after_is_not_truncated(self):
        """A 1.5s server hint must sleep 1.5s and announce '1.5s' —
        the old int() path slept 1s and printed '1s'."""
        from repro.cli import _submit_with_retry

        client = self._BusyClient(failures=1, retry_after=1.5)
        naps, notes = [], []
        _submit_with_retry(
            client, spec=None, deadline=None,
            announce=notes.append, sleep=naps.append,
        )
        assert naps == [1.5]
        assert "1.5s" in notes[0]

    def test_max_wait_clips_the_last_sleep_and_then_raises(self):
        from repro.cli import _submit_with_retry

        client = self._BusyClient(failures=99, retry_after=0.4)
        naps = []
        with pytest.raises(ServiceClientError):
            _submit_with_retry(
                client, spec=None, deadline=None, limit=99, max_wait=1.0,
                announce=lambda _m: None, sleep=naps.append,
            )
        # 0.4 + 0.4 fit the budget, the third sleep is clipped to the
        # remaining 0.2, the fourth 429 finds the budget spent.
        assert naps == [0.4, 0.4, pytest.approx(0.2)]
        assert client.calls == 4

    def test_max_wait_zero_fails_on_first_busy(self):
        from repro.cli import _submit_with_retry

        client = self._BusyClient(failures=1)
        with pytest.raises(ServiceClientError):
            _submit_with_retry(
                client, spec=None, deadline=None, max_wait=0.0,
                announce=lambda _m: None,
                sleep=lambda _s: pytest.fail("slept with a zero budget"),
            )
        assert client.calls == 1

    def test_generous_max_wait_changes_nothing(self):
        from repro.cli import _submit_with_retry

        client = self._BusyClient(failures=2)
        naps = []
        doc = _submit_with_retry(
            client, spec=None, deadline=None, max_wait=60.0,
            announce=lambda _m: None, sleep=naps.append,
        )
        assert doc["job_id"] == "j1"
        assert naps == [0.25, 0.25]


class TestEpochFencing:
    """A worker that has seen a newer epoch refuses the old router."""

    def test_zombie_forward_is_refused_with_409(
        self, tmp_path, router, netlist, hierarchy
    ):
        worker, agent = _spawn_worker(tmp_path, router.url, "w0")
        try:
            # Some other router incarnation took over: this worker has
            # seen a newer fencing epoch than the (now zombie) router
            # under test will ever stamp.
            assert worker.server.cluster_view.admit_epoch(99)
            client = ServiceClient(router.url)
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit_spec(_spec(netlist, hierarchy))
            # The job fails *at the zombie*: its only worker answered
            # 409, so the submission is rejected, never run twice.
            assert "stale router epoch" in str(excinfo.value)
        finally:
            agent.stop()
            worker.stop()


class TestRoutedCancel:
    """POST /jobs/<id>/cancel through the router reaches the worker."""

    def test_cancel_in_flight_job_through_router(self, cluster):
        router, _workers, _agents = cluster
        client = ServiceClient(router.url)
        big = planted_hierarchy_hypergraph(256, height=2, seed=3)
        spec = JobSpec.from_parts(
            big,
            binary_hierarchy(big.total_size(), height=2),
            {
                "iterations": 2,
                "constructions_per_metric": 2,
                "engine": "python",
                "seed": 3,
            },
        )
        submitted = client.submit_spec(spec)
        cancelled = client.cancel(submitted["job_id"])
        # The solve may have been mid-flight or (rarely) just finished;
        # either way the router answers with a terminal state and a
        # second cancel is an idempotent no-op on that state.
        assert cancelled["state"] in ("cancelled", "done")
        again = client.cancel(submitted["job_id"])
        assert again["state"] == cancelled["state"]

    def test_cancel_unknown_job_is_404(self, router):
        client = ServiceClient(router.url)
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel("no-such-job")
        assert excinfo.value.status == 404


class TestAgentStandbyRetarget:
    """An agent knocking on a dead router fails over to the standby."""

    def test_agent_retargets_the_announced_standby(self, router):
        # A port nothing listens on: every join attempt fails fast.
        agent = WorkerAgent(
            "http://127.0.0.1:9",
            "http://127.0.0.1:9",  # never probed: the join itself fails
            worker_id="wandering",
            interval=0.05,
            tolerance=FaultTolerance(task_retries=1, backoff_base=0.01),
            client_timeout=0.2,
            failover_after=2,
        )
        # The (now dead) primary gossiped the standby's URL while it
        # was still alive.
        agent.view.update({"epoch": 1, "standby": router.url})
        agent.start()
        try:
            assert agent.wait_joined(10.0), "agent never reached the standby"
            assert agent.router_url == router.url
            assert agent.failovers == 1
        finally:
            agent.stop()

"""Unit tests for the service job core: specs, states, the manager."""

import asyncio
import threading
import time

import pytest

from repro.core.faults import FaultTolerance
from repro.core.spreading_metric import ENGINES
from repro.errors import ServiceError
from repro.htp.hierarchy import binary_hierarchy
from repro.hypergraph.generators import planted_hierarchy_hypergraph
from repro.service.jobs import (
    CONFIG_DEFAULTS,
    Job,
    JobManager,
    JobSpec,
    JobState,
)


@pytest.fixture(scope="module")
def netlist():
    return planted_hierarchy_hypergraph(48, height=2, seed=0)


@pytest.fixture(scope="module")
def hierarchy(netlist):
    return binary_hierarchy(netlist.total_size(), height=2)


def make_spec(netlist, hierarchy, **config):
    return JobSpec.from_parts(netlist, hierarchy, config)


class TestJobSpecHashing:
    def test_hash_is_stable(self, netlist, hierarchy):
        a = make_spec(netlist, hierarchy, seed=7)
        b = make_spec(netlist, hierarchy, seed=7)
        assert a.canonical_hash() == b.canonical_hash()

    def test_payload_key_order_is_irrelevant(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy, seed=7, iterations=1)
        payload = spec.to_payload()
        shuffled = {
            "config": dict(reversed(list(payload["config"].items()))),
            "hierarchy": dict(reversed(list(payload["hierarchy"].items()))),
            "netlist": dict(reversed(list(payload["netlist"].items()))),
        }
        assert (
            JobSpec.from_payload(shuffled).canonical_hash()
            == spec.canonical_hash()
        )

    def test_pin_order_inside_nets_is_irrelevant(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy)
        payload = spec.to_payload()
        payload["netlist"]["nets"] = [
            list(reversed(pins)) for pins in payload["netlist"]["nets"]
        ]
        assert (
            JobSpec.from_payload(payload).canonical_hash()
            == spec.canonical_hash()
        )

    def test_omitted_defaults_equal_explicit_defaults(self, netlist, hierarchy):
        bare = make_spec(netlist, hierarchy)
        explicit = make_spec(netlist, hierarchy, **CONFIG_DEFAULTS)
        assert bare.canonical_hash() == explicit.canonical_hash()

    def test_netlist_name_is_irrelevant(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy)
        payload = spec.to_payload()
        payload["netlist"]["name"] = "renamed"
        assert (
            JobSpec.from_payload(payload).canonical_hash()
            == spec.canonical_hash()
        )

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 1},
            {"engine": "multilevel-flow"},
            {"iterations": 3},
            {"delta": 0.5},
            {"node_sample": 0.5},
        ],
    )
    def test_config_changes_change_the_hash(self, netlist, hierarchy, override):
        assert (
            make_spec(netlist, hierarchy, **override).canonical_hash()
            != make_spec(netlist, hierarchy).canonical_hash()
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_metric_engines_share_one_hash(self, netlist, hierarchy, engine):
        """Bit-identical engines are *how*, not *what*: one address."""
        assert (
            make_spec(netlist, hierarchy, engine=engine).canonical_hash()
            == make_spec(netlist, hierarchy).canonical_hash()
        )

    def test_integral_floats_hash_like_ints(self, netlist, hierarchy):
        assert (
            make_spec(netlist, hierarchy, seed=3.0, iterations=2.0).canonical_hash()
            == make_spec(netlist, hierarchy, seed=3).canonical_hash()
        )

    def test_netlist_changes_change_the_hash(self, netlist, hierarchy):
        other = planted_hierarchy_hypergraph(48, height=2, seed=1)
        assert (
            make_spec(other, hierarchy).canonical_hash()
            != make_spec(netlist, hierarchy).canonical_hash()
        )

    def test_hierarchy_changes_change_the_hash(self, netlist, hierarchy):
        taller = binary_hierarchy(netlist.total_size(), height=3)
        assert (
            make_spec(netlist, taller).canonical_hash()
            != make_spec(netlist, hierarchy).canonical_hash()
        )


class TestJobSpecValidation:
    def test_rejects_non_dict_payload(self):
        with pytest.raises(ServiceError):
            JobSpec.from_payload([1, 2])

    def test_rejects_missing_sections(self, netlist, hierarchy):
        payload = make_spec(netlist, hierarchy).to_payload()
        del payload["hierarchy"]
        with pytest.raises(ServiceError, match="hierarchy"):
            JobSpec.from_payload(payload)

    def test_rejects_unknown_config_keys(self, netlist, hierarchy):
        payload = make_spec(netlist, hierarchy).to_payload()
        payload["config"]["warp_factor"] = 9
        with pytest.raises(ServiceError, match="warp_factor"):
            JobSpec.from_payload(payload)

    def test_rejects_unknown_engine(self, netlist, hierarchy):
        payload = make_spec(netlist, hierarchy).to_payload()
        payload["config"]["engine"] = "warp-drive"
        with pytest.raises(ServiceError, match="engine"):
            JobSpec.from_payload(payload)

    def test_rejects_bad_netlist(self, netlist, hierarchy):
        payload = make_spec(netlist, hierarchy).to_payload()
        payload["netlist"]["nets"] = [[0]]
        with pytest.raises(ServiceError, match="netlist"):
            JobSpec.from_payload(payload)

    def test_rejects_bad_hierarchy(self, netlist, hierarchy):
        payload = make_spec(netlist, hierarchy).to_payload()
        payload["hierarchy"]["capacities"] = [4.0, 3.0]
        with pytest.raises(ServiceError, match="hierarchy"):
            JobSpec.from_payload(payload)

    def test_roundtrips_library_objects(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy, seed=5)
        rebuilt = spec.build_netlist()
        assert rebuilt.num_nodes == netlist.num_nodes
        assert rebuilt.nets() == netlist.nets()
        assert spec.build_hierarchy() == hierarchy
        assert spec.build_config().seed == 5


class TestJobStateMachine:
    def _job(self):
        return Job(job_id="x-0001", spec_hash="0" * 64, spec=None)

    def test_happy_path(self):
        job = self._job()
        job.transition(JobState.RUNNING)
        job.transition(JobState.DONE)
        assert job.state is JobState.DONE
        assert job.finished_at is not None

    @pytest.mark.parametrize(
        "path,illegal",
        [
            ([], JobState.DONE),
            ([], JobState.FAILED),
            ([JobState.RUNNING, JobState.DONE], JobState.RUNNING),
            ([JobState.CANCELLED], JobState.RUNNING),
            ([JobState.RUNNING, JobState.FAILED], JobState.DONE),
        ],
    )
    def test_illegal_transitions_raise(self, path, illegal):
        job = self._job()
        for state in path:
            job.transition(state)
        with pytest.raises(ServiceError, match="illegal transition"):
            job.transition(illegal)


def run_manager(coro):
    """Run an async manager scenario to completion."""
    return asyncio.run(coro)


async def wait_terminal(job, timeout=10.0):
    """Poll until ``job`` reaches a terminal state (graceful shutdown
    cancels jobs still queued, so tests wait before shutting down)."""
    from repro.service.jobs import TERMINAL_STATES

    deadline = time.monotonic() + timeout
    while job.state not in TERMINAL_STATES:
        assert time.monotonic() < deadline, f"job stuck {job.state}"
        await asyncio.sleep(0.005)


class TestJobManager:
    def test_submit_and_complete(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy)

        async def scenario():
            manager = JobManager(runner=lambda s: DummyResult(s))
            await manager.start()
            job = manager.submit(spec)
            assert job.state is JobState.QUEUED
            await wait_terminal(job)
            await manager.shutdown(drain=True)
            return job

        job = run_manager(scenario())
        assert job.state is JobState.DONE
        assert job.result_payload["spec_hash"] == job.spec_hash

    def test_timeout_fails_the_job(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy)

        async def scenario():
            manager = JobManager(
                job_timeout=0.05, runner=lambda s: time.sleep(5)
            )
            await manager.start()
            job = manager.submit(spec)
            while job.state not in (JobState.FAILED, JobState.DONE):
                await asyncio.sleep(0.01)
            await manager.shutdown(drain=False)
            return job, manager

        job, manager = run_manager(scenario())
        assert job.state is JobState.FAILED
        assert "timed out" in job.error
        assert any(
            r["action"] == "job-timeout" and r["site"] == "service"
            for r in manager.counters.degradations
        )

    def test_cancel_queued_job(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy)
        release = threading.Event()

        async def scenario():
            manager = JobManager(
                max_concurrency=1,
                runner=lambda s: release.wait(5) and DummyResult(s),
            )
            await manager.start()
            blocker = manager.submit(spec)
            queued = manager.submit(make_spec(netlist, hierarchy, seed=9))
            cancelled = manager.cancel(queued.job_id)
            assert cancelled.state is JobState.CANCELLED
            release.set()
            await wait_terminal(blocker)
            await manager.shutdown(drain=True)
            return blocker, queued

        blocker, queued = run_manager(scenario())
        assert blocker.state is JobState.DONE
        assert queued.state is JobState.CANCELLED

    def test_cancel_running_job_discards_result(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy)
        started = threading.Event()
        release = threading.Event()

        def runner(s):
            started.set()
            release.wait(5)
            return DummyResult(s)

        async def scenario():
            from repro.service.cache import ResultCache

            cache = ResultCache()
            manager = JobManager(cache=cache, runner=runner)
            await manager.start()
            job = manager.submit(spec)
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 5
            )
            manager.cancel(job.job_id)
            release.set()
            await manager.shutdown(drain=True)
            return job, cache

        job, cache = run_manager(scenario())
        assert job.state is JobState.CANCELLED
        assert job.result_payload is None
        assert len(cache) == 0  # the discarded result was not cached

    def test_failed_job_retries_then_reports(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy)
        attempts = []

        def runner(s):
            attempts.append(1)
            raise RuntimeError("boom")

        async def scenario():
            manager = JobManager(
                runner=runner,
                tolerance=FaultTolerance(
                    task_retries=2, backoff_base=0.001, backoff_cap=0.01
                ),
            )
            await manager.start()
            job = manager.submit(spec)
            await wait_terminal(job)
            await manager.shutdown(drain=True)
            return job, manager

        job, manager = run_manager(scenario())
        assert job.state is JobState.FAILED
        assert "boom" in job.error
        assert len(attempts) == 3  # first try + 2 retries
        assert manager.counters.job_retries == 2
        assert any(
            r["action"] == "job-failed" for r in manager.counters.degradations
        )

    def test_retry_budget_can_rescue_a_flaky_job(self, netlist, hierarchy):
        spec = make_spec(netlist, hierarchy)
        attempts = []

        def runner(s):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return DummyResult(s)

        async def scenario():
            manager = JobManager(
                runner=runner,
                tolerance=FaultTolerance(
                    task_retries=1, backoff_base=0.001, backoff_cap=0.01
                ),
            )
            await manager.start()
            job = manager.submit(spec)
            await wait_terminal(job)
            await manager.shutdown(drain=True)
            return job

        job = run_manager(scenario())
        assert job.state is JobState.DONE
        assert len(attempts) == 2

    def test_graceful_shutdown_drains_in_flight(self, netlist, hierarchy):
        """Acceptance: in-flight jobs complete, queued ones report cancelled."""
        release = threading.Event()

        def runner(s):
            release.wait(5)
            return DummyResult(s)

        async def scenario():
            manager = JobManager(max_concurrency=1, runner=runner)
            await manager.start()
            running = manager.submit(make_spec(netlist, hierarchy, seed=1))
            queued = manager.submit(make_spec(netlist, hierarchy, seed=2))
            while running.state is not JobState.RUNNING:
                await asyncio.sleep(0.005)
            release.set()
            await manager.shutdown(drain=True)
            return manager, running, queued

        manager, running, queued = run_manager(scenario())
        assert running.state is JobState.DONE
        assert queued.state is JobState.CANCELLED
        with pytest.raises(ServiceError, match="not accepting"):
            manager.submit(make_spec(netlist, hierarchy))

    def test_rejects_bad_concurrency(self):
        with pytest.raises(ServiceError):
            asyncio.run(_make_manager_with_concurrency(0))


async def _make_manager_with_concurrency(n):
    return JobManager(max_concurrency=n)


class DummyResult:
    """A FlowHTPResult stand-in: just enough for the payload path."""

    def __init__(self, spec):
        self.perf = None

    def to_dict(self):
        return {"cost": 1.0, "runtime_seconds": 0.0}

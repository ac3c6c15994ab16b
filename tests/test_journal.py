"""The write-ahead job journal: records, torn tails, replay, recovery.

Covers the journal file layer (CRC-framed JSON lines, fsync policies,
tolerant scans), the pure :func:`replay` function (Hypothesis pins the
prefix-validity and idempotence properties), and the
:class:`JobManager` recovery contract — done jobs served from the
cache, queued jobs requeued in order, expired deadlines failed, and
admission control with ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.hypergraph.generators import planted_hierarchy_hypergraph
from repro.htp.hierarchy import binary_hierarchy
from repro.service.cache import ResultCache
from repro.service.jobs import AdmissionError, JobManager, JobSpec, JobState
from repro.service.journal import (
    Journal,
    decode_line,
    encode_line,
    replay,
)


@pytest.fixture(scope="module")
def netlist():
    return planted_hierarchy_hypergraph(32, height=2, seed=0)


@pytest.fixture(scope="module")
def hierarchy(netlist):
    return binary_hierarchy(netlist.total_size(), height=2)


def make_spec(netlist, hierarchy, seed=0):
    return JobSpec.from_parts(
        netlist,
        hierarchy,
        {
            "iterations": 1,
            "constructions_per_metric": 1,
            "seed": seed,
            "max_rounds": 8,
        },
    )


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# File layer
# ----------------------------------------------------------------------
class TestJournalFile:
    def test_append_scan_round_trip(self, tmp_path):
        journal = Journal(tmp_path)
        records = [
            {"type": "submitted", "job_id": "a-1", "spec_hash": "h",
             "spec": {"x": 1}},
            {"type": "state", "job_id": "a-1", "state": "running"},
        ]
        for record in records:
            journal.append(record)
        journal.close()
        assert Journal(tmp_path).scan() == records

    def test_torn_tail_is_counted_not_raised(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append({"type": "submitted", "job_id": "a-1",
                        "spec_hash": "h", "spec": {}})
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"crc32":"00000000","record":{"type":"state"')
        reopened = Journal(tmp_path)
        records = reopened.scan()
        assert len(records) == 1
        assert reopened.counters.journal_torn_records == 1
        assert reopened.stats()["torn_discarded"] == 1

    def test_scribbled_middle_line_is_skipped(self, tmp_path):
        journal = Journal(tmp_path)
        for index in range(3):
            journal.append({"type": "state", "job_id": f"j-{index}",
                            "state": "running"})
        journal.close()
        lines = journal.path.read_text().splitlines()
        lines[1] = lines[1][:-10] + "corrupted!"
        journal.path.write_text("\n".join(lines) + "\n")
        reopened = Journal(tmp_path)
        records = reopened.scan()
        assert [r["job_id"] for r in records] == ["j-0", "j-2"]
        assert reopened.counters.journal_torn_records == 1

    def test_crc_catches_bit_flip(self):
        line = encode_line({"type": "state", "job_id": "a", "state": "done"})
        doc = json.loads(line)
        doc["record"]["state"] = "failed"
        assert decode_line(json.dumps(doc)) is None

    def test_missing_file_scans_empty(self, tmp_path):
        assert Journal(tmp_path / "nowhere").scan() == []

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="fsync"):
            Journal(tmp_path, fsync="sometimes")

    @pytest.mark.parametrize("policy", ["always", "batch", "never"])
    def test_fsync_policies_all_write(self, tmp_path, policy):
        journal = Journal(tmp_path / policy, fsync=policy)
        for index in range(40):
            journal.append({"type": "state", "job_id": f"j-{index}",
                            "state": "running"})
        journal.close()
        assert len(Journal(tmp_path / policy).scan()) == 40


# ----------------------------------------------------------------------
# Pure replay properties
# ----------------------------------------------------------------------
def _submitted(job_id, **extra):
    record = {"type": "submitted", "job_id": job_id,
              "spec_hash": "h" * 4, "spec": {"k": 1}}
    record.update(extra)
    return record


def _state(job_id, state, **extra):
    record = {"type": "state", "job_id": job_id, "state": state}
    record.update(extra)
    return record


class TestReplay:
    def test_lifecycle_fold(self):
        state = replay([
            _submitted("a-1"),
            _state("a-1", "running"),
            _state("a-1", "done"),
            _submitted("b-2", deadline_epoch=123.0),
        ])
        assert state.jobs["a-1"].state == "done"
        assert state.jobs["b-2"].state == "queued"
        assert state.jobs["b-2"].deadline_epoch == 123.0
        assert [j.job_id for j in state.in_order()] == ["a-1", "b-2"]

    def test_requeued_resets_to_queued(self):
        state = replay([
            _submitted("a-1"),
            _state("a-1", "running"),
            {"type": "requeued", "job_id": "a-1"},
        ])
        assert state.jobs["a-1"].state == "queued"

    def test_illegal_moves_are_skipped(self):
        state = replay([
            _submitted("a-1"),
            _state("a-1", "done", cached=True),  # queued -> done: legal
            _state("a-1", "running"),            # done -> running: skipped
            _state("zz", "done"),                # unknown job: skipped
            {"type": "???", "job_id": "a-1"},    # unknown type: skipped
        ])
        assert state.jobs["a-1"].state == "done"
        assert state.jobs["a-1"].cached is True
        assert state.skipped == 3


def _forwarded(job_id, worker):
    return {"type": "forwarded", "job_id": job_id, "worker": worker,
            "worker_job_id": f"{job_id}@{worker}"}


# A generator of arbitrary (often nonsensical) record streams over a
# small id space — replay must digest ANY of them without raising.
# ``forwarded`` and ``epoch`` are the router's records.
_ids = st.sampled_from(["a-1", "b-2", "c-3"])
_records = st.one_of(
    _ids.map(_submitted),
    st.tuples(
        _ids, st.sampled_from(["running", "done", "failed", "cancelled"])
    ).map(lambda pair: _state(*pair)),
    _ids.map(lambda job_id: {"type": "requeued", "job_id": job_id}),
    st.tuples(_ids, st.sampled_from(["w1", "w2"])).map(
        lambda pair: _forwarded(*pair)
    ),
    st.one_of(st.integers(-1, 4), st.just("two"), st.booleans()).map(
        lambda epoch: {"type": "epoch", "epoch": epoch}
    ),
    st.just({"type": "state"}),  # malformed: no job_id
)


class TestReplayProperties:
    @settings(
        max_examples=200, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.lists(_records, max_size=30), st.data())
    def test_any_prefix_replays_to_valid_state(self, records, data):
        cut = data.draw(st.integers(0, len(records)))
        state = replay(records[:cut])
        for job in state.jobs.values():
            assert job.state in (
                "queued", "running", "done", "failed", "cancelled"
            )
            assert isinstance(job.spec_payload, dict)
            assert job.reroutes >= 0
            assert (job.worker is None) == (job.worker_job_id is None)
        assert state.epoch >= 0
        assert state.replayed == cut

    @settings(
        max_examples=200, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.lists(_records, max_size=30))
    def test_replaying_twice_equals_once(self, records):
        once = replay(records)
        twice = replay(records)
        assert {k: vars(v) for k, v in once.jobs.items()} == {
            k: vars(v) for k, v in twice.jobs.items()
        }
        assert once.epoch == twice.epoch

    @settings(
        max_examples=100, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(records=st.lists(_records, max_size=30))
    def test_torn_tail_equals_clean_prefix(self, tmp_path_factory, records):
        """A journal with a torn final record replays exactly like the
        journal without that record."""
        tmp_path = tmp_path_factory.mktemp("torn")
        journal = Journal(tmp_path)
        for record in records:
            journal.append(record)
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"crc32":"bad","record":{"type":"subm')  # torn
        scanned = Journal(tmp_path).scan()
        assert scanned == records  # tear dropped, prefix intact
        assert {k: vars(v) for k, v in replay(scanned).jobs.items()} == {
            k: vars(v) for k, v in replay(records).jobs.items()
        }
        assert replay(scanned).epoch == replay(records).epoch


# ----------------------------------------------------------------------
# Manager recovery
# ----------------------------------------------------------------------
class TestManagerRecovery:
    def test_done_jobs_served_from_cache_without_rerun(
        self, tmp_path, netlist, hierarchy
    ):
        solves = {"n": 0}

        def counting_runner(spec):
            solves["n"] += 1
            from repro.service.jobs import run_spec

            return run_spec(spec)

        async def scenario():
            journal = Journal(tmp_path / "wal")
            cache = ResultCache(cache_dir=tmp_path / "cache")
            manager = JobManager(
                max_concurrency=1, cache=cache, journal=journal,
                runner=counting_runner,
            )
            await manager.start()
            job = manager.submit(make_spec(netlist, hierarchy))
            await manager._idle.wait()
            assert job.state == JobState.DONE
            journal.close()  # crash here
            first_solves = solves["n"]

            restarted = JobManager(
                max_concurrency=1,
                cache=ResultCache(cache_dir=tmp_path / "cache"),
                journal=Journal(tmp_path / "wal"),
                runner=counting_runner,
            )
            await restarted.start()
            summary = restarted.recover()
            await restarted._idle.wait()
            recovered = restarted.get(job.job_id)
            assert summary["done_from_cache"] == 1
            assert recovered.state == JobState.DONE
            assert recovered.recovered and recovered.cached
            assert recovered.result_payload == job.result_payload
            assert solves["n"] == first_solves  # never re-ran
            await restarted.shutdown()

        run(scenario())

    def test_queued_jobs_requeue_in_order(self, tmp_path, netlist, hierarchy):
        order = []

        def recording_runner(spec):
            order.append(spec.config["seed"])
            from repro.service.jobs import run_spec

            return run_spec(spec)

        async def scenario():
            journal = Journal(tmp_path / "wal")
            manager = JobManager(
                max_concurrency=1, journal=journal, runner=recording_runner
            )
            # Workers never started: jobs stay queued, then we "crash".
            ids = [
                manager.submit(make_spec(netlist, hierarchy, seed=seed)).job_id
                for seed in (3, 1, 2)
            ]
            journal.close()

            restarted = JobManager(
                max_concurrency=1,
                journal=Journal(tmp_path / "wal"),
                runner=recording_runner,
            )
            await restarted.start()
            summary = restarted.recover()
            assert summary["requeued"] == 3
            await restarted._idle.wait()
            assert order == [3, 1, 2]  # original submission order
            for job_id in ids:
                assert restarted.get(job_id).state == JobState.DONE
            await restarted.shutdown()

        run(scenario())

    def test_running_job_requeued_and_finishes(
        self, tmp_path, netlist, hierarchy
    ):
        async def scenario():
            journal = Journal(tmp_path / "wal")
            manager = JobManager(max_concurrency=1, journal=journal)
            spec = make_spec(netlist, hierarchy)
            job = manager.submit(spec)
            # Forge the crash moment: the journal says "running" but no
            # completion record ever landed.
            manager._journal_append(
                {"type": "state", "job_id": job.job_id, "state": "running"}
            )
            journal.close()

            restarted = JobManager(
                max_concurrency=1, journal=Journal(tmp_path / "wal")
            )
            await restarted.start()
            summary = restarted.recover()
            assert summary["requeued"] == 1
            await restarted._idle.wait()
            assert restarted.get(job.job_id).state == JobState.DONE
            await restarted.shutdown()

        run(scenario())

    def test_expired_deadline_fails_on_recovery(
        self, tmp_path, netlist, hierarchy
    ):
        async def scenario():
            journal = Journal(tmp_path / "wal")
            manager = JobManager(max_concurrency=1, journal=journal)
            job = manager.submit(
                make_spec(netlist, hierarchy), deadline=0.0001
            )
            journal.close()
            await asyncio.sleep(0.01)

            restarted = JobManager(
                max_concurrency=1, journal=Journal(tmp_path / "wal")
            )
            await restarted.start()
            summary = restarted.recover()
            assert summary["expired"] == 1
            recovered = restarted.get(job.job_id)
            assert recovered.state == JobState.FAILED
            assert "deadline" in recovered.error
            await restarted.shutdown()

        run(scenario())

    def test_sequence_resumes_past_recovered_ids(
        self, tmp_path, netlist, hierarchy
    ):
        async def scenario():
            journal = Journal(tmp_path / "wal")
            manager = JobManager(max_concurrency=1, journal=journal)
            old = manager.submit(make_spec(netlist, hierarchy))
            journal.close()

            restarted = JobManager(
                max_concurrency=1, journal=Journal(tmp_path / "wal")
            )
            await restarted.start()
            restarted.recover()
            fresh = restarted.submit(make_spec(netlist, hierarchy, seed=9))
            assert fresh.job_id != old.job_id
            old_seq = int(old.job_id.rsplit("-", 1)[-1])
            fresh_seq = int(fresh.job_id.rsplit("-", 1)[-1])
            assert fresh_seq > old_seq
            await restarted.shutdown(drain=False)

        run(scenario())

    def test_recover_without_journal_is_noop(self):
        manager = JobManager(max_concurrency=1)
        assert manager.recover()["recovered"] == 0


# ----------------------------------------------------------------------
# Admission control and deadlines
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_overflow_rejected_with_retry_after(self, netlist, hierarchy):
        manager = JobManager(max_concurrency=1, max_queue_depth=2)
        # Workers not started: everything stays queued.
        manager.submit(make_spec(netlist, hierarchy, seed=1))
        manager.submit(make_spec(netlist, hierarchy, seed=2))
        with pytest.raises(AdmissionError) as excinfo:
            manager.submit(make_spec(netlist, hierarchy, seed=3))
        assert excinfo.value.retry_after >= 1.0
        assert manager.counters.admission_rejections == 1
        assert manager.queue_depth() == 2

    def test_queue_drains_and_admits_again(self, netlist, hierarchy):
        async def scenario():
            manager = JobManager(max_concurrency=1, max_queue_depth=1)
            await manager.start()
            manager.submit(make_spec(netlist, hierarchy, seed=1))
            await manager._idle.wait()
            assert manager.queue_depth() == 0
            job = manager.submit(make_spec(netlist, hierarchy, seed=2))
            await manager._idle.wait()
            assert job.state == JobState.DONE
            await manager.shutdown()

        run(scenario())

    def test_cache_hits_bypass_the_queue(self, tmp_path, netlist, hierarchy):
        async def scenario():
            cache = ResultCache(cache_dir=tmp_path / "cache")
            manager = JobManager(
                max_concurrency=1, cache=cache, max_queue_depth=1
            )
            await manager.start()
            spec = make_spec(netlist, hierarchy)
            manager.submit(spec)
            await manager._idle.wait()
            # Fill the queue with a never-started manager? No — just
            # verify a warm submit never counts against the depth.
            warm = manager.submit(spec)
            assert warm.cached and warm.state == JobState.DONE
            assert manager.queue_depth() == 0
            await manager.shutdown()

        run(scenario())


class TestDeadlines:
    def test_deadline_aborts_solver_with_final_checkpoint(
        self, tmp_path, netlist, hierarchy
    ):
        async def scenario():
            manager = JobManager(
                max_concurrency=1,
                checkpoint_root=tmp_path / "ckpt",
                job_timeout=30.0,
            )
            await manager.start()
            # A deadline so tight the first round poll already misses it.
            job = manager.submit(
                make_spec(netlist, hierarchy), deadline=1e-6
            )
            await manager._idle.wait()
            assert job.state == JobState.FAILED
            assert "deadline" in job.error
            await manager.shutdown()

        run(scenario())

    def test_generous_deadline_completes(self, netlist, hierarchy):
        async def scenario():
            manager = JobManager(max_concurrency=1)
            await manager.start()
            job = manager.submit(make_spec(netlist, hierarchy), deadline=60)
            await manager._idle.wait()
            assert job.state == JobState.DONE
            await manager.shutdown()

        run(scenario())

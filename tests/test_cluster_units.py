"""Unit tests for the cluster building blocks.

Ring (consistent hashing), placement policies, the worker registry's
death ladder, the replay of a router's journal records, and the
router's forward against a scripted worker client — each exercised in
isolation, no sockets.  The replay tests pin the same two properties
the service journal's tests established for the worker's records: any
record prefix replays to a valid state, and replaying twice equals
replaying once.
"""

import hashlib

import pytest

from repro.errors import ServiceError
from repro.htp.hierarchy import binary_hierarchy
from repro.hypergraph.generators import planted_hierarchy_hypergraph
from repro.service.cluster import (
    CapacityPolicy,
    ClusterRouter,
    ConsistentHashPolicy,
    HashRing,
    WorkerInfo,
    WorkerRegistry,
    make_policy,
)
from repro.service.jobs import JobSpec
from repro.service.journal import Journal, replay


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestHashRing:
    def test_empty_ring_places_nowhere(self):
        assert HashRing({}).place(_hash("x")) is None

    def test_single_worker_takes_everything(self):
        ring = HashRing({"solo": 1.0})
        for i in range(20):
            assert ring.place(_hash(f"key{i}")) == "solo"

    def test_placement_is_deterministic(self):
        ring_a = HashRing({"a": 1.0, "b": 1.0, "c": 1.0})
        ring_b = HashRing({"c": 1.0, "a": 1.0, "b": 1.0})  # order-free
        keys = [_hash(f"key{i}") for i in range(50)]
        assert [ring_a.place(k) for k in keys] == [
            ring_b.place(k) for k in keys
        ]

    def test_member_removal_only_moves_its_keys(self):
        """The consistent-hashing contract: dropping one worker moves
        only the keys it owned — everything else stays put."""
        before = HashRing({"a": 1.0, "b": 1.0, "c": 1.0})
        after = HashRing({"a": 1.0, "b": 1.0})
        for i in range(100):
            key = _hash(f"key{i}")
            owner = before.place(key)
            if owner != "c":
                assert after.place(key) == owner

    def test_exclusion_walks_clockwise(self):
        ring = HashRing({"a": 1.0, "b": 1.0})
        key = _hash("anything")
        owner = ring.place(key)
        other = ring.place(key, exclude={owner})
        assert other is not None and other != owner
        assert ring.place(key, exclude={"a", "b"}) is None

    def test_weight_steers_share(self):
        """A worker with 3x weight should own roughly 3x the arc."""
        ring = HashRing({"big": 3.0, "small": 1.0})
        owners = [ring.place(_hash(f"key{i}")) for i in range(400)]
        big_share = owners.count("big") / len(owners)
        assert 0.55 < big_share < 0.95

    def test_rejects_bad_weights(self):
        with pytest.raises(ServiceError):
            HashRing({"a": 0.0})
        with pytest.raises(ServiceError):
            HashRing({"a": -1.0})

    def test_arc_shares_sum_to_one_and_follow_weight(self):
        ring = HashRing({"big": 3.0, "small": 1.0})
        shares = ring.arc_shares()
        assert set(shares) == {"big", "small"}
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["big"] > shares["small"]

    def test_arc_shares_of_an_empty_ring(self):
        assert HashRing({}).arc_shares() == {}


def _worker(worker_id, weight=1.0, in_flight=0, engines=()):
    return WorkerInfo(
        worker_id=worker_id,
        url=f"http://test/{worker_id}",
        weight=weight,
        in_flight=in_flight,
        engines=tuple(engines),
    )


class TestPlacementPolicies:
    def test_make_policy_registry(self):
        assert make_policy("hash").name == "hash"
        assert make_policy("capacity").name == "capacity"
        with pytest.raises(ServiceError):
            make_policy("round-robin")

    def test_hash_policy_matches_ring(self):
        workers = [_worker("a"), _worker("b", weight=2.0)]
        policy = ConsistentHashPolicy()
        ring = HashRing({"a": 1.0, "b": 2.0})
        for i in range(30):
            key = _hash(f"key{i}")
            assert policy.choose(key, workers) == ring.place(key)

    def test_hash_policy_empty(self):
        assert ConsistentHashPolicy().choose(_hash("k"), []) is None

    def test_capacity_prefers_lightest_pressure(self):
        workers = [
            _worker("busy", in_flight=4),
            _worker("idle", in_flight=0),
        ]
        assert CapacityPolicy().choose(_hash("k"), workers) == "idle"

    def test_capacity_honours_weight(self):
        # 4 in flight at weight 4 (pressure 1.25) beats 1 at weight 1
        # (pressure 2.0): bin-packing by declared capacity, not raw load.
        workers = [
            _worker("heavy", weight=4.0, in_flight=4),
            _worker("light", weight=1.0, in_flight=1),
        ]
        assert CapacityPolicy().choose(_hash("k"), workers) == "heavy"

    def test_capacity_ties_break_by_hash(self):
        workers = [_worker("a"), _worker("b")]
        policy = CapacityPolicy()
        ring = HashRing({"a": 1.0, "b": 1.0})
        for i in range(20):
            key = _hash(f"key{i}")
            assert policy.choose(key, workers) == ring.place(key)


class TestWorkerRegistry:
    def test_register_heartbeat_roundtrip(self):
        registry = WorkerRegistry(heartbeat_interval=1.0)
        registry.register(_worker("w1"))
        assert registry.heartbeat("w1", in_flight=3, cached_keys=["k" * 64])
        worker = registry.get("w1")
        assert worker.in_flight == 3
        assert "k" * 64 in worker.cached_keys
        assert registry.state_counts()["alive"] == 1

    def test_unknown_and_dead_heartbeats_refused(self):
        registry = WorkerRegistry()
        assert not registry.heartbeat("ghost")
        registry.register(_worker("w1"))
        registry.mark_dead("w1")
        assert not registry.heartbeat("w1")

    def test_rejoin_after_death_resurrects(self):
        registry = WorkerRegistry()
        registry.register(_worker("w1"))
        registry.mark_dead("w1")
        registry.register(_worker("w1"))
        assert registry.get("w1").state == "alive"
        assert registry.heartbeat("w1")

    def test_rejoin_keeps_original_join_time(self):
        registry = WorkerRegistry()
        first = registry.register(_worker("w1"))
        joined_at = first.joined_at
        second = registry.register(_worker("w1"))
        assert second.joined_at == joined_at

    def test_death_ladder(self):
        """alive -> suspect on the first failed probe, dead at the
        probe-retry budget; a heartbeat resets the ladder."""
        registry = WorkerRegistry(probe_retries=2)
        registry.register(_worker("w1"))
        assert registry.probe_failed("w1") == "suspect"
        assert registry.heartbeat("w1")  # recovers
        assert registry.get("w1").state == "alive"
        assert registry.get("w1").probe_failures == 0
        assert registry.probe_failed("w1") == "suspect"
        assert registry.probe_failed("w1") == "dead"
        assert registry.state_counts()["dead"] == 1

    def test_suspect_excluded_from_placement(self):
        registry = WorkerRegistry()
        registry.register(_worker("w1"))
        registry.register(_worker("w2"))
        registry.probe_failed("w1")
        assert [w.worker_id for w in registry.alive()] == ["w2"]

    def test_engine_filter(self):
        registry = WorkerRegistry()
        registry.register(_worker("any"))  # empty engines = everything
        registry.register(_worker("scipy-only", engines=("scipy",)))
        assert {w.worker_id for w in registry.alive("native")} == {"any"}
        assert {w.worker_id for w in registry.alive("scipy")} == {
            "any",
            "scipy-only",
        }

    def test_overdue_budget(self):
        registry = WorkerRegistry(heartbeat_interval=1.0, max_missed=3)
        worker = registry.register(_worker("w1"))
        now = worker.last_heartbeat
        assert registry.overdue(now + 2.9) == []
        assert [w.worker_id for w in registry.overdue(now + 3.1)] == ["w1"]
        registry.mark_dead("w1")
        assert registry.overdue(now + 10.0) == []  # dead is not probed

    def test_cache_index(self):
        registry = WorkerRegistry()
        key = "a" * 64
        registry.register(_worker("w1"))
        registry.heartbeat("w1", cached_keys=[key])
        assert [w.worker_id for w in registry.cache_owners(key)] == ["w1"]
        registry.forget_cached("w1", key)
        assert registry.cache_owners(key) == []
        registry.heartbeat("w1", cached_keys=[key])
        registry.mark_dead("w1")
        assert registry.cache_owners(key) == []  # dead owners don't count

    def test_constructor_validation(self):
        with pytest.raises(ServiceError):
            WorkerRegistry(heartbeat_interval=0)
        with pytest.raises(ServiceError):
            WorkerRegistry(max_missed=0)
        with pytest.raises(ServiceError):
            WorkerRegistry(probe_retries=0)
        with pytest.raises(ServiceError):
            WorkerRegistry().register(_worker(""))


def _records():
    spec = {"netlist": {}, "hierarchy": {}, "config": {}}
    return [
        {
            "type": "submitted",
            "job_id": "j1",
            "spec_hash": "h1",
            "spec": spec,
            "submitted_at": 1.0,
        },
        {"type": "forwarded", "job_id": "j1", "worker": "w1",
         "worker_job_id": "h1-0001"},
        {"type": "forwarded", "job_id": "j1", "worker": "w2",
         "worker_job_id": "h1-0007"},
        {"type": "state", "job_id": "j1", "state": "done"},
        {"type": "submitted", "job_id": "j2", "spec_hash": "h2",
         "spec": spec},
        {"type": "forwarded", "job_id": "j2", "worker": "w1",
         "worker_job_id": "h2-0002"},
    ]


def _open(state):
    return [
        job.job_id for job in state.in_order()
        if job.state not in ("done", "failed", "cancelled")
    ]


class TestClusterReplay:
    def test_full_replay(self):
        state = replay(_records())
        assert state.skipped == 0
        j1 = state.jobs["j1"]
        assert j1.state == "done"
        assert j1.worker == "w2"
        assert j1.worker_job_id == "h1-0007"
        assert j1.reroutes == 1  # a forward to another worker
        j2 = state.jobs["j2"]
        assert j2.state == "queued"
        assert j2.worker == "w1"
        assert j2.worker_job_id == "h2-0002"
        assert j2.reroutes == 0
        assert _open(state) == ["j2"]

    def test_every_prefix_is_valid(self):
        """Property: replay never raises on any crash prefix, and each
        prefix yields a structurally sound table."""
        records = _records()
        for cut in range(len(records) + 1):
            state = replay(records[:cut])
            for job in state.jobs.values():
                assert job.state in ("queued", "done", "failed", "cancelled")
                assert isinstance(job.reroutes, int)
                assert (job.worker is None) == (job.worker_job_id is None)

    def test_replay_is_idempotent(self):
        once = replay(_records())
        twice = replay(_records() + _records())
        # The duplicated prefix only adds skips, never new state.
        assert {j.job_id: j.state for j in once.in_order()} == {
            j.job_id: j.state for j in twice.in_order()
        }
        assert twice.skipped > 0

    def test_garbage_records_are_counted_not_raised(self):
        garbage = [
            {},
            {"type": "submitted"},  # no job id
            {"type": "state", "job_id": "ghost", "state": "done"},
            {"type": "nonsense", "job_id": "j1"},
            {"type": "submitted", "job_id": "j3", "spec_hash": "h3",
             "spec": "not-a-dict"},
            {"type": "state", "job_id": "j1", "state": "exploded"},
            {"type": "forwarded", "job_id": "ghost", "worker": "w1",
             "worker_job_id": "g-1"},
            {"type": "forwarded", "job_id": "j2", "worker": "w1"},
            {"type": "forwarded", "job_id": "j2", "worker_job_id": "x-1"},
        ]
        state = replay(_records() + garbage)
        assert state.skipped == len(garbage)
        assert state.jobs["j1"].state == "done"
        assert state.jobs["j2"].worker_job_id == "h2-0002"

    def test_resolved_is_terminal_once(self):
        records = _records() + [
            {"type": "state", "job_id": "j1", "state": "failed",
             "error": "late duplicate"},
            {"type": "forwarded", "job_id": "j1", "worker": "w9",
             "worker_job_id": "h1-0009"},
        ]
        state = replay(records)
        assert state.jobs["j1"].state == "done"
        assert state.jobs["j1"].error is None
        assert state.jobs["j1"].worker == "w2"
        assert state.jobs["j1"].reroutes == 1
        assert state.skipped == 2

    def test_old_router_wal_replays_as_skipped_records(self):
        """A router WAL in the vocabulary the router used before it
        shared the worker's journal: every record is skipped and
        counted, nothing is recovered."""
        old = [
            {"type": "placed", "job_id": "j1", "spec_hash": "h1",
             "spec": {}, "worker": "w1", "submitted_at": 1.0},
            {"type": "forwarded", "job_id": "j1", "worker": "w1",
             "worker_job_id": "h1-0001"},
            {"type": "rerouted", "job_id": "j1", "worker": "w2"},
            {"type": "forwarded", "job_id": "j1", "worker": "w2",
             "worker_job_id": "h1-0007"},
            {"type": "resolved", "job_id": "j1", "state": "done"},
        ]
        state = replay(old)
        assert state.jobs == {}
        assert state.replayed == len(old)
        assert state.skipped == len(old)


class TestForwardAck:
    def test_ack_for_a_job_resolved_meanwhile_is_ignored(self, tmp_path):
        """A forward acknowledged after the job was cancelled must not
        revive it: the live job stays as its journal replays."""
        router = ClusterRouter(journal_dir=tmp_path / "wal")
        router.join({"worker_id": "w0", "url": "http://w0.test"})

        class CancelThenAck:
            def submit(self, payload, deadline=None):
                (job,) = router.jobs()
                router.cancel(job.job_id)  # lands mid-forward
                return {"job_id": "w0-0001", "state": "queued"}

        router._clients["http://w0.test"] = CancelThenAck()
        netlist = planted_hierarchy_hypergraph(16, height=2, seed=1)
        spec = JobSpec.from_parts(
            netlist, binary_hierarchy(netlist.total_size(), height=2)
        )
        job = router.submit(spec)
        assert (job.state, job.worker, job.worker_job_id) == (
            "cancelled", None, None
        )
        records = Journal(tmp_path / "wal").scan()
        assert [r["type"] for r in records] == ["submitted", "state"]
        assert replay(records).jobs[job.job_id].state == "cancelled"
        router.close()

"""Shared-nothing failover units: replicas, epochs, the warm standby.

Everything here runs in-process (fake clients, fake clocks, thread-based
routers); the cross-process proofs live in ``tests/chaos/``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.checkpoint import (
    list_checkpoint_frames,
    payload_crc,
    write_checkpoint_file,
)
from repro.core.perf import PerfCounters
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.cluster import (
    CheckpointReplicator,
    ClusterRouter,
    ClusterView,
    PeerInfo,
    RouterThread,
    WorkerRegistry,
    replica_owners,
)
from repro.service.journal import encode_line, replay


# ----------------------------------------------------------------------
# Replica placement
# ----------------------------------------------------------------------
class TestReplicaOwners:
    def _peers(self, count):
        return [
            PeerInfo(worker_id=f"w{i}", url=f"http://w{i}")
            for i in range(count)
        ]

    def test_owners_are_distinct(self):
        owners = replica_owners("spec-a", self._peers(5), 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3

    def test_exclusion_is_honoured(self):
        peers = self._peers(4)
        owners = replica_owners("spec-a", peers, 2, exclude=("w0", "w1"))
        assert set(owners) <= {"w2", "w3"}

    def test_degrades_on_small_clusters(self):
        # Fewer peers than requested replicas: every available peer is
        # an owner, nothing blocks waiting for capacity that isn't there.
        owners = replica_owners("spec-a", self._peers(2), 5)
        assert sorted(owners) == ["w0", "w1"]

    def test_one_worker_cluster_replicates_nowhere(self):
        owners = replica_owners("spec-a", self._peers(1), 2, exclude=("w0",))
        assert owners == []

    def test_zero_count_and_empty_ring(self):
        assert replica_owners("spec-a", self._peers(3), 0) == []
        assert replica_owners("spec-a", [], 2) == []

    def test_placement_is_deterministic(self):
        peers = self._peers(6)
        assert replica_owners("k", peers, 3) == replica_owners("k", peers, 3)


# ----------------------------------------------------------------------
# Fencing-epoch journal replay
# ----------------------------------------------------------------------
def _submitted(job_id):
    return {
        "type": "submitted",
        "job_id": job_id,
        "spec_hash": "a" * 64,
        "spec": {"stub": True},
    }


class TestEpochReplay:
    def test_epoch_tracks_maximum(self):
        state = replay(
            [
                {"type": "epoch", "epoch": 1},
                _submitted("j1"),
                {"type": "epoch", "epoch": 3},
                {"type": "epoch", "epoch": 2},  # regression: skipped
            ]
        )
        assert state.epoch == 3
        assert state.skipped == 1
        assert "j1" in state.jobs

    def test_no_epoch_record_means_zero(self):
        assert replay([_submitted("j1")]).epoch == 0

    def test_malformed_epochs_are_skipped(self):
        state = replay(
            [
                {"type": "epoch"},
                {"type": "epoch", "epoch": "two"},
                {"type": "epoch", "epoch": True},  # bools are not epochs
                {"type": "epoch", "epoch": -1},
            ]
        )
        assert state.epoch == 0
        assert state.skipped == 4


# ----------------------------------------------------------------------
# The worker-side cluster view
# ----------------------------------------------------------------------
class TestClusterView:
    def test_update_adopts_announcements(self):
        view = ClusterView()
        bumped = view.update(
            {
                "epoch": 1,
                "replicas": 2,
                "standby": "http://standby",
                "peers": [
                    {"worker_id": "w1", "url": "http://w1", "weight": 2.0},
                    {"worker_id": "w2", "url": "http://w2"},
                ],
            }
        )
        assert bumped is False  # first epoch is adoption, not a bump
        assert view.epoch == 1
        assert view.replicas == 2
        assert view.standby_url == "http://standby"
        assert {p.worker_id for p in view.peers()} == {"w1", "w2"}
        assert [p.worker_id for p in view.peers(exclude="w1")] == ["w2"]

    def test_epoch_bump_is_flagged(self):
        view = ClusterView()
        view.update({"epoch": 1})
        assert view.update({"epoch": 1}) is False  # no change
        assert view.update({"epoch": 2}) is True  # a real takeover
        assert view.epoch == 2

    def test_update_ignores_garbage(self):
        view = ClusterView()
        view.update({"epoch": 1, "replicas": 1})
        view.update(
            {"epoch": "nine", "replicas": -3, "peers": "nope", "standby": 7}
        )
        assert view.epoch == 1
        assert view.replicas == 1

    def test_admit_epoch_fences_zombies(self):
        view = ClusterView()
        assert view.admit_epoch(2) is True  # first news of the takeover
        assert view.admit_epoch(1) is False  # the zombie's stale stamp
        assert view.admit_epoch(2) is True  # the live router again
        assert view.admit_epoch(None) is True  # unstamped (pre-cluster)
        assert view.epoch == 2


# ----------------------------------------------------------------------
# Checkpoint replication with fake peers
# ----------------------------------------------------------------------
class _FakePeerClient:
    """Implements the ckpt_* client surface over an in-memory store."""

    def __init__(self, store, down=None):
        self.store = store  # spec_hash -> {seq: envelope}
        self.down = down if down is not None else []

    def _check(self):
        if self.down and self.down[0]:
            raise ServiceClientError("peer unreachable")

    def ckpt_push(self, spec_hash, seq, envelope):
        self._check()
        self.store.setdefault(spec_hash, {})[seq] = envelope
        return {"stored": True}

    def ckpt_frames(self, spec_hash):
        self._check()
        return {"frames": sorted(self.store.get(spec_hash, {}))}

    def ckpt_frame(self, spec_hash, seq):
        self._check()
        try:
            return self.store[spec_hash][seq]
        except KeyError:
            raise ServiceClientError("no such frame", status=404)


def _view_with_peer(worker_id="w2", replicas=1):
    view = ClusterView()
    view.update(
        {
            "epoch": 1,
            "replicas": replicas,
            "peers": [
                {"worker_id": "w1", "url": "http://w1"},
                {"worker_id": worker_id, "url": f"http://{worker_id}"},
            ],
        }
    )
    return view


def _envelope(payload):
    return {"crc32": payload_crc(payload), "payload": payload}


class TestCheckpointReplicator:
    def _replicator(self, tmp_path, store, down=None, counters=None):
        view = _view_with_peer()
        return CheckpointReplicator(
            tmp_path / "ckpt",
            "w1",
            view,
            client_factory=lambda url: _FakePeerClient(store, down=down),
            counters=counters,
        )

    def test_sync_pushes_new_frames_once(self, tmp_path):
        spec_dir = tmp_path / "ckpt" / ("a" * 64)
        write_checkpoint_file(spec_dir, 0, {"round": 0})
        write_checkpoint_file(spec_dir, 1, {"round": 1})
        store, counters = {}, PerfCounters()
        replicator = self._replicator(tmp_path, store, counters=counters)
        assert replicator.sync() == 2
        assert sorted(store["a" * 64]) == [0, 1]
        assert counters.ckpt_replications == 2
        # Incremental: nothing new, nothing shipped.
        assert replicator.sync() == 0
        write_checkpoint_file(spec_dir, 2, {"round": 2})
        assert replicator.sync() == 1
        assert counters.ckpt_replications == 3

    def test_unreachable_peer_is_retried_next_sweep(self, tmp_path):
        spec_dir = tmp_path / "ckpt" / ("b" * 64)
        write_checkpoint_file(spec_dir, 0, {"round": 0})
        store, down = {}, [True]
        replicator = self._replicator(tmp_path, store, down=down)
        assert replicator.sync() == 0  # peer down: mark not advanced
        down[0] = False
        assert replicator.sync() == 1  # the missed frame ships now

    def test_no_peers_is_a_noop(self, tmp_path):
        view = ClusterView()  # nothing announced: a one-worker cluster
        replicator = CheckpointReplicator(
            tmp_path / "ckpt", "w1", view,
            client_factory=lambda url: _FakePeerClient({}),
        )
        write_checkpoint_file(
            tmp_path / "ckpt" / ("c" * 64), 0, {"round": 0}
        )
        assert replicator.sync() == 0

    def test_fetch_installs_verified_frames(self, tmp_path):
        store = {"d" * 64: {0: _envelope({"round": 0}),
                            1: _envelope({"round": 1})}}
        counters = PerfCounters()
        replicator = self._replicator(tmp_path, store, counters=counters)
        assert replicator.fetch("d" * 64) == 2
        frames = list_checkpoint_frames(tmp_path / "ckpt" / ("d" * 64))
        assert [seq for seq, _ in frames] == [0, 1]
        assert counters.ckpt_replica_fetches == 2

    def test_fetch_skips_frames_already_local(self, tmp_path):
        spec_dir = tmp_path / "ckpt" / ("e" * 64)
        write_checkpoint_file(spec_dir, 1, {"round": 1})
        store = {"e" * 64: {0: _envelope({"round": 0}),
                            2: _envelope({"round": 2})}}
        replicator = self._replicator(tmp_path, store)
        assert replicator.fetch("e" * 64) == 1  # only seq 2 is newer
        frames = list_checkpoint_frames(spec_dir)
        assert [seq for seq, _ in frames] == [1, 2]

    def test_torn_replicated_frame_is_discarded_and_counted(self, tmp_path):
        torn = _envelope({"round": 0})
        torn["crc32"] = "0" * len(str(torn["crc32"]))  # bit rot in flight
        store = {"f" * 64: {0: torn, 1: _envelope({"round": 1})}}
        counters = PerfCounters()
        replicator = self._replicator(tmp_path, store, counters=counters)
        assert replicator.fetch("f" * 64) == 1  # the good frame only
        frames = list_checkpoint_frames(tmp_path / "ckpt" / ("f" * 64))
        assert [seq for seq, _ in frames] == [1]
        assert counters.checkpoints_discarded == 1
        assert counters.ckpt_replica_fetches == 1


# ----------------------------------------------------------------------
# Monotonic clocks: frozen and stepped fakes
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


class TestInjectedClocks:
    def test_frozen_clock_never_declares_workers_overdue(self):
        clock = _FakeClock()
        registry = WorkerRegistry(
            heartbeat_interval=0.001, max_missed=1, clock=clock
        )
        registry.register(_registry_worker("w1"))
        # Real wall time passing is irrelevant: only the injected
        # monotonic clock drives the overdue arithmetic.
        time.sleep(0.01)
        assert registry.overdue() == []

    def test_stepped_clock_walks_the_ladder_deterministically(self):
        clock = _FakeClock()
        registry = WorkerRegistry(
            heartbeat_interval=1.0, max_missed=3, clock=clock
        )
        registry.register(_registry_worker("w1"))
        clock.now += 2.9
        assert registry.overdue() == []
        clock.now += 0.2  # 3.1 missed-intervals: past the budget
        assert [w.worker_id for w in registry.overdue()] == ["w1"]

    def test_router_monitor_uses_injected_clock(self):
        clock = _FakeClock()
        router = ClusterRouter(
            heartbeat_interval=1.0,
            max_missed=2,
            probe_retries=1,
            probe_timeout=0.2,
            clock=clock,
        )
        router.join(
            {
                "worker_id": "w1",
                # A port nothing listens on: probes fail instantly.
                "url": "http://127.0.0.1:9",
                "max_concurrency": 1,
            }
        )
        router.monitor_tick()
        assert router.registry.get("w1").state == "alive"  # not overdue
        clock.now += 10.0
        router.monitor_tick()  # overdue -> probe fails -> dead (budget 1)
        assert router.registry.get("w1").state == "dead"


def _registry_worker(worker_id):
    from repro.service.cluster.registry import WorkerInfo

    return WorkerInfo(worker_id=worker_id, url=f"http://{worker_id}")


# ----------------------------------------------------------------------
# Warm standby: tail, takeover, torn-tail recovery
# ----------------------------------------------------------------------
def _wait_for(predicate, timeout=15.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


class TestWarmStandby:
    def test_standby_requires_a_journal(self):
        with pytest.raises(Exception, match="journal"):
            thread = RouterThread(standby_of="http://127.0.0.1:9")
            thread.stop()

    def test_tail_takeover_and_epoch_bump(self, tmp_path):
        primary = RouterThread(
            router_kwargs={
                "journal_dir": tmp_path / "wal-primary",
                "heartbeat_interval": 0.1,
            }
        )
        standby = RouterThread(
            router_kwargs={
                "journal_dir": tmp_path / "wal-standby",
                "heartbeat_interval": 0.1,
                "probe_timeout": 0.5,
            },
            standby_of=primary.url,
            epoch_timeout=0.5,
        )
        try:
            client = ServiceClient(standby.url)
            assert client.healthz()["role"] == "standby"
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit({"not": "served yet"})
            assert excinfo.value.status == 503

            # The tail copies the primary's WAL (epoch 1 at least) and
            # the self-announcement lands on the primary.
            primary_client = ServiceClient(primary.url)
            assert primary_client.wal_since(0)["records"][0] == {
                "type": "epoch",
                "epoch": 1,
            }
            _wait_for(
                lambda: (tmp_path / "wal-standby" / "journal.jsonl").exists()
                and primary_client.metricsz()["cluster"]["standby"]
                == standby.url,
                message="standby never announced itself",
            )

            primary.stop()
            _wait_for(
                lambda: _role(client) == "router",
                message="standby never took over",
            )
            assert standby.server.took_over is True
            metrics = client.metricsz()["cluster"]
            assert metrics["epoch"] == 2  # tailed epoch 1, adopted 2
            assert metrics["epoch_bumps"] == 1
        finally:
            standby.stop()
            primary.stop()

    def test_takeover_replays_a_torn_wal_tail(self, tmp_path):
        wal_dir = tmp_path / "wal-standby"
        wal_dir.mkdir(parents=True)
        good = encode_line({"type": "epoch", "epoch": 3}) + encode_line(
            _submitted("j-torn-1")
        )
        torn = encode_line(
            {"type": "state", "job_id": "j-torn-1", "state": "done"}
        )
        (wal_dir / "journal.jsonl").write_text(
            good + torn[: len(torn) // 2], encoding="utf-8"
        )
        standby = RouterThread(
            router_kwargs={
                "journal_dir": wal_dir,
                "heartbeat_interval": 0.1,
                "probe_timeout": 0.5,
            },
            # A dead primary: the first polls fail, takeover is quick.
            standby_of="http://127.0.0.1:9",
            epoch_timeout=0.3,
        )
        try:
            client = ServiceClient(standby.url)
            _wait_for(
                lambda: _role(client) == "router",
                message="standby never took over",
            )
            # The torn tail was dropped (and counted), the valid prefix
            # replayed: job recovered, epoch moved past the journaled 3.
            metrics = client.metricsz()
            assert metrics["cluster"]["epoch"] == 4
            assert metrics["perf"]["journal_torn_records"] >= 1
            listed = {job["job_id"] for job in client.jobs()["jobs"]}
            assert "j-torn-1" in listed
        finally:
            standby.stop()


def _role(client):
    try:
        return client.healthz()["role"]
    except ServiceClientError:
        return None


# ----------------------------------------------------------------------
# /metricsz cluster schema
# ----------------------------------------------------------------------
class TestClusterMetricsSchema:
    def test_cluster_section_schema_is_pinned(self, tmp_path):
        with RouterThread(
            router_kwargs={"journal_dir": tmp_path / "wal"}
        ) as router:
            metrics = ServiceClient(router.url).metricsz()
        cluster = metrics["cluster"]
        assert sorted(cluster) == [
            "cache_replications",
            "ckpt_replica_fetches",
            "ckpt_replications",
            "epoch",
            "epoch_bumps",
            "heartbeat_interval",
            "netfaults_injected",
            "placements",
            "policy",
            "remote_cache_hits",
            "replicas",
            "reroutes",
            "standby",
            "workers",
        ]
        assert cluster["epoch"] == 1
        assert cluster["replicas"] == 1
        assert cluster["standby"] is None
        for counter in (
            "cache_replications",
            "ckpt_replications",
            "ckpt_replica_fetches",
            "epoch_bumps",
            "netfaults_injected",
        ):
            assert cluster[counter] == 0

    def test_counters_round_trip_through_perf_dict(self):
        counters = PerfCounters()
        counters.ckpt_replications = 3
        counters.cache_replications = 2
        counters.router_epoch_bumps = 1
        counters.ckpt_replica_fetches = 4
        counters.netfaults_injected = 5
        clone = PerfCounters.from_dict(counters.as_dict())
        assert clone.ckpt_replications == 3
        assert clone.cache_replications == 2
        assert clone.router_epoch_bumps == 1
        assert clone.ckpt_replica_fetches == 4
        assert clone.netfaults_injected == 5

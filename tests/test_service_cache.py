"""Unit tests for the content-addressed result cache."""

import json

import pytest

from repro.core.perf import PerfCounters
from repro.errors import ServiceError
from repro.service.cache import ResultCache


def key(n: int) -> str:
    """A distinct well-formed (64-hex) cache key."""
    return format(n, "x").rjust(64, "0")


def payload(n: int) -> dict:
    return {"spec_hash": key(n), "result": {"cost": float(n)}}


class TestMemoryTier:
    def test_get_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get(key(1)) is None
        cache.put(key(1), payload(1))
        assert cache.get(key(1)) == payload(1)
        assert cache.counters.cache_misses == 1
        assert cache.counters.cache_hits == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(key(1), payload(1))
        cache.put(key(2), payload(2))
        cache.get(key(1))  # 1 is now most recently used
        cache.put(key(3), payload(3))  # evicts 2
        assert cache.get(key(2)) is None
        assert cache.get(key(1)) is not None
        assert cache.get(key(3)) is not None
        assert cache.counters.cache_evictions == 1

    def test_reinsert_moves_to_back(self):
        cache = ResultCache(capacity=2)
        cache.put(key(1), payload(1))
        cache.put(key(2), payload(2))
        cache.put(key(1), payload(1))  # refresh 1
        cache.put(key(3), payload(3))  # evicts 2, not 1
        assert key(1) in cache
        assert cache.get(key(2)) is None

    def test_capacity_one(self):
        cache = ResultCache(capacity=1)
        cache.put(key(1), payload(1))
        cache.put(key(2), payload(2))
        assert len(cache) == 1
        assert cache.counters.cache_evictions == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ServiceError):
            ResultCache(capacity=0)

    @pytest.mark.parametrize(
        "bad", ["short", "Z" * 64, "../../../etc/passwd", 123, "A" * 64]
    )
    def test_rejects_malformed_keys(self, bad):
        cache = ResultCache()
        with pytest.raises(ServiceError, match="hex"):
            cache.get(bad)

    def test_rejects_mismatched_spec_hash(self):
        cache = ResultCache()
        with pytest.raises(ServiceError, match="content addressing"):
            cache.put(key(1), payload(2))

    def test_rejects_payload_without_spec_hash(self):
        cache = ResultCache()
        with pytest.raises(ServiceError, match="content addressing"):
            cache.put(key(1), {"result": {"cost": -1.0}})
        assert key(1) not in cache


class TestDiskTier:
    def test_round_trip_through_disk(self, tmp_path):
        first = ResultCache(capacity=4, cache_dir=tmp_path / "cache")
        first.put(key(7), payload(7))
        # A fresh cache over the same directory: memory is cold, disk hits.
        second = ResultCache(capacity=4, cache_dir=tmp_path / "cache")
        got = second.get(key(7))
        assert got == payload(7)
        assert second.counters.cache_hits == 1
        assert second.stats()["disk_hits"] == 1
        # The blob is a CRC-enveloped JSON document named by its key.
        blob = tmp_path / "cache" / f"{key(7)}.json"
        doc = json.loads(blob.read_text())
        assert doc["payload"] == payload(7)
        assert "crc32" in doc

    def test_memory_eviction_keeps_disk_blob(self, tmp_path):
        cache = ResultCache(capacity=1, cache_dir=tmp_path / "cache")
        cache.put(key(1), payload(1))
        cache.put(key(2), payload(2))  # evicts 1 from memory only
        assert cache.counters.cache_evictions == 1
        assert cache.get(key(1)) == payload(1)  # served from disk
        assert cache.stats()["disk_hits"] == 1

    def test_corrupt_blob_is_quarantined_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / f"{key(3)}.json").write_text("{not json")
        cache = ResultCache(cache_dir=cache_dir)
        assert cache.get(key(3)) is None
        assert cache.counters.cache_corrupt == 1
        assert cache.counters.cache_misses == 1
        assert not (cache_dir / f"{key(3)}.json").exists()
        assert (cache_dir / f"{key(3)}.corrupt").exists()
        # Second lookup is a clean miss, not a second quarantine.
        assert cache.get(key(3)) is None
        assert cache.counters.cache_corrupt == 1

    def test_truncated_blob_is_quarantined_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path / "cache")
        cache.put(key(6), payload(6))
        cache = ResultCache(cache_dir=tmp_path / "cache")  # cold memory
        blob = tmp_path / "cache" / f"{key(6)}.json"
        blob.write_text(blob.read_text()[:-7])  # hand-truncate
        assert cache.get(key(6)) is None
        assert cache.counters.cache_corrupt == 1
        assert blob.with_suffix(".corrupt").exists()
        # A fresh put repairs the entry and serves again.
        cache.put(key(6), payload(6))
        assert cache.get(key(6)) == payload(6)

    def test_blob_hash_mismatch_is_quarantined_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / f"{key(4)}.json").write_text(json.dumps(payload(5)))
        cache = ResultCache(cache_dir=cache_dir)
        assert cache.get(key(4)) is None
        assert cache.counters.cache_corrupt == 1
        assert (cache_dir / f"{key(4)}.corrupt").exists()

    def test_blob_without_spec_hash_is_quarantined_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / f"{key(4)}.json").write_text(
            json.dumps({"result": {"cost": -1.0}})
        )
        cache = ResultCache(cache_dir=cache_dir)
        assert cache.get(key(4)) is None
        assert cache.counters.cache_corrupt == 1

    def test_legacy_envelope_less_blob_still_loads(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / f"{key(7)}.json").write_text(json.dumps(payload(7)))
        cache = ResultCache(cache_dir=cache_dir)
        assert cache.get(key(7)) == payload(7)
        assert cache.counters.cache_corrupt == 0

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path / "cache")
        cache.put(key(1), payload(1))
        leftovers = list((tmp_path / "cache").glob("*.tmp"))
        assert leftovers == []


class TestCounters:
    def test_shared_counters_instance(self):
        counters = PerfCounters()
        cache = ResultCache(counters=counters)
        cache.get(key(1))
        cache.put(key(1), payload(1))
        cache.get(key(1))
        assert counters.cache_misses == 1
        assert counters.cache_hits == 1

    def test_stats_shape(self, tmp_path):
        cache = ResultCache(capacity=3, cache_dir=tmp_path / "c")
        cache.put(key(1), payload(1))
        cache.get(key(1))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["capacity"] == 3
        assert stats["hits"] == 1
        assert stats["memory_hits"] == 1
        assert stats["misses"] == 0
        assert stats["disk"].endswith("c")

"""SolveCache persistence (dump/load) and bounded-eviction accounting."""

import pytest

from repro.harness.baselines import collect_baselines
from repro.machine import XEON_E5649
from repro.sim import SimulationEngine
from repro.sim.solve_cache import GLOBAL_ENGINE_STATS, EngineStats, SolveCache
from repro.workloads import get_application


class TestDumpLoad:
    def test_bytes_roundtrip(self):
        cache = SolveCache()
        cache.put(("a", 1), {"x": 1.0})
        cache.put(("b", 2), {"y": 2.0})
        fresh = SolveCache()
        assert fresh.load_bytes(cache.dump_bytes()) == 2
        assert fresh.get(("a", 1)) == {"x": 1.0}
        assert len(fresh) == 2

    def test_file_roundtrip(self, tmp_path):
        cache = SolveCache()
        cache.put(("k",), "state")
        path = tmp_path / "cache.pkl"
        assert cache.dump(path) == 1
        fresh = SolveCache()
        assert fresh.load(path) == 1
        assert ("k",) in fresh

    def test_existing_entries_win_on_merge(self):
        ours = SolveCache()
        ours.put(("k",), "ours")
        theirs = SolveCache()
        theirs.put(("k",), "theirs")
        theirs.put(("other",), "new")
        assert ours.load_bytes(theirs.dump_bytes()) == 1  # only ("other",)
        assert ours.get(("k",)) == "ours"

    def test_corrupt_payload_raises_value_error(self):
        with pytest.raises(ValueError, match="corrupt"):
            SolveCache().load_bytes(b"garbage")

    def test_load_respects_bound(self):
        donor = SolveCache()
        for i in range(10):
            donor.put((i,), i)
        bounded = SolveCache(max_entries=3)
        assert bounded.load_bytes(donor.dump_bytes()) == 10
        # The donor's recency order survives: the 7 oldest were evicted.
        assert len(bounded) == 3
        assert [(i,) in bounded for i in range(10)] == [False] * 7 + [True] * 3


class TestEvictionCounter:
    def test_unbounded_never_evicts(self):
        cache = SolveCache()
        for i in range(100):
            assert cache.put((i,), i) is False

    def test_put_reports_and_counts_evictions(self):
        cache = SolveCache(max_entries=2)
        assert cache.put((1,), 1) is False
        assert cache.put((2,), 2) is False
        assert cache.put((3,), 3) is True
        assert (1,) not in cache and (3,) in cache

    def test_engine_stats_record_merge_reset(self):
        stats = EngineStats()
        stats.record_eviction()
        stats.record_eviction()
        assert stats.cache_evictions == 2
        other = EngineStats()
        other.record_eviction()
        stats.merge(other)
        assert stats.cache_evictions == 3

    def test_engine_records_evictions_under_bounded_cache(self):
        engine = SimulationEngine(XEON_E5649, cache=SolveCache(max_entries=2))
        ep = get_application("ep")
        before = GLOBAL_ENGINE_STATS.cache_evictions
        # Baselines sweep 6 P-states: 6 misses into a bound of 2 evict 4.
        collect_baselines(engine, apps=[ep])
        assert engine.stats.cache_evictions == 4
        assert (
            GLOBAL_ENGINE_STATS.cache_evictions - before
            == engine.stats.cache_evictions
        )

    def test_prometheus_exposition_includes_evictions(self):
        stats = EngineStats()
        stats.record_eviction()
        text = stats.render_prometheus()
        assert "repro_engine_cache_evictions_total 1" in text

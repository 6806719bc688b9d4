"""Tests for the memoized experiment engine on the campaign
orchestrator: cache accounting, identical rows at any worker count,
deterministic ordering, and the one-solve-per-sweep guarantee."""

import threading
import time

import pytest

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_cache_stats,
    capacity_distribution,
    clear_capacity_caches,
)
from repro import obs
from repro.analytic.solve_cache import LRUSolveCache
from repro.errors import ConfigurationError
from repro.experiments import sweeps
from repro.experiments.engine import SweepRunner


# ----------------------------------------------------------------------
# LRU solve cache
# ----------------------------------------------------------------------
class TestLRUSolveCache:
    def test_hit_miss_accounting(self):
        cache = LRUSolveCache(maxsize=4)
        calls = []
        assert cache.get_or_compute("a", lambda: calls.append(1) or 1) == 1
        assert cache.get_or_compute("a", lambda: calls.append(2) or 2) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert calls == [1]

    def test_module_cache_stats_registry(self):
        clear_capacity_caches(reset_stats=True)
        config = CapacityModelConfig(failure_rate_per_hour=3e-5, threshold=10)
        capacity_distribution(config, stages=8)
        capacity_distribution(config, stages=8)
        stats = capacity_cache_stats()["distribution"]
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
        # The counters live in the one registry, under the cache's name.
        values = obs.snapshot()
        assert values["capacity.cache.distribution.hits"] == 1
        assert values["capacity.cache.distribution.misses"] == 1

    def test_new_cache_claims_its_name(self):
        first = LRUSolveCache(maxsize=2, name="probe.cache")
        first.get_or_compute("k", lambda: 1)
        assert first.stats().misses == 1
        second = LRUSolveCache(maxsize=2, name="probe.cache")
        assert (second.stats().hits, second.stats().misses) == (0, 0)

    def test_lru_eviction_order(self):
        cache = LRUSolveCache(maxsize=2)
        cache.get_or_compute("a", lambda: "A")
        cache.get_or_compute("b", lambda: "B")
        cache.get_or_compute("a", lambda: "A2")  # refresh a
        cache.get_or_compute("c", lambda: "C")  # evicts b (LRU)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats().evictions == 1

    def test_rejects_zero_maxsize(self):
        with pytest.raises(ConfigurationError):
            LRUSolveCache(maxsize=0)

    def test_seed_does_not_count_as_lookup(self):
        cache = LRUSolveCache(maxsize=4)
        cache.seed([("k", 42)])
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 1)
        assert cache.get_or_compute("k", lambda: 0) == 42
        assert cache.stats().hits == 1

    def test_clear_keeps_counters_unless_reset(self):
        cache = LRUSolveCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1
        cache.clear(reset_stats=True)
        assert cache.stats().misses == 0

    def test_concurrent_requests_compute_exactly_once(self):
        cache = LRUSolveCache(maxsize=2)
        computed = []

        def factory():
            time.sleep(0.01)
            computed.append(1)
            return "value"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_or_compute("shared", factory)
                )
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["value"] * 8
        assert len(computed) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (7, 1)


# ----------------------------------------------------------------------
# Capacity-solve memoization
# ----------------------------------------------------------------------
class TestCapacityMemoization:
    def test_repeat_solve_hits_cache(self):
        clear_capacity_caches()
        config = CapacityModelConfig(failure_rate_per_hour=3e-5, threshold=10)
        before = capacity_cache_stats()["distribution"]
        first = capacity_distribution(config, stages=8)
        second = capacity_distribution(config, stages=8)
        after = capacity_cache_stats()["distribution"]
        assert first == second
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1

    def test_distinct_stage_counts_are_distinct_solves(self):
        clear_capacity_caches()
        config = CapacityModelConfig(failure_rate_per_hour=3e-5, threshold=10)
        before = capacity_cache_stats()["distribution"]
        capacity_distribution(config, stages=4)
        capacity_distribution(config, stages=8)
        after = capacity_cache_stats()["distribution"]
        assert after.misses - before.misses == 2

    def test_cached_result_is_isolated_from_caller_mutation(self):
        clear_capacity_caches()
        config = CapacityModelConfig(failure_rate_per_hour=3e-5, threshold=10)
        first = capacity_distribution(config, stages=8)
        first[14] = -1.0
        second = capacity_distribution(config, stages=8)
        assert second[14] != -1.0
        assert abs(sum(second.values()) - 1.0) < 1e-9

    def test_tau_sweep_performs_exactly_one_capacity_solve(self):
        """The acceptance guard: 9 taus, 1 solve."""
        clear_capacity_caches()
        before = capacity_cache_stats()["distribution"]
        result = sweeps.run_tau_sweep(
            taus=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), stages=8
        )
        after = capacity_cache_stats()["distribution"]
        assert len(result.rows) == 9
        assert after.misses - before.misses == 1
        # The first point solves; every later point re-reads that solve
        # from the cache.
        assert after.hits - before.hits == 8

    def test_mu_sweep_shares_the_tau_sweep_solve(self):
        """Capacity is independent of both tau and mu: a mu sweep at the
        same (lambda, eta, stages) adds zero further solves."""
        clear_capacity_caches()
        sweeps.run_tau_sweep(taus=(1.0, 2.0), stages=8)
        before = capacity_cache_stats()["distribution"]
        sweeps.run_mu_sweep(mean_durations=(1.0, 5.0), stages=8)
        after = capacity_cache_stats()["distribution"]
        assert after.misses == before.misses


# ----------------------------------------------------------------------
# SweepRunner
# ----------------------------------------------------------------------
def _double_row(point):
    """Top-level so the process-pool path can pickle it."""
    return {"x": point["x"], "y": 2 * point["x"]}


def _staggered_row(point):
    """Later points finish first -- exercises order restoration."""
    time.sleep(0.05 * (3 - point["x"]) if point["x"] < 3 else 0.0)
    return {"x": point["x"]}


def _failing_row(point):
    if point["x"] == 1:
        raise ValueError("boom")
    return {"x": point["x"]}


def _own_chunk(point):
    """Affinity putting every point in a chunk of its own, so a grid
    reaches the process pool."""
    return point["x"]


def _rate_row(point):
    """One failure rate's ``P(k)`` on the shared threshold-10 topology."""
    config = CapacityModelConfig(
        failure_rate_per_hour=point["lam"], threshold=10
    )
    distribution = capacity_distribution(config, stages=8)
    return {"lam": point["lam"], **{str(k): p for k, p in distribution.items()}}


class TestSweepRunner:
    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(n_jobs=0)
        with pytest.raises(ConfigurationError):
            SweepRunner(n_jobs=-2)
        with pytest.raises(ConfigurationError):
            SweepRunner(n_jobs=1.5)
        with pytest.raises(ConfigurationError, match="n_jobs"):
            SweepRunner(n_jobs=True)

    def test_n_jobs_minus_one_uses_cpu_count(self):
        assert SweepRunner(n_jobs=-1).n_jobs >= 1

    def test_empty_grid(self):
        assert SweepRunner().map_rows(_double_row, []) == []

    def test_sequential_matches_parallel(self):
        points = [{"x": i} for i in range(6)]
        sequential = SweepRunner(n_jobs=1).map_rows(
            _double_row, points, affinity=_own_chunk
        )
        parallel = SweepRunner(n_jobs=4).map_rows(
            _double_row, points, affinity=_own_chunk
        )
        assert sequential == parallel
        assert sequential == [{"x": i, "y": 2 * i} for i in range(6)]

    def test_parallel_rows_keep_grid_order(self):
        points = [{"x": i} for i in range(4)]
        rows = SweepRunner(n_jobs=4).map_rows(
            _staggered_row, points, affinity=_own_chunk
        )
        assert [row["x"] for row in rows] == [0, 1, 2, 3]

    def test_worker_exception_propagates(self):
        points = [{"x": i} for i in range(3)]
        with pytest.raises(ValueError, match="boom"):
            SweepRunner(n_jobs=2).map_rows(
                _failing_row, points, affinity=_own_chunk
            )

    def test_pool_submits_chunks_not_points(self):
        # Regression: the old pool submitted one task per grid point,
        # pickling row_fn (and paying executor round-trips) N times.
        # The campaign orchestrator submits per chunk.
        points = [{"x": i} for i in range(40)]
        runner = SweepRunner(n_jobs=2)
        rows = runner.map_rows(
            _double_row, points, affinity=lambda point: point["x"] % 2
        )
        assert rows == [{"x": i, "y": 2 * i} for i in range(40)]
        stats = runner.last_campaign.stats
        assert stats["chunks"] == 2  # one per affinity group
        assert stats["workers"] == 2
        assert stats["submissions"] == stats["chunks"]
        assert stats["submissions"] < len(points)

    def test_run_records_stage_timings(self):
        result = SweepRunner().run(
            experiment_id="demo",
            title="demo",
            headers=["x", "y"],
            row_fn=_double_row,
            points=[{"x": 1}, {"x": 2}],
        )
        assert set(result.timings) == {
            "rows",
            "total",
            "assemble",
            "refine",
            "quotient",
            "rerate",
            "solve",
            "batch_template",
            "batch_replicate",
            "batch_run",
            "batch_vector",
            "batch_vector_fallback",
        }
        assert result.timings["total"] >= result.timings["rows"]
        assert all(v >= 0.0 for v in result.timings.values())
        assert result.rows == [{"x": 1, "y": 2}, {"x": 2, "y": 4}]

    def test_run_surfaces_cache_stats_metadata(self):
        clear_capacity_caches(reset_stats=True)
        config = CapacityModelConfig()

        def solving_row(point):
            distribution = capacity_distribution(config, stages=24)
            return {"x": point["x"], "y": max(distribution.values())}

        result = SweepRunner().run(
            experiment_id="demo",
            title="demo",
            headers=["x", "y"],
            row_fn=solving_row,
            points=[{"x": 1}, {"x": 2}],
        )
        stats = result.metadata["cache_stats"]
        # The capacity caches are registered by name; the first row's
        # solve is the miss, the second row's solve of the same config
        # the hit.
        distributions = stats["capacity-distribution"]
        assert distributions["misses"] >= 1
        assert distributions["hits"] >= 1
        assert 0.0 <= distributions["hit_rate"] <= 1.0
        assert set(distributions) == {
            "hits", "misses", "evictions", "size", "maxsize", "hit_rate",
        }

    def test_cache_stats_are_the_runs_own_counts(self):
        """Each run reports its own lookups, not the process total: the
        first tau sweep solves once and hits eight times, an identical
        second run finds that solve cached."""
        clear_capacity_caches(reset_stats=True)
        first, second = (
            sweeps.run_tau_sweep().metadata["cache_stats"][
                "capacity-distribution"
            ]
            for _ in range(2)
        )
        assert (first["hits"], first["misses"]) == (8, 1)
        assert (second["hits"], second["misses"]) == (9, 0)
        assert first["size"] == second["size"] == 1

    def test_grid_always_runs_as_a_campaign(self):
        runner = SweepRunner()
        assert runner.map_rows(_double_row, []) == []
        assert runner.last_campaign.stats["chunks"] == 0
        points = [{"x": 1}, {"x": 2}]
        runner.map_rows(_double_row, points)
        assert runner.last_campaign.stats["chunks"] == 1
        # n_jobs=1 runs every chunk inline, in this process.
        runner.map_rows(_double_row, points, affinity=_own_chunk)
        campaign = runner.last_campaign
        assert campaign.stats["chunks"] == campaign.stats["executed"] == 2
        assert campaign.stats["workers"] == 1
        assert not any(chunk.in_worker for chunk in campaign.chunks)


class TestParallelExperimentEquivalence:
    def test_rate_grid_without_affinity_identical_at_any_n_jobs(self):
        """Six failure rates on one SAN topology, no affinity: the plan
        is one chunk whatever the worker count, so every row -- warm
        started from the previous rate -- is the same at n_jobs 1 and 2."""
        points = [{"lam": lam} for lam in (1e-5, 2e-5, 3e-5, 5e-5, 7e-5, 1e-4)]
        rows = []
        for n_jobs in (1, 2):
            clear_capacity_caches()
            rows.append(SweepRunner(n_jobs=n_jobs).map_rows(_rate_row, points))
        assert rows[0] == rows[1]

"""Benchmark ``tau-sweep``: QoS measure vs deadline (Section 4.3
in-text study), plus the engine-vs-seed speedup guard.

The sweep's capacity distribution is independent of ``tau``, so the
memoized engine performs one SAN solve for the whole grid where the
seed re-solved per point.  The guard times both paths (the seed
behaviour is recovered by clearing the capacity caches before a
one-``tau`` sweep per point) and asserts the engine is at least 3x
faster.
"""

import time

from repro.analytic.capacity import capacity_cache_stats, clear_capacity_caches
from repro.experiments import sweeps

#: ``run_tau_sweep``'s default grid, swept point by point for the
#: baseline.
TAUS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


def test_bench_tau_sweep(run_once):
    clear_capacity_caches()
    result = run_once(sweeps.run_tau_sweep)
    print()
    print(result.render())
    timings = {k: round(v, 3) for k, v in result.timings.items()}
    print(f"stage timings: {timings}")
    oaq = [row["OAQ P(Y>=2)"] for row in result.rows]
    baq = [row["BAQ P(Y>=2)"] for row in result.rows]
    # OAQ keeps exploiting extra time allowance; BAQ saturates.
    assert oaq == sorted(oaq)
    assert oaq[-1] > oaq[0] + 0.2
    assert max(baq) - min(baq) < 0.01


def test_bench_tau_sweep_speedup_vs_per_point_resolve(run_once):
    """Acceptance guard: memoized engine >= 3x the seed's re-solve path."""
    start = time.perf_counter()
    baseline_rows = []
    for tau in TAUS:
        clear_capacity_caches()
        baseline_rows.extend(sweeps.run_tau_sweep(taus=(tau,)).rows)
    baseline = time.perf_counter() - start

    clear_capacity_caches()
    before = capacity_cache_stats()["distribution"]
    start = time.perf_counter()
    engine_result = run_once(sweeps.run_tau_sweep, taus=TAUS)
    engine = time.perf_counter() - start
    after = capacity_cache_stats()["distribution"]

    # Every solve on both paths is a cold solve of the same chain; the
    # rows are compared at the re-rate contract's 1e-12, not bit for
    # bit.
    assert len(engine_result.rows) == len(baseline_rows)
    for engine_row, baseline_row in zip(engine_result.rows, baseline_rows):
        assert engine_row.keys() == baseline_row.keys()
        for key, engine_value in engine_row.items():
            baseline_value = baseline_row[key]
            if isinstance(engine_value, float):
                assert abs(engine_value - baseline_value) <= 1e-12, (
                    f"{key}: {engine_value!r} vs {baseline_value!r}"
                )
            else:
                assert engine_value == baseline_value
    assert after.misses - before.misses == 1  # one solve for 9 taus
    speedup = baseline / engine
    print(
        f"\nper-point re-solve {baseline:.2f}s vs engine {engine:.2f}s "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= 3.0, (
        f"engine speedup {speedup:.2f}x below the 3x floor "
        f"(baseline {baseline:.3f}s, engine {engine:.3f}s)"
    )

"""Benchmark ``rerate-sweep``: the topology/rate-split acceptance guard.

A fixed-topology rate sweep (Figure 7's shape: one capacity topology,
many ``lambda`` values) must be at least **5x faster** through the
re-rate path -- assemble the state space once, re-rate the transition
arrays per point, warm-start each steady-state solve from the previous
point -- than the seed's per-point full regeneration (reachability +
unfolding + direct solve for every ``lambda``), while agreeing with it
on every ``P(k)`` to 1e-12.

The per-run numbers (times, speedup, max deviation, solver statistics
and per-stage timings) are also written to ``BENCH_rerate_sweep.json``
at the repository root so CI can archive them as an artifact.
"""

import json
import time
from pathlib import Path

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_distribution,
    capacity_solver_stats,
    capacity_stage_timings,
    clear_capacity_caches,
)

#: 24 points amortise the sweep's fixed costs (one assemble, one ILU
#: factorisation) the way a real Figure-7-style sweep does.
POINTS = 24

REPO_ROOT = Path(__file__).resolve().parent.parent


def _sweep_configs():
    return [
        CapacityModelConfig(failure_rate_per_hour=i * 9.6e-5 / POINTS)
        for i in range(1, POINTS + 1)
    ]


def test_bench_rerate_sweep_speedup_vs_full_regeneration(
    run_once, regenerated
):
    """Acceptance guard: re-rated sweep >= 5x per-point regeneration,
    P(k) agreement <= 1e-12."""
    configs = _sweep_configs()

    start = time.perf_counter()
    baseline = [regenerated(config) for config in configs]
    baseline_seconds = time.perf_counter() - start

    clear_capacity_caches(reset_stats=True)

    def rerate_sweep():
        return [capacity_distribution(config) for config in configs]

    start = time.perf_counter()
    rerated = run_once(rerate_sweep)
    rerate_seconds = time.perf_counter() - start

    stats = capacity_solver_stats()
    timings = capacity_stage_timings()

    max_deviation = max(
        abs(baseline_row[k] - rerated_row[k])
        for baseline_row, rerated_row in zip(baseline, rerated)
        for k in baseline_row
    )
    speedup = baseline_seconds / rerate_seconds

    payload = {
        "points": POINTS,
        "baseline_s": round(baseline_seconds, 4),
        "rerate_s": round(rerate_seconds, 4),
        "speedup": round(speedup, 2),
        "max_pk_deviation": max_deviation,
        "solver_stats": stats,
        "stage_timings": {k: round(v, 4) for k, v in timings.items()},
    }
    (REPO_ROOT / "BENCH_rerate_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(
        f"\nfull regeneration {baseline_seconds:.2f}s vs re-rate "
        f"{rerate_seconds:.2f}s -> {speedup:.1f}x "
        f"(max |dP(k)| = {max_deviation:.2e})"
    )
    print(f"solver stats: {stats}")

    # Correctness before speed: every point's P(k) must match the
    # full-rebuild answer to the contract tolerance.
    assert max_deviation <= 1e-12, (
        f"re-rated sweep deviates from full rebuild by {max_deviation:.3e}"
    )
    # Every point went through the iterative solver, all but the cold
    # first point warm-started, and the topology never fell back to a
    # full regeneration.
    assert stats["iterative"] == POINTS
    assert stats["warm_started"] == POINTS - 1
    assert stats["structure_fallbacks"] == 0
    assert stats["solver_fallbacks"] == 0
    assert speedup >= 5.0, (
        f"re-rate speedup {speedup:.2f}x below the 5x floor "
        f"(baseline {baseline_seconds:.3f}s, re-rate {rerate_seconds:.3f}s)"
    )

"""Micro-benchmarks of the library's computational kernels (these run
multiple rounds, unlike the experiment benchmarks)."""

import numpy as np

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_cache_stats,
    capacity_caches_disabled,
    capacity_distribution,
    clear_capacity_caches,
)
from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.schemes import Scheme
from repro.experiments.engine import SweepRunner
from repro.simulation.batch import ScenarioTemplate
from repro.simulation.qos_montecarlo import simulate_conditional_distribution


def test_bench_capacity_solve(benchmark):
    """Reachability + Erlang unfolding + sparse steady state (cache
    bypassed: this measures the actual solve)."""
    config = CapacityModelConfig(failure_rate_per_hour=5e-5, threshold=10)

    def solve():
        with capacity_caches_disabled():
            return capacity_distribution(config, stages=24)

    result = benchmark(solve)
    assert abs(sum(result.values()) - 1.0) < 1e-8


def test_bench_capacity_solve_memoized(benchmark):
    """The cache-hit path the experiment engine rides: key lookup plus
    a defensive dict copy, no SAN pipeline."""
    config = CapacityModelConfig(failure_rate_per_hour=5e-5, threshold=10)
    clear_capacity_caches()
    capacity_distribution(config, stages=24)  # warm the cache
    before = capacity_cache_stats()["distribution"]
    result = benchmark(capacity_distribution, config, stages=24)
    after = capacity_cache_stats()["distribution"]
    assert abs(sum(result.values()) - 1.0) < 1e-8
    assert after.misses == before.misses  # every benchmark round hit
    assert after.hits > before.hits


def test_bench_sweep_runner_dispatch_overhead(benchmark):
    """Sequential SweepRunner bookkeeping on a trivial grid (the cost
    floor the engine adds on top of the per-point work)."""
    points = [{"x": float(i)} for i in range(64)]
    runner = SweepRunner(n_jobs=1)
    rows = benchmark(runner.map_rows, _identity_row, points)
    assert [row["x"] for row in rows] == [float(i) for i in range(64)]


def _identity_row(point):
    return {"x": point["x"]}


def test_bench_conditional_closed_form(benchmark):
    """One closed-form conditional distribution (the Eq. 4/5 kernel)."""
    params = EvaluationParams(signal_termination_rate=0.2)
    geometry = params.constellation.plane_geometry(12)
    result = benchmark(conditional_distribution, geometry, params, Scheme.OAQ)
    assert 0.0 < result.at_least(3) < 1.0


def test_bench_vectorized_sampler(benchmark):
    """100k-sample vectorised Monte-Carlo classification."""
    params = EvaluationParams(signal_termination_rate=0.2)
    geometry = params.constellation.plane_geometry(12)
    result = benchmark(
        simulate_conditional_distribution,
        geometry,
        params,
        Scheme.OAQ,
        samples=100_000,
        seed=1,
    )
    assert abs(sum(result.as_dict().values()) - 1.0) < 1e-9


def test_bench_protocol_episode(benchmark):
    """One full message-passing coordination episode: template
    construction, ``replicate`` and ``run``."""
    params = EvaluationParams(signal_termination_rate=0.2)
    geometry = params.constellation.plane_geometry(9)

    def episode():
        template = ScenarioTemplate(geometry, params, record_log=True)
        return template.replicate(
            1, onset_position=8.0, signal_duration=6.0
        ).run()

    outcome = benchmark(episode)
    assert outcome.official_alert is not None

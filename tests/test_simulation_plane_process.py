"""Tests for repro.simulation.plane_process -- the independent DES of
the capacity process, cross-checked against the SAN solution."""

import math

import numpy as np
import pytest

from repro.analytic.capacity import CapacityModelConfig, capacity_distribution
from repro.errors import ConfigurationError
from repro.simulation.plane_process import (
    PlaneDegradationSimulation,
    sample_capacity_states,
    simulate_capacity_distribution,
)


class TestBasicBehaviour:
    def test_distribution_sums_to_one(self):
        config = CapacityModelConfig(failure_rate_per_hour=5e-5)
        distribution = simulate_capacity_distribution(
            config, horizon_hours=3e5, seed=1
        )
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_capacity_never_exceeds_full(self):
        config = CapacityModelConfig(failure_rate_per_hour=1e-4)
        distribution = simulate_capacity_distribution(
            config, horizon_hours=3e5, seed=2
        )
        assert max(distribution) <= config.full_capacity

    def test_threshold_sustains_capacity(self):
        """Below-threshold excursions exist but are brief."""
        config = CapacityModelConfig(failure_rate_per_hour=1e-4, threshold=10)
        distribution = simulate_capacity_distribution(
            config, horizon_hours=1e6, seed=3
        )
        below = sum(p for k, p in distribution.items() if k < 9)
        assert below < 0.02

    def test_rejects_bad_horizon(self):
        config = CapacityModelConfig()
        simulation = PlaneDegradationSimulation(config, seed=0)
        with pytest.raises(ConfigurationError):
            simulation.run(10.0, warmup_hours=20.0)


class TestInputValidation:
    """Out-of-domain settings raise a ConfigurationError naming the
    field, instead of hanging the event loop (NaN compares false against
    every event time), returning a wrong answer, or escaping as a numpy
    error."""

    CONFIG = CapacityModelConfig(failure_rate_per_hour=1e-4)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(horizon_hours=math.nan), "horizon_hours"),
            (dict(horizon_hours=math.inf), "horizon_hours"),
            (dict(horizon_hours=1e4, warmup_hours=math.nan), "warmup_hours"),
            (dict(horizon_hours="x"), "horizon_hours"),
            (dict(horizon_hours=1e4, warmup_hours=None), "warmup_hours"),
        ],
        ids=["horizon-nan", "horizon-inf", "warmup-nan", "horizon-str", "warmup-none"],
    )
    def test_distribution_rejects_non_finite_hours(self, kwargs, field):
        with pytest.raises(ConfigurationError, match=field):
            if "warmup_hours" in kwargs:
                # The convenience wrapper's warm-up is fixed; the
                # simulation it runs checks one.
                PlaneDegradationSimulation(self.CONFIG, seed=0).run(**kwargs)
            else:
                simulate_capacity_distribution(self.CONFIG, seed=0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(warmup_hours=math.nan, window_hours=1e3), "warmup_hours"),
            (dict(warmup_hours=0.0, window_hours=math.nan), "window_hours"),
            (dict(warmup_hours=0.0, window_hours=math.inf), "window_hours"),
        ],
        ids=["warmup-nan", "window-nan", "window-inf"],
    )
    def test_states_reject_non_finite_hours(self, kwargs, field):
        with pytest.raises(ConfigurationError, match=field):
            sample_capacity_states(self.CONFIG, samples=2, seed=0, **kwargs)

    def test_capacity_at_rejects_nan(self):
        simulation = PlaneDegradationSimulation(self.CONFIG, seed=0)
        with pytest.raises(ConfigurationError, match="t_hours"):
            simulation.capacity_at(math.nan)

    @pytest.mark.parametrize("samples", [2.5, True])
    def test_states_reject_non_integral_samples(self, samples):
        with pytest.raises(ConfigurationError, match="samples"):
            sample_capacity_states(
                self.CONFIG,
                samples=samples,
                warmup_hours=0.0,
                window_hours=1e3,
                seed=0,
            )

    def test_states_accept_numpy_integer_samples(self):
        kwargs = dict(warmup_hours=1e3, window_hours=1e4, seed=5)
        assert sample_capacity_states(
            self.CONFIG, samples=np.int64(3), **kwargs
        ) == sample_capacity_states(self.CONFIG, samples=3, **kwargs)


class TestAgreementWithSAN:
    @pytest.mark.parametrize("lam", [2e-5, 1e-4])
    def test_des_matches_phase_type_solution(self, lam):
        """Two independent implementations of the same process agree on
        P(k) within the Erlang-approximation error plus simulation
        noise (the deterministic scheduled clock is the slowest part of
        the phase-type expansion to converge)."""
        config = CapacityModelConfig(failure_rate_per_hour=lam, threshold=10)
        analytic = capacity_distribution(config, stages=32)
        accumulated = {}
        seeds = (42, 43)
        for seed in seeds:
            simulated = simulate_capacity_distribution(
                config, horizon_hours=2.5e6, seed=seed
            )
            for k, p in simulated.items():
                accumulated[k] = accumulated.get(k, 0.0) + p / len(seeds)
        tv = 0.5 * sum(
            abs(analytic.get(k, 0.0) - accumulated.get(k, 0.0))
            for k in set(analytic) | set(accumulated)
        )
        assert tv < 0.04

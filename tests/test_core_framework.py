"""Tests for repro.analytic.framework (the evaluation facade)."""

import pytest

from repro.analytic.capacity import CapacityModelConfig, capacity_distribution
from repro.analytic.framework import OAQFramework
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.simulation.qos_montecarlo import simulate_conditional_distribution


@pytest.fixture(scope="module")
def framework():
    return OAQFramework(
        EvaluationParams(
            signal_termination_rate=0.2, node_failure_rate_per_hour=5e-5
        ),
        capacity_stages=16,
    )


class TestConstituents:
    def test_conditional_anchor(self):
        framework = OAQFramework(
            EvaluationParams(signal_termination_rate=0.5), capacity_stages=8
        )
        dist = framework.conditional_qos(12, Scheme.OAQ)
        assert dist[QoSLevel.SIMULTANEOUS_DUAL] == pytest.approx(0.4444, abs=5e-4)

    def test_capacity_probabilities_truncated(self, framework):
        probabilities = framework.capacity_probabilities()
        assert min(probabilities) >= 9
        assert sum(probabilities.values()) == pytest.approx(1.0, abs=0.02)

    def test_capacity_probabilities_untruncated(self, framework):
        """The truncation only drops states: every kept ``P(k)`` is the
        capacity model's own, and the model's full ``P(k)`` sums to 1."""
        full = capacity_distribution(
            CapacityModelConfig.from_params(framework.params), stages=16
        )
        assert sum(full.values()) == pytest.approx(1.0, abs=1e-8)
        truncated = framework.capacity_probabilities()
        assert {k: full[k] for k in truncated} == truncated

    def test_capacity_is_cached(self, framework):
        first = framework.capacity_probabilities()
        second = framework.capacity_probabilities()
        assert first == second


class TestComposedMeasures:
    def test_oaq_dominates_baq(self, framework):
        for level in QoSLevel:
            comparison = framework.compare_schemes(level)
            assert comparison[Scheme.OAQ] >= comparison[Scheme.BAQ] - 1e-12

    def test_qos_gain_positive_at_level2(self, framework):
        assert framework.qos_gain(QoSLevel.SEQUENTIAL_DUAL) > 0.1

    def test_level0_measure_is_one(self, framework):
        assert framework.qos_measure(Scheme.OAQ, QoSLevel.MISSED) == pytest.approx(1.0)

    def test_sweep_over_lambda(self):
        measures = [
            OAQFramework(
                EvaluationParams(
                    signal_termination_rate=0.2, node_failure_rate_per_hour=rate
                ),
                capacity_stages=8,
            ).qos_measure(Scheme.OAQ, QoSLevel.SEQUENTIAL_DUAL)
            for rate in (1e-5, 1e-4)
        ]
        # Higher failure rate, lower QoS.
        assert measures[0] > measures[1]

    def test_simulated_conditional_agrees(self, framework):
        analytic = framework.conditional_qos(12, Scheme.OAQ)
        simulated = simulate_conditional_distribution(
            framework.params.constellation.plane_geometry(12),
            framework.params,
            Scheme.OAQ,
            samples=30_000,
            seed=5,
        )
        assert simulated[QoSLevel.SIMULTANEOUS_DUAL] == pytest.approx(
            analytic[QoSLevel.SIMULTANEOUS_DUAL], abs=0.015
        )

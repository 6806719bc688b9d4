"""Tests for repro.analytic.composition (paper Eq. 3)."""

import pytest

from repro.analytic.composition import compose
from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSDistribution, QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError


def degenerate(level):
    return QoSDistribution({level: 1.0})


def closed_form_mixture(weights, params, scheme):
    """Eq. (3) with the closed-form conditionals."""
    plane = params.constellation.plane_geometry
    return compose(
        weights, lambda k: conditional_distribution(plane(k), params, scheme)
    )


class TestCompose:
    def test_two_point_mixture(self):
        result = compose(
            {10: 0.4, 12: 0.6},
            lambda k: degenerate(
                QoSLevel.SINGLE if k == 10 else QoSLevel.SIMULTANEOUS_DUAL
            ),
        )
        assert result[QoSLevel.SINGLE] == pytest.approx(0.4)
        assert result[QoSLevel.SIMULTANEOUS_DUAL] == pytest.approx(0.6)

    def test_truncated_weights_renormalised(self):
        """Eq. (3) drops k < 9; the small missing mass is renormalised."""
        result = compose(
            {12: 0.97},
            lambda k: degenerate(QoSLevel.SINGLE),
            truncation_tolerance=0.05,
        )
        assert result[QoSLevel.SINGLE] == pytest.approx(1.0)

    def test_rejects_large_truncation(self):
        with pytest.raises(ConfigurationError):
            compose({12: 0.5}, lambda k: degenerate(QoSLevel.SINGLE))

    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigurationError):
            compose({12: 1.1, 11: -0.1}, lambda k: degenerate(QoSLevel.SINGLE))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            compose({}, lambda k: degenerate(QoSLevel.SINGLE))

    def test_zero_weight_entries_ignored(self):
        result = compose(
            {9: 0.0, 12: 1.0},
            lambda k: degenerate(
                QoSLevel.MISSED if k == 9 else QoSLevel.SINGLE
            ),
        )
        assert result[QoSLevel.MISSED] == 0.0


class TestComposedDistribution:
    def test_uses_closed_form_conditionals(self):
        params = EvaluationParams(signal_termination_rate=0.5)
        # All mass at k=12 reduces Eq. (3) to the conditional anchor.
        result = closed_form_mixture({12: 1.0}, params, Scheme.OAQ)
        assert result[QoSLevel.SIMULTANEOUS_DUAL] == pytest.approx(0.4444, abs=5e-4)

    def test_mixture_of_orientations(self):
        params = EvaluationParams(signal_termination_rate=0.5)
        result = closed_form_mixture({9: 0.5, 12: 0.5}, params, Scheme.OAQ)
        # Level 2 mass can only come from k=9, level 3 only from k=12.
        assert result[QoSLevel.SEQUENTIAL_DUAL] > 0.0
        assert result[QoSLevel.SIMULTANEOUS_DUAL] > 0.0
        assert result[QoSLevel.MISSED] > 0.0

    def test_oaq_dominates_baq_composed(self):
        params = EvaluationParams(signal_termination_rate=0.2)
        weights = {9: 0.1, 10: 0.3, 12: 0.4, 14: 0.2}
        oaq = closed_form_mixture(weights, params, Scheme.OAQ)
        baq = closed_form_mixture(weights, params, Scheme.BAQ)
        for level in QoSLevel:
            assert oaq.at_least(level) >= baq.at_least(level) - 1e-12

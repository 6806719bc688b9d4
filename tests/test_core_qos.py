"""Tests for repro.core.qos (the four-level QoS spectrum)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.qos import QOS_SPECTRUM, QoSDistribution, QoSLevel
from repro.errors import ConfigurationError


class TestQoSLevel:
    def test_ordering(self):
        assert QoSLevel.SIMULTANEOUS_DUAL > QoSLevel.SEQUENTIAL_DUAL
        assert QoSLevel.SEQUENTIAL_DUAL > QoSLevel.SINGLE
        assert QoSLevel.SINGLE > QoSLevel.MISSED

    def test_spectrum_is_descending(self):
        assert list(QOS_SPECTRUM) == [3, 2, 1, 0]

    def test_achievable_levels_match_table1(self):
        assert QoSLevel.achievable_levels(True) == (
            QoSLevel.SIMULTANEOUS_DUAL,
            QoSLevel.SINGLE,
        )
        assert QoSLevel.achievable_levels(False) == (
            QoSLevel.SEQUENTIAL_DUAL,
            QoSLevel.SINGLE,
            QoSLevel.MISSED,
        )


class TestQoSDistribution:
    def test_probabilities_accessible(self):
        dist = QoSDistribution({QoSLevel.SINGLE: 0.7, QoSLevel.MISSED: 0.3})
        assert dist[QoSLevel.SINGLE] == pytest.approx(0.7)
        assert dist[QoSLevel.SIMULTANEOUS_DUAL] == 0.0

    def test_at_least_is_survival_function(self):
        dist = QoSDistribution(
            {
                QoSLevel.SIMULTANEOUS_DUAL: 0.2,
                QoSLevel.SEQUENTIAL_DUAL: 0.3,
                QoSLevel.SINGLE: 0.4,
                QoSLevel.MISSED: 0.1,
            }
        )
        assert dist.at_least(QoSLevel.MISSED) == pytest.approx(1.0)
        assert dist.at_least(QoSLevel.SINGLE) == pytest.approx(0.9)
        assert dist.at_least(QoSLevel.SEQUENTIAL_DUAL) == pytest.approx(0.5)
        assert dist.at_least(QoSLevel.SIMULTANEOUS_DUAL) == pytest.approx(0.2)

    def test_degenerate(self):
        dist = QoSDistribution({QoSLevel.SINGLE: 1.0})
        assert dist[QoSLevel.SINGLE] == 1.0
        assert dist.at_least(QoSLevel.SEQUENTIAL_DUAL) == 0.0

    def test_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            QoSDistribution({QoSLevel.SINGLE: 0.5})

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            QoSDistribution({QoSLevel.SINGLE: 1.2, QoSLevel.MISSED: -0.2})

    def test_mixture_weighted_average(self):
        a = QoSDistribution({QoSLevel.SINGLE: 1.0})
        b = QoSDistribution({QoSLevel.MISSED: 1.0})
        mix = QoSDistribution.mixture([(0.25, a), (0.75, b)])
        assert mix[QoSLevel.SINGLE] == pytest.approx(0.25)
        assert mix[QoSLevel.MISSED] == pytest.approx(0.75)

    def test_mixture_renormalises_truncated_weights(self):
        a = QoSDistribution({QoSLevel.SINGLE: 1.0})
        mix = QoSDistribution.mixture([(1.0 - 5e-7, a)])
        assert mix[QoSLevel.SINGLE] == pytest.approx(1.0)

    def test_mixture_rejects_far_from_one(self):
        a = QoSDistribution({QoSLevel.SINGLE: 1.0})
        with pytest.raises(ConfigurationError):
            QoSDistribution.mixture([(0.5, a)])

    def test_equality_and_isclose(self):
        a = QoSDistribution({QoSLevel.SINGLE: 0.6, QoSLevel.MISSED: 0.4})
        b = QoSDistribution({QoSLevel.SINGLE: 0.6, QoSLevel.MISSED: 0.4})
        assert a == b
        assert a.isclose(b)

    def test_as_dict_is_copy(self):
        dist = QoSDistribution({QoSLevel.SINGLE: 1.0})
        d = dist.as_dict()
        d[QoSLevel.SINGLE] = 0.0
        assert dist[QoSLevel.SINGLE] == 1.0


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4
    )
)
def test_property_normalised_distribution_valid(weights):
    total = sum(weights)
    dist = QoSDistribution(
        {level: w / total for level, w in zip(QoSLevel, weights)}
    )
    # Survival function is monotone decreasing in the level.
    values = [dist.at_least(level) for level in QoSLevel]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(1.0)

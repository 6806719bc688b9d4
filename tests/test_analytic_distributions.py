"""Tests for repro.core.distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    Uniform,
)
from repro.errors import ConfigurationError

ALL_DISTRIBUTIONS = [
    Exponential(0.5),
    Deterministic(3.0),
    Erlang(4, 2.0),
    Uniform(1.0, 4.0),
    HyperExponential([1.0, 0.1], [0.3, 0.7]),
]


@pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: type(d).__name__)
class TestCommonContract:
    def test_cdf_limits(self, dist):
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(1e9) == pytest.approx(1.0)

    def test_cdf_monotone(self, dist):
        xs = np.linspace(0.0, 20.0, 200)
        values = [dist.cdf(float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_survival_complements_cdf(self, dist):
        for x in (0.5, 1.0, 2.5, 7.0):
            assert dist.survival(x) == pytest.approx(1.0 - dist.cdf(x), abs=1e-9)

    def test_sample_mean_close_to_mean(self, dist):
        rng = np.random.default_rng(42)
        samples = [dist.sample(rng) for _ in range(4000)]
        tolerance = 5.0 * math.sqrt(max(np.var(samples), 1e-12) / len(samples)) + 1e-9
        assert np.mean(samples) == pytest.approx(dist.mean(), abs=max(tolerance, 0.05))

    def test_samples_nonnegative(self, dist):
        rng = np.random.default_rng(7)
        assert all(dist.sample(rng) >= 0.0 for _ in range(200))

    def test_cdf_matches_empirical(self, dist):
        rng = np.random.default_rng(11)
        samples = np.array([dist.sample(rng) for _ in range(4000)])
        x = float(np.median(samples))
        empirical = float(np.mean(samples <= x))
        assert dist.cdf(x) == pytest.approx(empirical, abs=0.04)


class TestExponential:
    def test_mean_and_variance(self):
        dist = Exponential(4.0)
        assert dist.mean() == pytest.approx(0.25)
        samples = dist.sample_many(np.random.default_rng(5), 20_000)
        assert np.var(samples) == pytest.approx(0.0625, rel=0.05)

    def test_memoryless_survival(self):
        dist = Exponential(0.7)
        assert dist.survival(3.0) == pytest.approx(math.exp(-2.1))

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigurationError):
            Exponential(-1e-9)

    def test_zero_rate_never_fires(self):
        # The degenerate limit that design sweeps hit (a rate swept to
        # exactly 0.0): the event never happens, but the distribution is
        # still a valid *rate* value so assembled SANs re-rate in place.
        dist = Exponential(0.0)
        rng = np.random.default_rng(3)
        assert dist.cdf(1e12) == 0.0
        assert dist.survival(1e12) == 1.0
        assert dist.mean() == math.inf
        assert dist.sample(rng) == math.inf
        assert np.all(np.isinf(dist.sample_many(rng, 4)))

    def test_vectorised_sampling(self):
        rng = np.random.default_rng(1)
        samples = Exponential(1.0).sample_many(rng, 1000)
        assert samples.shape == (1000,)


class TestDeterministic:
    def test_step_cdf(self):
        dist = Deterministic(2.0)
        assert dist.cdf(1.999) == 0.0
        assert dist.cdf(2.0) == 1.0

    def test_zero_variance(self):
        samples = Deterministic(5.0).sample_many(np.random.default_rng(0), 10)
        assert np.var(samples) == 0.0

    def test_sampling_is_constant(self):
        rng = np.random.default_rng(0)
        assert Deterministic(3.5).sample(rng) == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Deterministic(-1.0)


class TestErlang:
    def test_approximating_matches_mean(self):
        # Erlang(n, n/d) approximates Deterministic(d) with variance d^2/n.
        dist = Erlang(16, 16 / 10.0)
        assert dist.mean() == pytest.approx(10.0)
        samples = dist.sample_many(np.random.default_rng(2), 20_000)
        assert np.var(samples) == pytest.approx(100.0 / 16, rel=0.05)

    def test_shape_one_is_exponential(self):
        erlang = Erlang(1, 0.5)
        expo = Exponential(0.5)
        for x in (0.5, 1.0, 3.0):
            assert erlang.cdf(x) == pytest.approx(expo.cdf(x))

    def test_cdf_converges_to_deterministic(self):
        # High stage counts concentrate around the mean.
        dist = Erlang(400, 400 / 10.0)
        assert dist.cdf(9.0) < 0.05
        assert dist.cdf(11.0) > 0.95

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            Erlang(0, 1.0)


class TestUniform:
    def test_bounds(self):
        dist = Uniform(2.0, 6.0)
        assert dist.cdf(2.0) == 0.0
        assert dist.cdf(4.0) == pytest.approx(0.5)
        assert dist.cdf(6.0) == 1.0

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigurationError):
            Uniform(3.0, 3.0)


class TestHyperExponential:
    def test_mean_is_weighted(self):
        dist = HyperExponential([1.0, 0.1], [0.5, 0.5])
        assert dist.mean() == pytest.approx(0.5 * 1.0 + 0.5 * 10.0)

    def test_variance_exceeds_exponential(self):
        """Hyperexponential CV^2 > 1: more variable than exponential."""
        dist = HyperExponential([1.0, 0.1], [0.5, 0.5])
        rng = np.random.default_rng(4)
        samples = [dist.sample(rng) for _ in range(5000)]
        assert np.var(samples) > dist.mean() ** 2

    def test_rejects_bad_weights(self):
        with pytest.raises(ConfigurationError):
            HyperExponential([1.0, 2.0], [0.5, 0.6])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            HyperExponential([1.0], [0.5, 0.5])


@settings(max_examples=50)
@given(rate=st.floats(min_value=0.01, max_value=100.0), x=st.floats(min_value=0.0, max_value=50.0))
def test_property_exponential_cdf_in_unit_interval(rate, x):
    dist = Exponential(rate)
    assert 0.0 <= dist.cdf(x) <= 1.0


@settings(max_examples=50)
@given(
    shape=st.integers(min_value=1, max_value=30),
    rate=st.floats(min_value=0.05, max_value=10.0),
)
def test_property_erlang_mean_variance(shape, rate):
    dist = Erlang(shape, rate)
    assert dist.mean() == pytest.approx(shape / rate)
    samples = dist.sample_many(np.random.default_rng(0), 20_000)
    assert np.var(samples) == pytest.approx(shape / rate**2, rel=0.15)

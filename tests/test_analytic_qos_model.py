"""Tests for repro.analytic.qos_model -- the closed-form conditional
QoS model, anchored on the paper's published numbers."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.qos_model import (
    conditional_distribution,
    conditional_distribution_general,
    g2_oaq,
    g3_baq,
    g3_oaq,
    miss_probability,
    window_success_integral,
)
from repro.core.config import EvaluationParams
from repro.core.distributions import Deterministic, Exponential, Uniform
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError


@pytest.fixture
def paper_params():
    """tau=5, mu=0.5, nu=30 -- the Section 4.3 conditional anchor."""
    return EvaluationParams(
        deadline_minutes=5.0, signal_termination_rate=0.5, computation_rate=30.0
    )


class TestPaperAnchors:
    def test_oaq_level3_at_k12_is_044(self, paper_params):
        """Paper: 'with probability 0.44 the constellation will still
        deliver a geolocation result rated at QoS level 3'."""
        geometry = paper_params.constellation.plane_geometry(12)
        assert g3_oaq(geometry, paper_params) == pytest.approx(0.4444, abs=5e-4)

    def test_baq_level3_at_k12_is_020(self, paper_params):
        """Paper: 'the value of P(Y=3|12) is only 0.20 with BAQ'."""
        geometry = paper_params.constellation.plane_geometry(12)
        assert g3_baq(geometry, paper_params) == pytest.approx(0.20, abs=5e-4)


class TestWindowSuccessIntegral:
    def test_zero_width_window(self):
        assert window_success_integral(0.5, 30.0, 5.0, 2.0, 2.0) == 0.0

    def test_matches_numeric_quadrature(self):
        from scipy.integrate import quad

        mu, nu, tau = 0.3, 12.0, 5.0
        expected, _ = quad(
            lambda w: math.exp(-mu * w) * (1 - math.exp(-nu * (tau - w))), 1.0, 4.0
        )
        assert window_success_integral(mu, nu, tau, 1.0, 4.0) == pytest.approx(
            expected, rel=1e-9
        )

    def test_equal_rates_special_case(self):
        from scipy.integrate import quad

        mu = nu = 2.0
        expected, _ = quad(
            lambda w: math.exp(-mu * w) * (1 - math.exp(-nu * (5.0 - w))), 0.0, 3.0
        )
        assert window_success_integral(mu, nu, 5.0, 0.0, 3.0) == pytest.approx(
            expected, rel=1e-9
        )

    def test_zero_mu_means_immortal_signal(self):
        from scipy.integrate import quad

        expected, _ = quad(lambda w: 1 - math.exp(-30.0 * (5.0 - w)), 0.0, 4.0)
        assert window_success_integral(0.0, 30.0, 5.0, 0.0, 4.0) == pytest.approx(
            expected, rel=1e-9
        )

    def test_no_overflow_for_large_nu_tau(self):
        value = window_success_integral(0.1, 50.0, 600.0, 0.0, 500.0)
        assert 0.0 < value < 600.0

    def test_rejects_window_beyond_deadline(self):
        with pytest.raises(ConfigurationError):
            window_success_integral(0.5, 30.0, 5.0, 0.0, 6.0)

    def test_rejects_inverted_window(self):
        with pytest.raises(ConfigurationError):
            window_success_integral(0.5, 30.0, 5.0, 3.0, 1.0)


class TestGuards:
    def test_g3_rejects_underlap(self, paper_params):
        with pytest.raises(ConfigurationError):
            g3_oaq(paper_params.constellation.plane_geometry(9), paper_params)

    def test_g2_rejects_overlap(self, paper_params):
        with pytest.raises(ConfigurationError):
            g2_oaq(paper_params.constellation.plane_geometry(12), paper_params)

    def test_miss_probability_zero_for_overlap(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(12)
        assert miss_probability(geometry, paper_params) == 0.0

    def test_miss_probability_zero_for_tangent(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(10)  # L2 = 0
        assert miss_probability(geometry, paper_params) == 0.0


class TestConditionalDistribution:
    @pytest.mark.parametrize("k", range(9, 15))
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_distributions_are_proper(self, paper_params, k, scheme):
        geometry = paper_params.constellation.plane_geometry(k)
        dist = conditional_distribution(geometry, paper_params, scheme)
        total = sum(dist[level] for level in QoSLevel)
        assert total == pytest.approx(1.0)

    @pytest.mark.parametrize("k", range(9, 15))
    def test_oaq_dominates_baq(self, paper_params, k):
        """OAQ is stochastically at least as good as BAQ for every k."""
        geometry = paper_params.constellation.plane_geometry(k)
        oaq = conditional_distribution(geometry, paper_params, Scheme.OAQ)
        baq = conditional_distribution(geometry, paper_params, Scheme.BAQ)
        for level in QoSLevel:
            assert oaq.at_least(level) >= baq.at_least(level) - 1e-12

    def test_table1_level_support_overlap(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(12)
        for scheme in (Scheme.OAQ, Scheme.BAQ):
            dist = conditional_distribution(geometry, paper_params, scheme)
            assert dist[QoSLevel.SEQUENTIAL_DUAL] == 0.0
            assert dist[QoSLevel.MISSED] == 0.0

    def test_table1_level_support_underlap(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(9)
        dist = conditional_distribution(geometry, paper_params, Scheme.OAQ)
        assert dist[QoSLevel.SIMULTANEOUS_DUAL] == 0.0
        assert dist[QoSLevel.SEQUENTIAL_DUAL] > 0.0
        assert dist[QoSLevel.MISSED] > 0.0

    def test_baq_has_no_level2(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(9)
        dist = conditional_distribution(geometry, paper_params, Scheme.BAQ)
        assert dist[QoSLevel.SEQUENTIAL_DUAL] == 0.0

    def test_miss_probability_scheme_independent(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(9)
        oaq = conditional_distribution(geometry, paper_params, Scheme.OAQ)
        baq = conditional_distribution(geometry, paper_params, Scheme.BAQ)
        assert oaq[QoSLevel.MISSED] == pytest.approx(baq[QoSLevel.MISSED])

    def test_longer_deadline_helps_oaq(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(12)
        short = conditional_distribution(
            geometry, replace(paper_params, deadline_minutes=2.0), Scheme.OAQ
        )
        long = conditional_distribution(
            geometry, replace(paper_params, deadline_minutes=8.0), Scheme.OAQ
        )
        assert long[QoSLevel.SIMULTANEOUS_DUAL] > short[QoSLevel.SIMULTANEOUS_DUAL]

    def test_longer_signal_helps_oaq(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(12)
        short = conditional_distribution(
            geometry, replace(paper_params, signal_termination_rate=1.0), Scheme.OAQ
        )
        long = conditional_distribution(
            geometry, replace(paper_params, signal_termination_rate=0.1), Scheme.OAQ
        )
        assert long[QoSLevel.SIMULTANEOUS_DUAL] > short[QoSLevel.SIMULTANEOUS_DUAL]

    def test_baq_level3_mu_invariant(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(12)
        a = conditional_distribution(
            geometry, replace(paper_params, signal_termination_rate=1.0), Scheme.BAQ
        )
        b = conditional_distribution(
            geometry, replace(paper_params, signal_termination_rate=0.1), Scheme.BAQ
        )
        assert a[QoSLevel.SIMULTANEOUS_DUAL] == pytest.approx(
            b[QoSLevel.SIMULTANEOUS_DUAL]
        )


class TestGeneralDistributionModel:
    @pytest.mark.parametrize("k", [9, 10, 12, 14])
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_matches_closed_form_for_exponentials(self, paper_params, k, scheme):
        geometry = paper_params.constellation.plane_geometry(k)
        closed = conditional_distribution(geometry, paper_params, scheme)
        numeric = conditional_distribution_general(
            geometry,
            paper_params.tau,
            Exponential(paper_params.mu),
            Exponential(paper_params.nu),
            scheme,
        )
        assert numeric.isclose(closed, abs_tol=1e-7)

    def test_deterministic_signal_duration(self, paper_params):
        """A signal lasting exactly 2 minutes can never feed an
        opportunity more than 2 minutes away."""
        geometry = paper_params.constellation.plane_geometry(12)
        dist = conditional_distribution_general(
            geometry,
            paper_params.tau,
            Deterministic(2.0),
            Exponential(paper_params.nu),
            Scheme.OAQ,
        )
        # Waits in (2, L_hat] fail; compare against an immortal signal.
        immortal = conditional_distribution_general(
            geometry,
            paper_params.tau,
            Deterministic(100.0),
            Exponential(paper_params.nu),
            Scheme.OAQ,
        )
        assert (
            dist[QoSLevel.SIMULTANEOUS_DUAL]
            < immortal[QoSLevel.SIMULTANEOUS_DUAL]
        )

    def test_uniform_duration_is_supported(self, paper_params):
        geometry = paper_params.constellation.plane_geometry(9)
        dist = conditional_distribution_general(
            geometry,
            paper_params.tau,
            Uniform(0.0, 10.0),
            Exponential(paper_params.nu),
            Scheme.OAQ,
        )
        total = sum(dist[level] for level in QoSLevel)
        assert total == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=14),
    tau=st.floats(min_value=0.1, max_value=8.9),
    mu=st.floats(min_value=0.05, max_value=2.0),
)
def test_property_conditional_distribution_proper(k, tau, mu):
    params = EvaluationParams(
        deadline_minutes=tau, signal_termination_rate=mu, computation_rate=30.0
    )
    geometry = params.constellation.plane_geometry(k)
    for scheme in (Scheme.OAQ, Scheme.BAQ):
        dist = conditional_distribution(geometry, params, scheme)
        assert sum(dist[level] for level in QoSLevel) == pytest.approx(1.0)
        assert all(dist[level] >= 0.0 for level in QoSLevel)

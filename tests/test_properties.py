"""Cross-cutting hypothesis property tests: invariants that tie the
layers together, exercised over randomised parameter domains."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.capacity import capacity_distribution
from repro.analytic.qos_model import (
    conditional_distribution,
    g3_oaq,
    window_success_integral,
)
from repro.core.config import EvaluationParams
from repro.core.qos import QoSDistribution, QoSLevel
from repro.core.schemes import Scheme
from repro.geometry.plane import PlaneGeometry
from repro.san.ctmc import CTMC
from repro.scenarios.generator import FAMILIES


def make_params(tau, mu, nu=30.0):
    return EvaluationParams(
        deadline_minutes=tau,
        signal_termination_rate=mu,
        computation_rate=nu,
    )


class TestWindowIntegral:
    @settings(max_examples=60)
    @given(
        mu=st.floats(min_value=0.0, max_value=5.0),
        nu=st.floats(min_value=0.1, max_value=100.0),
        tau=st.floats(min_value=0.1, max_value=50.0),
        lo_frac=st.floats(min_value=0.0, max_value=1.0),
        hi_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bounded_by_window_length(self, mu, nu, tau, lo_frac, hi_frac):
        lo = tau * min(lo_frac, hi_frac)
        hi = tau * max(lo_frac, hi_frac)
        value = window_success_integral(mu, nu, tau, lo, hi)
        assert -1e-12 <= value <= (hi - lo) + 1e-9

    @settings(max_examples=40)
    @given(
        mu=st.floats(min_value=0.01, max_value=3.0),
        nu=st.floats(min_value=0.5, max_value=60.0),
        tau=st.floats(min_value=1.0, max_value=20.0),
    )
    def test_monotone_in_deadline(self, mu, nu, tau):
        narrow = window_success_integral(mu, nu, tau, 0.0, tau / 2)
        wide = window_success_integral(mu, nu, tau + 1.0, 0.0, tau / 2)
        assert wide >= narrow - 1e-10

    @settings(max_examples=40)
    @given(
        nu=st.floats(min_value=0.5, max_value=60.0),
        tau=st.floats(min_value=1.0, max_value=20.0),
        mu=st.floats(min_value=0.01, max_value=2.0),
    )
    def test_decreasing_in_termination_rate(self, nu, tau, mu):
        """Shorter-lived signals can only hurt."""
        short = window_success_integral(mu + 0.5, nu, tau, 0.0, tau)
        long = window_success_integral(mu, nu, tau, 0.0, tau)
        assert long >= short - 1e-10


class TestSchemeDominance:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=14),
        tau=st.floats(min_value=0.1, max_value=8.9),
        mu=st.floats(min_value=0.05, max_value=2.0),
        nu=st.floats(min_value=1.0, max_value=60.0),
    )
    def test_oaq_stochastically_dominates_baq(self, k, tau, mu, nu):
        """The headline claim holds on the whole parameter domain, not
        just the paper's operating points."""
        params = make_params(tau, mu, nu)
        geometry = params.constellation.plane_geometry(k)
        oaq = conditional_distribution(geometry, params, Scheme.OAQ)
        baq = conditional_distribution(geometry, params, Scheme.BAQ)
        for level in QoSLevel:
            assert oaq.at_least(level) >= baq.at_least(level) - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=11, max_value=14),
        mu=st.floats(min_value=0.05, max_value=2.0),
        tau_low=st.floats(min_value=0.1, max_value=4.0),
        extra=st.floats(min_value=0.1, max_value=4.0),
    )
    def test_g3_monotone_in_deadline(self, k, mu, tau_low, extra):
        geometry = PlaneGeometry.reference(k)
        low = g3_oaq(geometry, make_params(tau_low, mu))
        high = g3_oaq(geometry, make_params(tau_low + extra, mu))
        assert high >= low - 1e-12


class TestQoSDistributionAlgebra:
    @settings(max_examples=60)
    @given(
        weights_a=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4
        ),
        weights_b=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4
        ),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_mixture_survival_is_weighted_average(
        self, weights_a, weights_b, alpha
    ):
        def normalise(weights):
            total = sum(weights)
            return QoSDistribution(
                {level: w / total for level, w in zip(QoSLevel, weights)}
            )

        a, b = normalise(weights_a), normalise(weights_b)
        if alpha in (0.0, 1.0):
            return
        mix = QoSDistribution.mixture([(alpha, a), (1.0 - alpha, b)])
        for level in QoSLevel:
            expected = alpha * a.at_least(level) + (1 - alpha) * b.at_least(level)
            assert mix.at_least(level) == pytest.approx(expected, abs=1e-9)


class TestCTMCProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        rates=st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=10.0),
                st.floats(min_value=0.05, max_value=10.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_birth_death_detailed_balance(self, rates):
        """Random birth-death chains: the solved stationary vector
        satisfies detailed balance exactly."""
        transitions = []
        for state, (up, down) in enumerate(rates):
            transitions.append((state, state + 1, up))
            transitions.append((state + 1, state, down))
        chain = CTMC(len(rates) + 1, transitions)
        pi = chain.steady_state()
        assert pi.sum() == pytest.approx(1.0)
        for state, (up, down) in enumerate(rates):
            assert pi[state] * up == pytest.approx(
                pi[state + 1] * down, rel=1e-6
            )

    @settings(max_examples=30, deadline=None)
    @given(
        rates=st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=10.0),
                st.floats(min_value=0.05, max_value=10.0),
            ),
            min_size=1,
            max_size=4,
        ),
        t=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_transient_is_probability_vector(self, rates, t):
        transitions = []
        for state, (up, down) in enumerate(rates):
            transitions.append((state, state + 1, up))
            transitions.append((state + 1, state, down))
        chain = CTMC(len(rates) + 1, transitions)
        p = chain.transient(t)
        assert p.sum() == pytest.approx(1.0, abs=1e-8)
        assert (p >= -1e-10).all()


class TestTheoremWindowConsistency:
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=11, max_value=14),
        tau=st.floats(min_value=0.2, max_value=8.9),
    )
    def test_theorem1_measure_matches_window(self, k, tau):
        """The cycle measure of onsets admitted by Theorem 1's predicate
        equals the analytic window measure (grid integration)."""
        from repro.geometry.theorems import simultaneous_window, theorem1_admits

        geometry = PlaneGeometry.reference(k)
        window = simultaneous_window(geometry, tau)
        cells = 4000
        step = geometry.l1 / cells
        admitted = sum(
            step
            for i in range(cells)
            if theorem1_admits(geometry, tau, (i + 0.5) * step)
        )
        assert admitted == pytest.approx(window.total_measure, abs=3 * step)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=10),
        tau=st.floats(min_value=0.2, max_value=8.9),
    )
    def test_theorem2_measure_matches_window(self, k, tau):
        from repro.geometry.theorems import sequential_window, theorem2_admits

        geometry = PlaneGeometry.reference(k)
        window = sequential_window(geometry, tau)
        cells = 4000
        step = geometry.l1 / cells
        admitted = sum(
            step
            for i in range(cells)
            if theorem2_admits(geometry, tau, (i + 0.5) * step)
        )
        assert admitted == pytest.approx(window.total_measure, abs=3 * step)


# ----------------------------------------------------------------------
# Whole stack: scenario family -> capacity model -> Eq. (3)
# ----------------------------------------------------------------------
LEVELS = (QoSLevel.SINGLE, QoSLevel.SEQUENTIAL_DUAL, QoSLevel.SIMULTANEOUS_DUAL)


@st.composite
def family_cases(draw):
    """One case drawn by a registered :mod:`repro.scenarios` family
    sampler, from a Hypothesis-chosen seed."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return FAMILIES[family](np.random.default_rng(seed), f"{family}-0000")


def _conditional(case, params, k, scheme):
    return conditional_distribution(case.geometry(k), params, scheme)


class TestWholeStackMetamorphic:
    """Metamorphic relations of the paper's measure, over the scenario
    families' design space rather than the reference plane alone."""

    @settings(max_examples=8, deadline=None)
    @given(case=family_cases())
    def test_composed_oaq_dominates_baq_and_pk_sums_to_one(self, case):
        pk = capacity_distribution(case.capacity_config(), stages=4)
        assert sum(pk.values()) == pytest.approx(1.0, abs=1e-9)
        params = case.params()
        composed = {
            scheme: [
                sum(
                    p * _conditional(case, params, k, scheme).at_least(level)
                    for k, p in pk.items()
                    if k >= 1
                )
                for level in LEVELS
            ]
            for scheme in (Scheme.OAQ, Scheme.BAQ)
        }
        for oaq, baq in zip(composed[Scheme.OAQ], composed[Scheme.BAQ]):
            assert oaq >= baq - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        case=family_cases(),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        factor=st.floats(min_value=1.01, max_value=4.0),
        scheme=st.sampled_from([Scheme.OAQ, Scheme.BAQ]),
    )
    def test_conditional_monotone_in_deadline_and_termination_rate(
        self, case, k_frac, factor, scheme
    ):
        """``P(Y >= y | k)`` does not fall with a longer deadline and
        does not rise with a faster-terminating signal."""
        k = 1 + int(k_frac * (case.active_per_plane - 1))
        params = case.params()
        longer = replace(params, deadline_minutes=params.tau * factor)
        faster = replace(params, signal_termination_rate=params.mu * factor)
        base = _conditional(case, params, k, scheme)
        for level in LEVELS:
            at = base.at_least(level)
            assert _conditional(case, longer, k, scheme).at_least(level) >= at - 1e-12
            assert _conditional(case, faster, k, scheme).at_least(level) <= at + 1e-12

"""Tests for repro.san.ctmc against closed-form Markov-chain results."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import linalg as sparse_linalg

from repro.errors import ModelError, SolverError
from repro.san import (
    Case,
    InputGate,
    Place,
    SANModel,
    TimedActivity,
    assemble,
    generate,
)
from repro.san.ctmc import (
    _ITERATIVE_MIN_STATES,
    _MIN_ANCHOR_MASS,
    _REFRESH_PRECONDITIONER_AFTER,
    CTMC,
)


def mm1k_space(arrival, service, capacity):
    arrive = TimedActivity.exponential(
        "arrive",
        arrival,
        input_gates=[
            InputGate("not_full", predicate=lambda m: m["queue"] < capacity)
        ],
        cases=[Case(output_arcs={"queue": 1})],
    )
    serve = TimedActivity.exponential("serve", service, input_arcs={"queue": 1})
    return generate(SANModel([Place("queue", 0)], [arrive, serve]))


def marking_steady_state(space):
    """Stationary probability of each marking of ``space``, solved
    through ``assemble`` -> ``rerate`` -> ``steady_state``."""
    chain = assemble(space)
    pi = chain.marking_marginals(chain.rerate(chain.rates).steady_state())
    return dict(zip(space.markings, pi.tolist()))


class TestSteadyState:
    def test_two_state_chain(self):
        # 0 -(a)-> 1, 1 -(b)-> 0: pi = (b, a) / (a + b).
        chain = CTMC(2, [(0, 1, 2.0), (1, 0, 3.0)])
        pi = chain.steady_state()
        assert pi[0] == pytest.approx(0.6)
        assert pi[1] == pytest.approx(0.4)

    def test_mm1k_matches_geometric_formula(self):
        lam, mu, k = 1.0, 2.0, 5
        rho = lam / mu
        normaliser = sum(rho**n for n in range(k + 1))
        by_marking = marking_steady_state(mm1k_space(lam, mu, k))
        for n in range(k + 1):
            assert by_marking[(n,)] == pytest.approx(rho**n / normaliser)

    def test_birth_death_detailed_balance(self):
        by_marking = marking_steady_state(mm1k_space(0.7, 1.3, 8))
        for n in range(8):
            assert 0.7 * by_marking[(n,)] == pytest.approx(
                1.3 * by_marking[(n + 1,)], rel=1e-8
            )

    def test_absorbing_chain_rejected(self):
        chain = CTMC(3, [(0, 1, 1.0), (0, 2, 1.0)])  # 1 and 2 absorbing
        with pytest.raises(SolverError):
            chain.steady_state()

    def test_single_state(self):
        assert CTMC(1, []).steady_state() == pytest.approx([1.0])

    def test_rejects_negative_rate(self):
        with pytest.raises(ModelError):
            CTMC(2, [(0, 1, -1.0)])

    def test_rejects_out_of_range_state(self):
        with pytest.raises(ModelError):
            CTMC(2, [(0, 5, 1.0)])

    def test_rejects_non_integral_endpoint_naming_the_transition(self):
        with pytest.raises(ModelError, match=r"0\.0->1\.5 has a non-integral"):
            CTMC(3, [(0, 1.5, 1.0), (1, 0, 1.0)])
        with pytest.raises(ModelError, match="non-integral"):
            CTMC(3, [(0, float("nan"), 1.0)])

    def test_accepts_integral_float_endpoints(self):
        chain = CTMC(3, [(0.0, 1.0, 2.0), (1, 0, 1.0)])
        assert chain.generator[0, 1] == 2.0
        assert chain.generator[1, 0] == 1.0

    @pytest.mark.parametrize("num_states", [2.5, True, np.bool_(True), "3"])
    def test_rejects_non_integral_num_states(self, num_states):
        with pytest.raises(ModelError, match="num_states must be an integer"):
            CTMC(num_states, [(0, 0, 1.0)])

    def test_accepts_numpy_integer_num_states(self):
        chain = CTMC(np.int64(2), [(0, 1, 1.0)])
        assert chain.num_states == 2


class TestTransient:
    def test_two_state_analytic(self):
        """P(in state 1 at t) = (a/(a+b)) (1 - e^{-(a+b)t}) from state 0."""
        a, b, t = 2.0, 3.0, 0.7
        chain = CTMC(2, [(0, 1, a), (1, 0, b)])
        p = chain.transient(t)
        expected = (a / (a + b)) * (1.0 - math.exp(-(a + b) * t))
        assert p[1] == pytest.approx(expected, abs=1e-8)
        assert p.sum() == pytest.approx(1.0)

    def test_time_zero_is_initial(self):
        chain = CTMC(2, [(0, 1, 1.0)], initial_distribution=[(1.0, 0)])
        assert chain.transient(0.0)[0] == 1.0

    def test_long_horizon_approaches_steady_state(self):
        chain = CTMC(2, [(0, 1, 2.0), (1, 0, 3.0)])
        p = chain.transient(100.0)
        pi = chain.steady_state()
        assert np.allclose(p, pi, atol=1e-6)

    def test_pure_death_chain(self):
        """Poisson decay: P(still in 0 at t) = e^{-t}."""
        chain = CTMC(2, [(0, 1, 1.0)])
        p = chain.transient(2.0)
        assert p[0] == pytest.approx(math.exp(-2.0), abs=1e-8)

    def test_rejects_negative_time(self):
        chain = CTMC(1, [])
        with pytest.raises(ModelError):
            chain.transient(-1.0)

    @pytest.mark.parametrize("time", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, time):
        """Regression: ``inf`` used to loop forever (the remaining
        horizon never reached zero) and ``nan`` skipped the loop and
        returned the initial vector."""
        chain = CTMC(2, [(0, 1, 2.0), (1, 0, 3.0)])
        with pytest.raises(ModelError, match="finite"):
            chain.transient(time)


class TestEdgeCases:
    def test_two_recurrent_classes_rejected_by_residual_check(self):
        """Two disjoint recurrent classes have no unique stationary
        distribution; the solver must refuse rather than return one."""
        chain = CTMC(
            4,
            [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 2.0), (3, 2, 2.0)],
        )
        with pytest.raises(SolverError):
            chain.steady_state()

    def test_absorbing_tail_rejected(self):
        """A transient start draining into two absorbing states."""
        chain = CTMC(3, [(0, 1, 0.5), (0, 2, 1.5)])
        with pytest.raises(SolverError):
            chain.steady_state()

    def test_transient_zero_returns_independent_copy(self):
        chain = CTMC(2, [(0, 1, 1.0)], initial_distribution=[(1.0, 0)])
        p = chain.transient(0.0)
        assert p.tolist() == [1.0, 0.0]
        p[0] = 99.0  # mutating the result must not leak into the chain
        assert chain.transient(0.0).tolist() == [1.0, 0.0]

    def test_transient_zero_with_explicit_initial(self):
        chain = CTMC(3, [(0, 1, 1.0), (1, 2, 1.0)])
        initial = np.array([0.2, 0.3, 0.5])
        assert chain.transient(0.0, initial=initial).tolist() == [
            0.2,
            0.3,
            0.5,
        ]

    def test_long_horizon_split_path_matches_matrix_exponential(self):
        """lam*t > 400 triggers the horizon-splitting branch; its
        answer must agree with expm(Q^T t) p0 on a stiff chain."""
        from scipy.linalg import expm

        # Fast 0<->1 oscillation plus a slow drain into 2<->3: the
        # uniformisation rate is ~102, so t=10 gives lam*t ~ 1040,
        # i.e. three split steps -- while the slow part keeps the
        # distribution far from degenerate.
        transitions = [
            (0, 1, 100.0),
            (1, 0, 100.0),
            (1, 2, 0.05),
            (2, 3, 0.2),
            (3, 2, 0.1),
        ]
        chain = CTMC(4, transitions)
        t = 10.0
        assert float(chain._exit_rates.max()) * t > 400.0
        p = chain.transient(t)
        q = chain.generator.toarray()
        expected = expm(q.T * t) @ chain.initial_vector()
        assert p.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(p, expected, atol=1e-7)


def birth_death_chain(n, birth, death):
    transitions = []
    for s in range(n - 1):
        transitions.append((s, s + 1, birth))
        transitions.append((s + 1, s, death))
    return CTMC(n, transitions, initial_distribution=[(1.0, 0)])


class TestTransientInitialValidation:
    def test_rejects_wrong_shape(self):
        chain = CTMC(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        with pytest.raises(ModelError):
            chain.transient(1.0, initial=np.array([0.5, 0.5]))

    def test_rejects_negative_mass(self):
        chain = CTMC(2, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(ModelError):
            chain.transient(1.0, initial=np.array([1.5, -0.5]))

    def test_rejects_unnormalised(self):
        chain = CTMC(2, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(ModelError):
            chain.transient(1.0, initial=np.array([0.6, 0.6]))

    def test_rejects_non_finite(self):
        chain = CTMC(2, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(ModelError):
            chain.transient(1.0, initial=np.array([np.nan, 1.0]))

    def test_accepts_valid_distribution(self):
        chain = CTMC(2, [(0, 1, 2.0), (1, 0, 3.0)])
        p = chain.transient(50.0, initial=np.array([0.25, 0.75]))
        pi = chain.steady_state()
        assert np.allclose(p, pi, atol=1e-6)


def chorded_chain(n, birth):
    """A birth-death chain plus sparse chords, so the ILU is inexact."""
    transitions = [(s, s + 1, birth) for s in range(n - 1)]
    transitions += [(s + 1, s, 1.0) for s in range(n - 1)]
    transitions += [(s, (3 * s + 5) % n, 0.3) for s in range(0, n, 7)]
    return CTMC(n, transitions)


def geometric(n, ratio):
    """Closed-form stationary law of a birth-death chain whose birth /
    death ratio is ``ratio``: ``pi_k`` proportional to ``ratio**k``."""
    weights = ratio ** np.arange(n)
    return weights / weights.sum()


class TestDirectSteadyState:
    """The sparse-LU factorisation against closed forms."""

    def record_anchors(self, monkeypatch):
        anchors = []
        solve = CTMC._anchored_lu

        def recorded(chain, anchor):
            anchors.append(anchor)
            return solve(chain, anchor)

        monkeypatch.setattr(CTMC, "_anchored_lu", recorded)
        return anchors

    def test_birth_death_closed_form_at_2000_states(self):
        chain = birth_death_chain(2000, 0.999, 1.0)
        solution = chain.steady_state_solve()
        assert solution.method == "direct"
        assert np.max(np.abs(solution.pi - geometric(2000, 0.999))) <= 1e-12

    @pytest.mark.parametrize("birth, death", [(1.0, 1.3), (0.7, 0.7)])
    def test_transient_initial_state_solves_directly(
        self, birth, death, monkeypatch
    ):
        """State 0 starts the chain and is never re-entered.  Anchoring
        there would leave the recurrent class's balance rows singular
        (exactly so at equal rates), so the solve anchors inside the
        closed class and matches the closed form."""
        n = 51
        transitions = [(0, 1, 1.0)]
        transitions += [(s, s + 1, birth) for s in range(1, n - 1)]
        transitions += [(s + 1, s, death) for s in range(1, n - 1)]
        chain = CTMC(n, transitions, initial_distribution=[(1.0, 0)])
        anchors = self.record_anchors(monkeypatch)
        pi = chain.steady_state()
        assert anchors == [1]
        expected = np.concatenate([[0.0], geometric(n - 1, birth / death)])
        assert np.max(np.abs(pi - expected)) <= 1e-12

    def test_negligible_anchor_mass_re_anchors_at_argmax(self, monkeypatch):
        """An initial state inside the closed class but with stationary
        mass below _MIN_ANCHOR_MASS is re-anchored once, at argmax(pi)."""
        n = 10
        chain = birth_death_chain(n, 0.01, 1.0)
        chain.initial_distribution = [(1.0, n - 1)]
        assert geometric(n, 0.01)[n - 1] < _MIN_ANCHOR_MASS
        anchors = self.record_anchors(monkeypatch)
        pi = chain.steady_state()
        assert anchors == [n - 1, 0]
        assert np.max(np.abs(pi - geometric(n, 0.01))) <= 1e-12

    def test_two_recurrent_classes_raise(self):
        chain = CTMC(
            4,
            [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 2.0), (3, 2, 2.0)],
        )
        with pytest.raises(SolverError, match="2 closed classes"):
            chain.steady_state_solve()


#: Chain sizes for the GMRES path: the sweep solver goes direct below
#: _ITERATIVE_MIN_STATES, so these sit just above it.
ITERATIVE = _ITERATIVE_MIN_STATES + 150


def gth_stationary(n, transitions):
    """Dense reference: the null vector of ``Q^T`` by Grassmann-Taksar-
    Heyman elimination, which never subtracts, so every entry is
    accurate to a few ulps of itself however stiff the chain.  States
    are eliminated from the last down; each must reach a lower one."""
    rates = np.zeros((n, n))
    for source, target, rate in transitions:
        rates[source, target] += rate
    for k in range(n - 1, 0, -1):
        out = rates[k, :k].sum()
        assert out > 0.0
        rates[:k, :k] += np.outer(rates[:k, k], rates[k, :k]) / out
        rates[:k, k] /= out
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ rates[:k, k]
    return pi / pi.sum()


@st.composite
def random_chains(draw, per_state):
    """A random generator with one closed class (a cycle plus chords)
    and transient states that each lead to a lower-numbered state,
    started anywhere.  Rates are log-uniform over 9 decades: drawn per
    transition, or (``per_state``) one scale per state with that
    state's rates within a factor 4 of one another."""
    n = draw(st.integers(2, 24))
    closed = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-4.5, 4.5, size=n)

    def rate(source):
        if per_state:
            return scale[source] * rng.uniform(0.5, 2.0)
        return 10.0 ** rng.uniform(-4.5, 4.5)

    edges = {}
    if closed > 1:
        for s in range(closed):
            edges[s, (s + 1) % closed] = rate(s)
        for _ in range(rng.integers(0, 3 * n)):
            a, b = rng.integers(0, closed, size=2)
            if a != b:
                edges[int(a), int(b)] = rate(a)
    for s in range(closed, n):
        edges[s, int(rng.integers(0, s))] = rate(s)
        for target in rng.integers(0, n, size=rng.integers(0, 3)):
            if target != s:
                edges[s, int(target)] = rate(s)
    transitions = [(a, b, r) for (a, b), r in edges.items()]
    start = draw(st.integers(0, n - 1))
    return n, transitions, start


class TestDirectAgainstDenseReference:
    """The symmetric-mode factorisation on random stiff generators."""

    @settings(max_examples=150, deadline=None)
    @given(random_chains(per_state=True))
    def test_matches_gth_over_nine_decades(self, chain):
        n, transitions, start = chain
        pi = CTMC(n, transitions, initial_distribution=[(1.0, start)]).steady_state()
        assert np.max(np.abs(pi - gth_stationary(n, transitions))) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(random_chains(per_state=False))
    def test_backward_stable_on_nearly_decomposable_chains(self, chain):
        """Per-transition rates make nearly decomposable chains: two
        states swapping at 1e4 that leave at 1e-4 put an exit rate of
        ~1e4 on a Schur-complement diagonal whose true value is ~1e-4,
        so the forward error is ~eps * 1e8 (measured up to 1.1e-9
        against GTH over 30,000 such chains).  What holds is backward
        stability: the residual is at rounding level of the largest
        exit rate, and the solve never fails, whatever the start state's
        mass."""
        n, transitions, start = chain
        ctmc = CTMC(n, transitions, initial_distribution=[(1.0, start)])
        pi = ctmc.steady_state()
        assert pi.min() >= 0.0
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)
        residual = np.abs(ctmc.generator.transpose() @ pi).max()
        assert residual <= 1e-14 * ctmc._exit_rates.max()

    def test_reanchors_when_rounding_makes_the_first_factor_singular(self):
        """State 0 holds ~5e-18 of the mass: anchored there, the pair
        (1, 2) has Schur pivot (1 + 1e-17) - 1, which is exactly 0 in
        double precision.  The solve re-anchors at another closed state
        and finds the closed form."""
        chain = CTMC(
            3,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (1, 0, 1e-17)],
            initial_distribution=[(1.0, 0)],
        )
        pi = chain.steady_state()
        assert np.max(np.abs(pi - [5e-18, 0.5, 0.5])) <= 1e-15


class TestIterativeSteadyState:
    def test_iterative_matches_direct_to_1e12(self):
        first = birth_death_chain(ITERATIVE, 1.0, 1.3).steady_state_solve()
        assert first.warm_start is not None
        # Re-solve a nearby chain from the warm start.
        nearby = birth_death_chain(ITERATIVE, 1.05, 1.3)
        warm = nearby.steady_state_solve(first.warm_start)
        assert warm.method == "gmres"
        assert warm.warm_started
        assert warm.iterations > 0
        assert warm.fallback is None
        assert np.max(np.abs(warm.pi - nearby.steady_state())) <= 1e-12

    def test_cold_auto_with_prepare_uses_iterative_path(self):
        chain = birth_death_chain(ITERATIVE, 0.9, 1.1)
        solution = chain.steady_state_solve()
        assert solution.method == "gmres"
        assert not solution.warm_started  # no previous pi to start from
        assert solution.fallback is None
        assert solution.warm_start is not None
        assert np.max(np.abs(solution.pi - chain.steady_state())) <= 1e-12

    def test_size_mismatched_warm_start_falls_back_with_reason(self):
        """A warm start from another state count is not used: the solve
        starts cold and names the mismatch."""
        prepared = (
            birth_death_chain(ITERATIVE, 1.0, 1.2).steady_state_solve().warm_start
        )
        large = birth_death_chain(ITERATIVE + 40, 1.0, 1.2)
        solution = large.steady_state_solve(prepared)
        assert solution.method == "gmres"
        assert not solution.warm_started
        assert "incompatible" in solution.fallback
        assert solution.warm_start.pi.shape == (ITERATIVE + 40,)
        assert np.max(np.abs(solution.pi - large.steady_state())) <= 1e-12

    def test_small_chain_ignores_warm_start(self):
        """Below _ITERATIVE_MIN_STATES the direct solver is cheaper and
        the iterative machinery is skipped entirely."""
        large = (
            birth_death_chain(ITERATIVE, 1.0, 1.2).steady_state_solve().warm_start
        )
        chain = CTMC(2, [(0, 1, 2.0), (1, 0, 3.0)])
        for warm_start in (None, large):
            solution = chain.steady_state_solve(warm_start)
            assert solution.method == "direct"
            assert solution.fallback is None
            assert solution.warm_start is None

    def test_below_threshold_solves_directly_without_warm_start(self):
        """The largest chain below _ITERATIVE_MIN_STATES is one direct
        solve with no warm start; the smallest at it runs GMRES."""
        below = birth_death_chain(_ITERATIVE_MIN_STATES - 1, 0.9, 1.1)
        solution = below.steady_state_solve()
        assert solution.method == "direct"
        assert solution.iterations == 0
        assert not solution.warm_started
        assert solution.warm_start is None
        assert np.array_equal(solution.pi, below.steady_state())
        at = birth_death_chain(_ITERATIVE_MIN_STATES, 0.9, 1.1)
        assert at.steady_state_solve().method == "gmres"

    def test_drifted_warm_start_refreshes_its_preconditioner(self, monkeypatch):
        """A warm start carried across a large rate jump needs more than
        _REFRESH_PRECONDITIONER_AFTER iterations; the returned warm start
        is re-anchored at argmax(pi) with no preconditioner, so no ILU is
        built for a point that may never come.  The next solve factorises
        its own matrix at that anchor and converges in a few iterations."""
        start = chorded_chain(ITERATIVE, 0.9).steady_state_solve().warm_start
        nearby = chorded_chain(ITERATIVE, 0.95).steady_state_solve(start)
        assert nearby.iterations <= _REFRESH_PRECONDITIONER_AFTER
        assert nearby.warm_start.preconditioner is start.preconditioner
        assert nearby.warm_start.anchor == start.anchor

        factorised = []
        spilu = sparse_linalg.spilu

        def spied(matrix, **kwargs):
            factorised.append(matrix.shape)
            return spilu(matrix, **kwargs)

        monkeypatch.setattr(sparse_linalg, "spilu", spied)
        jumped = chorded_chain(ITERATIVE, 1.5)
        solution = jumped.steady_state_solve(start)
        assert solution.method == "gmres"
        assert solution.warm_started
        assert solution.iterations > _REFRESH_PRECONDITIONER_AFTER
        refreshed = solution.warm_start
        assert refreshed.anchor == int(np.argmax(solution.pi)) != start.anchor
        assert refreshed.preconditioner is None
        assert factorised == []
        assert np.max(np.abs(solution.pi - jumped.steady_state())) <= 1e-12

        following_chain = chorded_chain(ITERATIVE, 1.52)
        following = following_chain.steady_state_solve(refreshed)
        assert following.method == "gmres"
        assert following.warm_started
        assert following.fallback is None
        assert factorised == [(ITERATIVE - 1, ITERATIVE - 1)]
        assert following.iterations <= 5
        assert following.warm_start.anchor == refreshed.anchor
        assert following.warm_start.preconditioner is not None
        assert (
            np.max(np.abs(following.pi - following_chain.steady_state())) <= 1e-12
        )

    def test_zero_mass_anchor_falls_back_to_direct(self):
        """A warm start whose anchor carries no mass cannot scale the
        anchored system: the solve falls back to the direct path, names
        the reason, and returns a warm start the next solve can use."""
        chain = birth_death_chain(ITERATIVE, 0.9, 1.1)
        start = chain.steady_state_solve().warm_start
        pi = start.pi.copy()
        pi[start.anchor] = 0.0
        solution = chain.steady_state_solve(
            dataclasses.replace(start, pi=pi)
        )
        assert solution.method == "direct"
        assert not solution.warm_started
        assert "negligible mass" in solution.fallback
        assert solution.warm_start.anchor == int(np.argmax(solution.pi))
        assert np.max(np.abs(solution.pi - chain.steady_state())) <= 1e-12

        nearby = birth_death_chain(ITERATIVE, 0.92, 1.1)
        following = nearby.steady_state_solve(solution.warm_start)
        assert following.method == "gmres"
        assert following.warm_started
        assert following.fallback is None
        assert np.max(np.abs(following.pi - nearby.steady_state())) <= 1e-12


class TestNonFiniteRates:
    """NaN and infinite rates are rejected when the chain is built,
    naming the transition and the value."""

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("constructor", ["tuples", "arrays"])
    def test_rejected_by_both_constructors(self, rate, constructor):
        message = re.escape(f"rate {rate} on transition 0->1 must be finite")
        with pytest.raises(ModelError, match=message):
            if constructor == "tuples":
                CTMC(2, [(0, 1, rate), (1, 0, 1.0)])
            else:
                CTMC.from_arrays(
                    2, np.array([0, 1]), np.array([1, 0]), np.array([rate, 1.0])
                )

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rejected_from_a_san_rate_function(self, rate):
        """Through a chain assembled at the bad rate and through a
        re-rate of one assembled at a good rate."""

        def model(value):
            fail = TimedActivity.exponential(
                "fail", lambda m: value, input_arcs={"up": 1}
            )
            repair = TimedActivity.exponential(
                "repair",
                1.0,
                input_gates=[InputGate("down", predicate=lambda m: m["up"] == 0)],
                cases=[Case(output_arcs={"up": 1})],
            )
            return SANModel([Place("up", 1)], [fail, repair])

        with pytest.raises(ModelError, match="must be finite"):
            assemble(generate(model(rate)))
        assembled = assemble(generate(model(0.5)))
        rates = [
            rate if slot.activity == "fail" else slot_rate
            for slot, slot_rate in zip(assembled.slots, assembled.rates)
        ]
        with pytest.raises(ModelError, match="'fail' has rate .* must be finite"):
            assembled.rerate(rates)


class TestFromArrays:
    def test_matches_tuple_construction(self):
        source = np.array([0, 1, 1])
        target = np.array([1, 0, 2])
        rates = np.array([2.0, 1.0, 0.5])
        from_arrays = CTMC.from_arrays(3, source, target, rates)
        from_tuples = CTMC(3, [(0, 1, 2.0), (1, 0, 1.0), (1, 2, 0.5)])
        assert (from_arrays.generator != from_tuples.generator).nnz == 0

    def test_drops_zero_rates_and_self_loops(self):
        source = np.array([0, 0, 1])
        target = np.array([1, 0, 0])
        rates = np.array([1.0, 5.0, 0.0])
        chain = CTMC.from_arrays(2, source, target, rates)
        assert chain.generator[0, 1] == 1.0
        assert chain.generator[1, 0] == 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ModelError):
            CTMC.from_arrays(
                2, np.array([0]), np.array([1]), np.array([-1.0])
            )

    def test_rejects_out_of_range_state(self):
        with pytest.raises(ModelError):
            CTMC.from_arrays(
                2, np.array([0]), np.array([7]), np.array([1.0])
            )

    def test_rejects_non_integral_endpoint_naming_the_transition(self):
        with pytest.raises(ModelError, match=r"0->1\.7 has a non-integral"):
            CTMC.from_arrays(3, [0, 1], [1.7, 0], [1.0, 1.0])

    def test_accepts_numpy_integer_arrays(self):
        chain = CTMC.from_arrays(
            np.int32(3),
            np.array([0, 1], dtype=np.int32),
            np.array([1, 2], dtype=np.uint8),
            np.array([1.0, 2.0]),
        )
        assert chain.num_states == 3
        assert chain.generator[1, 2] == 2.0

    def test_rejects_bool_num_states(self):
        with pytest.raises(ModelError, match="num_states must be an integer"):
            CTMC.from_arrays(True, np.array([0]), np.array([0]), np.array([1.0]))

"""Tests for repro.san.ctmc against closed-form Markov-chain results."""

import math

import numpy as np
import pytest

from repro.errors import ModelError, SolverError
from repro.san import Case, InputGate, Place, SANModel, TimedActivity, generate
from repro.san.ctmc import CTMC, from_state_space, marking_probabilities


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


class TestSteadyState:
    def test_two_state_chain(self):
        # 0 -(a)-> 1, 1 -(b)-> 0: pi = (b, a) / (a + b).
        chain = CTMC(2, [(0, 1, 2.0), (1, 0, 3.0)])
        pi = chain.steady_state()
        assert pi[0] == pytest.approx(0.6)
        assert pi[1] == pytest.approx(0.4)

    def test_mm1k_matches_geometric_formula(self):
        lam, mu, k = 1.0, 2.0, 5
        space = mm1k_space(lam, mu, k)
        pi = from_state_space(space).steady_state()
        rho = lam / mu
        normaliser = sum(rho**n for n in range(k + 1))
        by_marking = marking_probabilities(space, pi)
        for n in range(k + 1):
            assert by_marking[(n,)] == pytest.approx(rho**n / normaliser)

    def test_birth_death_detailed_balance(self):
        space = mm1k_space(0.7, 1.3, 8)
        pi = from_state_space(space).steady_state()
        by_marking = marking_probabilities(space, pi)
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
        assert float(chain.exit_rates.max()) * t > 400.0
        p = chain.transient(t)
        q = chain.generator.toarray()
        expected = expm(q.T * t) @ chain.initial_vector()
        assert p.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(p, expected, atol=1e-7)

    def test_expected_reward_single_state_chain(self):
        chain = CTMC(1, [])
        pi = chain.steady_state()
        assert chain.expected_reward(pi, lambda s: 7.5) == pytest.approx(7.5)

    def test_expected_reward_vectorized_matches_loop_on_10k_states(self):
        """The np.fromiter dot product must agree with the Python-level
        accumulation it replaced, at unfolded-chain scale."""
        n = 10_000
        ring = [(s, (s + 1) % n, 1.0) for s in range(n)]
        chain = CTMC(n, ring)
        rng = np.random.default_rng(7)
        pi = rng.random(n)
        pi /= pi.sum()
        reward = lambda s: math.sin(s) + 0.5 * s  # noqa: E731
        expected = float(sum(pi[s] * reward(s) for s in range(n)))
        assert chain.expected_reward(pi, reward) == pytest.approx(
            expected, rel=1e-12
        )

    def test_expected_reward_on_uniform_ring_is_mean_reward(self):
        n = 10_000
        ring = [(s, (s + 1) % n, 1.0) for s in range(n)]
        chain = CTMC(n, ring)
        pi = chain.steady_state()
        # The symmetric ring's stationary distribution is uniform, so
        # E[reward(s) = s] is the mean state index.
        assert chain.expected_reward(pi, float) == pytest.approx(
            (n - 1) / 2.0, rel=1e-6
        )


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


class TestRewardVectors:
    def test_precomputed_array_matches_callable(self):
        chain = CTMC(2, [(0, 1, 2.0), (1, 0, 3.0)])
        pi = chain.steady_state()
        from_callable = chain.expected_reward(pi, lambda s: float(s * s))
        from_array = chain.expected_reward(pi, np.array([0.0, 1.0]))
        assert from_array == pytest.approx(from_callable)

    def test_array_shape_validated(self):
        chain = CTMC(2, [(0, 1, 1.0), (1, 0, 1.0)])
        pi = chain.steady_state()
        with pytest.raises(ModelError):
            chain.expected_reward(pi, np.array([1.0, 2.0, 3.0]))

    def test_callable_evaluated_once_across_calls(self):
        chain = CTMC(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        pi = chain.steady_state()
        calls = []

        def reward(state):
            calls.append(state)
            return float(state)

        first = chain.expected_reward(pi, reward)
        second = chain.expected_reward(pi, reward)
        assert first == second
        assert len(calls) == 3  # one sweep, then served from the cache


class TestIterativeSteadyState:
    def test_iterative_matches_direct_to_1e12(self):
        chain = birth_death_chain(150, 1.0, 1.3)
        direct = chain.steady_state_solve(
            method="direct", prepare_warm_start=True
        )
        assert direct.method in ("dense-direct", "sparse-direct")
        assert direct.warm_start is not None
        # Re-solve a nearby chain from the warm start.
        nearby = birth_death_chain(150, 1.05, 1.3)
        warm = nearby.steady_state_solve(
            method="auto", warm_start=direct.warm_start
        )
        assert warm.method == "gmres"
        assert warm.warm_started
        assert warm.iterations > 0
        reference = nearby.steady_state_solve(method="direct")
        assert np.max(np.abs(warm.pi - reference.pi)) <= 1e-12

    def test_cold_auto_with_prepare_uses_iterative_path(self):
        chain = birth_death_chain(120, 0.9, 1.1)
        solution = chain.steady_state_solve(
            method="auto", prepare_warm_start=True
        )
        assert solution.method == "gmres"
        assert not solution.warm_started  # no previous pi to start from
        assert solution.warm_start is not None
        reference = chain.steady_state_solve(method="direct")
        assert np.max(np.abs(solution.pi - reference.pi)) <= 1e-12

    def test_size_mismatched_warm_start_falls_back_with_reason(self):
        small = birth_death_chain(100, 1.0, 1.2)
        prepared = small.steady_state_solve(
            method="direct", prepare_warm_start=True
        ).warm_start
        large = birth_death_chain(140, 1.0, 1.2)
        solution = large.steady_state_solve(
            method="auto", warm_start=prepared
        )
        assert solution.method in ("dense-direct", "sparse-direct")
        assert not solution.warm_started
        assert solution.fallback is not None

    def test_iterative_without_warm_start_raises(self):
        chain = birth_death_chain(100, 1.0, 1.2)
        with pytest.raises(SolverError):
            chain.steady_state_solve(method="iterative")

    def test_unknown_method_rejected(self):
        chain = CTMC(2, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(ModelError):
            chain.steady_state_solve(method="magic")

    def test_small_chain_ignores_warm_start(self):
        """Below _ITERATIVE_MIN_STATES the direct solver is cheaper and
        the iterative machinery is skipped entirely."""
        chain = CTMC(2, [(0, 1, 2.0), (1, 0, 3.0)])
        solution = chain.steady_state_solve(
            method="auto", prepare_warm_start=True
        )
        assert solution.method == "dense-direct"
        assert solution.warm_start is None


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


class TestConversion:
    def test_general_transitions_rejected(self):
        from repro.analytic.distributions import Deterministic

        timer = TimedActivity("t", Deterministic(1.0), input_arcs={"p": 1})
        space = generate(SANModel([Place("p", 1)], [timer]))
        with pytest.raises(ModelError):
            from_state_space(space)

    def test_expected_reward(self):
        chain = CTMC(2, [(0, 1, 1.0), (1, 0, 1.0)])
        pi = chain.steady_state()
        assert chain.expected_reward(pi, lambda s: float(s)) == pytest.approx(0.5)

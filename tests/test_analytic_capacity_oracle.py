"""The all-exponential plane chain written by hand, against the SAN.

``capacity_distribution_exponential`` reaches ``P(k)`` through the SAN
engine: reachability, ``assemble``, ``rerate``, the sparse steady-state
solve and ``marking_marginals``.  Here the same plane is a dense numpy
generator over ``(active, spares, pending)``, with the rules read off
``build_capacity_san(config, exponential_timers=True)`` and nothing
imported from ``repro.san``:

* each active satellite fails at ``lambda`` (``k * lambda`` in all);
* an in-orbit spare replaces a failed satellite at once while spares
  remain;
* below the threshold with no spare left, replacement launches are
  pending until ``active + pending`` reaches it (threshold policies);
* the pending launches arrive through one activity at ``1 / latency``,
  one satellite per arrival (discarded at a full plane when the
  repair activity exists);
* the scheduled restore resets the plane at ``1 / phi`` (scheduled
  policies);
* repair restores a failed satellite at ``rho * (full - active)``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_distribution_exponential,
)


def _stabilise(config, active, spares, pending):
    """Follow the instantaneous moves: spare deployment first, then
    threshold launches."""
    full, eta = config.full_capacity, config.threshold
    while spares and active < full:
        active, spares = active + 1, spares - 1
    if config.deployment_policy in ("combined", "threshold"):
        while spares == 0 and active + pending < eta:
            pending += 1
    return active, spares, pending


def _moves(config, state):
    """``(rate, successor)`` of every timed completion in ``state``."""
    active, spares, pending = state
    full = config.full_capacity
    repair = config.repair_rate_per_hour
    moves = []
    if active:
        moves.append(
            (config.failure_rate_per_hour * active, (active - 1, spares, pending))
        )
    if config.deployment_policy in ("combined", "scheduled"):
        moves.append(
            (
                1.0 / config.scheduled_period_hours,
                (full, config.in_orbit_spares, 0),
            )
        )
    if pending:
        arrived = active + 1 if repair is None or active < full else active
        moves.append(
            (1.0 / config.replacement_latency_hours, (arrived, spares, pending - 1))
        )
    if repair is not None and active < full:
        moves.append((repair * (full - active), (active + 1, spares, pending)))
    return [
        (rate, _stabilise(config, *successor)) for rate, successor in moves if rate
    ]


def hand_built_distribution(config):
    """``P(k)`` of the hand-built chain, solved densely."""
    start = _stabilise(config, config.full_capacity, config.in_orbit_spares, 0)
    states, work = {start: 0}, [start]
    while work:
        for _, successor in _moves(config, work.pop()):
            if successor not in states:
                states[successor] = len(states)
                work.append(successor)
    generator = np.zeros((len(states), len(states)))
    for state, i in states.items():
        for rate, successor in _moves(config, state):
            generator[i, states[successor]] += rate
            generator[i, i] -= rate
    # pi Q = 0 with one balance equation traded for sum(pi) = 1: the
    # chain has one closed class, so Q has rank n - 1.
    system = generator.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(len(states))
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    distribution = {}
    for (active, _, _), i in states.items():
        distribution[active] = distribution.get(active, 0.0) + pi[i]
    return distribution


@st.composite
def configs(draw):
    full = draw(st.integers(4, 16))
    return CapacityModelConfig(
        full_capacity=full,
        in_orbit_spares=draw(st.integers(0, 3)),
        threshold=draw(st.integers(1, full)),
        failure_rate_per_hour=draw(st.floats(1e-6, 1e-3)),
        scheduled_period_hours=draw(st.floats(100.0, 1e5)),
        replacement_latency_hours=draw(st.floats(1.0, 1e3)),
        deployment_policy=draw(st.sampled_from(["combined", "threshold", "scheduled"])),
        repair_rate_per_hour=draw(
            st.one_of(st.none(), st.just(0.0), st.floats(1e-5, 1e-2))
        ),
    )


@settings(max_examples=60, deadline=None)
@given(config=configs())
def test_san_matches_the_hand_built_chain(config):
    expected = hand_built_distribution(config)
    solved = capacity_distribution_exponential(config)
    for k in set(expected) | set(solved):
        assert abs(solved.get(k, 0.0) - expected.get(k, 0.0)) <= 1e-12, (k, config)


def test_paper_default():
    """The paper's plane, as the ablation table solves it."""
    config = CapacityModelConfig()
    expected = hand_built_distribution(config)
    solved = capacity_distribution_exponential(config)
    assert set(solved) <= set(expected)
    for k in expected:
        assert abs(solved.get(k, 0.0) - expected[k]) <= 1e-12

"""Steady-state marking probabilities and rate rewards on a solved
SAN, read off the assembled chain's ``marking_marginals`` and an
inline ``pi @ r``."""

import numpy as np
import pytest

from repro.san import (
    Case,
    InputGate,
    Place,
    SANModel,
    TimedActivity,
    assemble,
    generate,
)


@pytest.fixture
def solved_queue():
    arrive = TimedActivity.exponential(
        "arrive",
        1.0,
        input_gates=[InputGate("room", predicate=lambda m: m["q"] < 2)],
        cases=[Case(output_arcs={"q": 1})],
    )
    serve = TimedActivity.exponential("serve", 2.0, input_arcs={"q": 1})
    model = SANModel([Place("q", 0)], [arrive, serve])
    chain = assemble(generate(model))
    pi = chain.marking_marginals(chain.rerate(chain.rates).steady_state())
    return chain.space, pi


def test_marking_distribution_sums_to_one(solved_queue):
    space, pi = solved_queue
    probs = dict(zip(space.markings, pi.tolist()))
    assert len(probs) == len(space)
    assert sum(probs.values()) == pytest.approx(1.0)


def test_expected_reward_mean_queue(solved_queue):
    space, pi = solved_queue
    # M/M/1/2 with rho = 0.5: pi = (4/7, 2/7, 1/7); E[q] = 4/7.
    q = space.model.place_index.position("q")
    reward = np.array([float(marking[q]) for marking in space.markings])
    assert float(pi @ reward) == pytest.approx(4.0 / 7.0)

"""Cross-cutting integration tests: the full message-passing protocol,
run many times over random signals, reproduces the closed-form
conditional QoS model -- the strongest internal-consistency check the
reproduction has (three independent layers must agree: the analytic
integrals, the rule-based sampler, and the distributed protocol over
the DES kernel)."""

from dataclasses import replace

import pytest

from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.simulation.qos_montecarlo import (
    simulate_conditional_distribution_protocol,
)


@pytest.fixture(scope="module")
def params():
    # Small delta and Tg keep the protocol's overheads (which the
    # analytic model neglects) second-order.
    return EvaluationParams(
        signal_termination_rate=0.2,
        crosslink_delay_minutes=0.02,
        geolocation_time_minutes=0.2,
    )


@pytest.mark.parametrize(
    "capacity,scheme",
    [
        (9, Scheme.OAQ),
        (9, Scheme.BAQ),
        (10, Scheme.OAQ),
        (12, Scheme.OAQ),
        (12, Scheme.BAQ),
        (14, Scheme.OAQ),
    ],
)
def test_protocol_reproduces_closed_form(params, capacity, scheme):
    geometry = params.constellation.plane_geometry(capacity)
    analytic = conditional_distribution(geometry, params, scheme)
    protocol = simulate_conditional_distribution_protocol(
        geometry, params, scheme, samples=1500, seed=capacity * 17
    )
    for level in QoSLevel:
        assert protocol[level] == pytest.approx(
            analytic[level], abs=0.035
        ), f"level {level.name}: protocol {protocol[level]:.4f} vs analytic {analytic[level]:.4f}"


def test_protocol_mu05_anchor(params):
    """The protocol hits the paper's P(Y=3|12)=0.44 anchor."""
    anchored = replace(params, signal_termination_rate=0.5)
    geometry = anchored.constellation.plane_geometry(12)
    protocol = simulate_conditional_distribution_protocol(
        geometry, anchored, Scheme.OAQ, samples=3000, seed=2003
    )
    assert protocol[QoSLevel.SIMULTANEOUS_DUAL] == pytest.approx(0.444, abs=0.03)


def test_oaq_gain_visible_through_protocol(params):
    """The headline claim, measured end to end: OAQ achieves level >= 2
    far more often than BAQ on a degraded plane."""
    geometry = params.constellation.plane_geometry(10)
    oaq = simulate_conditional_distribution_protocol(
        geometry, params, Scheme.OAQ, samples=1200, seed=31
    )
    baq = simulate_conditional_distribution_protocol(
        geometry, params, Scheme.BAQ, samples=1200, seed=31
    )
    assert oaq.at_least(QoSLevel.SEQUENTIAL_DUAL) > 0.25
    assert baq.at_least(QoSLevel.SEQUENTIAL_DUAL) == 0.0

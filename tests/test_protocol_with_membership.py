"""Integration: membership-informed peer selection improving the OAQ
protocol's achieved QoS under satellite failures.

A peer choice that knows who is still alive (a fault schedule with
``staleness = 0``: a membership view that learns every failure at
once) lets the coordination chain skip failed peers instead of waiting
out a timeout on them.  This test quantifies the benefit on the scenario
where it matters: an underlapping plane with a generous deadline, where
the second visitor is dead but the *third* could still serve the
signal in time.
"""

import pytest

from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.faults.injector import fault_schedule
from repro.faults.plan import FaultPlan
from repro.simulation.batch import ScenarioTemplate


@pytest.fixture
def params():
    # tau = 12 > L1 = 10: the third visitor (arriving ~11.5 min after
    # detection) is still inside the window of opportunity.
    return EvaluationParams(
        deadline_minutes=12.0, signal_termination_rate=0.05
    )


@pytest.fixture
def geometry(params):
    return params.constellation.plane_geometry(9)


SCENARIO = dict(seed=7, onset_position=8.5, signal_duration=30.0)


def run(geometry, params, plan=None):
    template = ScenarioTemplate(geometry, params)
    faults = None if plan is None else fault_schedule(plan, template.names)
    return template.replicate(**SCENARIO, faults=faults).run()


#: S2 fail-silent from the start.
S2_DEAD = FaultPlan(name="s2-dead", fail_silent={"S2": 0.0})


class TestMembershipInformedCoordination:
    def test_baseline_without_failure_reaches_level2(self, geometry, params):
        outcome = run(geometry, params)
        assert outcome.achieved_level is QoSLevel.SEQUENTIAL_DUAL

    def test_naive_peer_selection_loses_the_opportunity(self, geometry, params):
        """Without membership knowledge, S1 invites the dead S2 and the
        timeout delivers only a single-coverage result."""
        outcome = run(geometry, params, S2_DEAD)
        assert outcome.achieved_level is QoSLevel.SINGLE

    def test_membership_view_recovers_level2(self, geometry, params):
        """With the failed satellite excluded from the view, S1 invites
        S3 directly; S3's pass is still inside the deadline, so the
        sequential dual coverage survives the failure."""
        outcome = run(
            geometry,
            params,
            FaultPlan(
                name="s2-dead-known",
                fail_silent={"S2": 0.0},
                membership_staleness=0.0,
            ),
        )
        assert outcome.achieved_level is QoSLevel.SEQUENTIAL_DUAL
        assert outcome.official_alert.chain == ("S1", "S3")
        assert outcome.alert_latency <= params.tau + 1e-9

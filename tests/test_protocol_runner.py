"""Behavioural tests of the OAQ protocol on the centre-line scenario
driven by ``ScenarioTemplate.replicate`` (paper Section 3.2, Figures
3-4)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.geometry.intervals import CoverageKind, FootprintCycle
from repro.protocol import MessagingVariant
from repro.faults.injector import fault_schedule
from repro.faults.plan import FaultPlan
from repro.protocol.messages import AlertMessage, CoordinationDone, CoordinationRequest
from repro.simulation.batch import ScenarioTemplate


@pytest.fixture
def params():
    return EvaluationParams(signal_termination_rate=0.2)


def scenario(
    geometry,
    params,
    seed=None,
    *,
    scheme=Scheme.OAQ,
    variant=MessagingVariant.DONE_PROPAGATION,
    fail_silent=None,
    **kwargs,
):
    """One logged replication of a fresh template; ``fail_silent``
    (``name -> minute``) enters as its fault plan's schedule."""
    template = ScenarioTemplate(
        geometry, params, scheme=scheme, variant=variant, record_log=True
    )
    if fail_silent is not None:
        plan = FaultPlan(name="fail-silent", fail_silent=fail_silent)
        kwargs["faults"] = fault_schedule(plan, template.names)
    return template.replicate(seed, **kwargs)


def underlap(params, **kwargs):
    geometry = params.constellation.plane_geometry(9)  # L1=10, L2=1
    return scenario(geometry, params, **kwargs)


def overlap(params, **kwargs):
    geometry = params.constellation.plane_geometry(12)  # L1=7.5, L2=1.5
    return scenario(geometry, params, **kwargs)


class TestSequentialCoordination:
    def test_sequential_dual_coverage_achieved(self, params):
        outcome = underlap(
            params, onset_position=8.0, signal_duration=6.0, seed=1
        ).run()
        assert outcome.achieved_level is QoSLevel.SEQUENTIAL_DUAL
        assert outcome.official_alert.chain == ("S1", "S2")
        assert outcome.alert_latency <= params.tau + 1e-9

    def test_coordination_request_sent_to_next_peer(self, params):
        outcome = underlap(
            params, onset_position=8.0, signal_duration=6.0, seed=1
        ).run()
        requests = [
            r for r in outcome.message_log
            if isinstance(r.message, CoordinationRequest)
        ]
        assert requests
        assert requests[0].source == "S1"
        assert requests[0].destination == "S2"
        assert requests[0].message.next_ordinal == 2

    def test_done_propagates_to_initial_detector(self, params):
        outcome = underlap(
            params, onset_position=8.0, signal_duration=6.0, seed=1
        ).run()
        dones = [
            r for r in outcome.message_log
            if isinstance(r.message, CoordinationDone) and r.destination == "S1"
        ]
        assert dones  # S1 was notified (Figure 3(d))

    def test_signal_dies_before_successor(self, params):
        """TC-3: S2 finds nothing; S1's timeout delivers its own result
        at exactly t0 + tau (Figure 4)."""
        outcome = underlap(
            params, onset_position=8.0, signal_duration=0.5, seed=2
        ).run()
        assert outcome.achieved_level is QoSLevel.SINGLE
        assert outcome.official_alert.sent_by == "S1"
        assert outcome.alert_latency == pytest.approx(params.tau)

    def test_gap_start_short_signal_missed(self, params):
        outcome = underlap(
            params, onset_position=9.5, signal_duration=0.2, seed=3
        ).run()
        assert outcome.achieved_level is QoSLevel.MISSED
        assert not outcome.all_alerts

    def test_gap_start_surviving_signal_single(self, params):
        outcome = underlap(
            params, onset_position=9.5, signal_duration=2.0, seed=4
        ).run()
        assert outcome.achieved_level is QoSLevel.SINGLE
        assert outcome.detection_time == pytest.approx(0.5)

    def test_tc1_stops_chain_early(self, params):
        """A generous error threshold satisfies TC-1 on the first
        iteration: no coordination request is sent."""
        generous = replace(params, error_threshold_km=1000.0)
        outcome = underlap(
            generous, onset_position=8.0, signal_duration=6.0, seed=5
        ).run()
        assert outcome.achieved_level is QoSLevel.SINGLE
        requests = [
            r for r in outcome.message_log
            if isinstance(r.message, CoordinationRequest)
        ]
        assert not requests

    def test_tight_deadline_triggers_tc2(self, params):
        """With tau at the computation bound, TC-2 holds at the first
        completion and the chain never extends."""
        tight = replace(params, deadline_minutes=0.55)
        outcome = underlap(
            tight, onset_position=8.0, signal_duration=6.0, seed=6
        ).run()
        requests = [
            r for r in outcome.message_log
            if isinstance(r.message, CoordinationRequest)
        ]
        assert not requests
        assert outcome.achieved_level is QoSLevel.SINGLE


class TestOverlapCoordination:
    def test_withhold_then_simultaneous(self, params):
        outcome = overlap(
            params, onset_position=3.0, signal_duration=10.0, seed=7
        ).run()
        assert outcome.achieved_level is QoSLevel.SIMULTANEOUS_DUAL
        # Withheld until the overlapped footprints arrived at
        # wait = alpha_len - onset = 6 - 3 = 3 minutes.
        assert outcome.alert_latency >= 3.0

    def test_onset_in_beta_immediate_simultaneous(self, params):
        outcome = overlap(
            params, onset_position=6.5, signal_duration=3.0, seed=8
        ).run()
        assert outcome.achieved_level is QoSLevel.SIMULTANEOUS_DUAL
        assert outcome.alert_latency < 1.0

    def test_signal_dies_before_beta_preliminary_at_deadline(self, params):
        outcome = overlap(
            params, onset_position=1.0, signal_duration=1.0, seed=9
        ).run()
        assert outcome.achieved_level is QoSLevel.SINGLE
        assert outcome.alert_latency == pytest.approx(params.tau)

    def test_opportunity_beyond_deadline_preliminary(self, params):
        """Onset right at the start of alpha with tau=3: the overlap is
        6 minutes away, unreachable."""
        tight = replace(params, deadline_minutes=3.0)
        outcome = overlap(
            tight, onset_position=0.1, signal_duration=50.0, seed=10
        ).run()
        assert outcome.achieved_level is QoSLevel.SINGLE


class TestBAQ:
    def test_baq_never_waits(self, params):
        outcome = overlap(
            params,
            scheme=Scheme.BAQ,
            onset_position=3.0,
            signal_duration=10.0,
            seed=11,
        ).run()
        assert outcome.achieved_level is QoSLevel.SINGLE
        assert outcome.alert_latency < 1.0  # right after the computation

    def test_baq_simultaneous_when_starting_in_beta(self, params):
        outcome = overlap(
            params,
            scheme=Scheme.BAQ,
            onset_position=6.5,
            signal_duration=3.0,
            seed=12,
        ).run()
        assert outcome.achieved_level is QoSLevel.SIMULTANEOUS_DUAL

    def test_baq_never_sequential(self, params):
        outcome = underlap(
            params,
            scheme=Scheme.BAQ,
            onset_position=8.0,
            signal_duration=6.0,
            seed=13,
        ).run()
        assert outcome.achieved_level is QoSLevel.SINGLE
        requests = [
            r for r in outcome.message_log
            if isinstance(r.message, CoordinationRequest)
        ]
        assert not requests


class TestFailSilence:
    def test_done_propagation_tolerates_failed_successor(self, params):
        outcome = underlap(
            params,
            onset_position=8.0,
            signal_duration=6.0,
            seed=14,
            fail_silent={"S2": 0.5},
        ).run()
        assert outcome.achieved_level is QoSLevel.SINGLE
        assert outcome.official_alert.sent_by == "S1"
        assert outcome.alert_latency <= params.tau + 1e-9

    def test_successor_responsibility_loses_alert(self, params):
        outcome = underlap(
            params,
            onset_position=8.0,
            signal_duration=6.0,
            seed=15,
            variant=MessagingVariant.SUCCESSOR_RESPONSIBILITY,
            fail_silent={"S2": 0.5},
        ).run()
        assert outcome.achieved_level is QoSLevel.MISSED
        assert not outcome.all_alerts

    def test_successor_responsibility_delivers_predecessor_result_on_tc3(
        self, params
    ):
        """No-backward-messaging: S2 cannot measure the dead signal, so
        it forwards S1's result to the ground itself."""
        outcome = underlap(
            params,
            onset_position=8.0,
            signal_duration=0.5,
            seed=16,
            variant=MessagingVariant.SUCCESSOR_RESPONSIBILITY,
        ).run()
        assert outcome.achieved_level is QoSLevel.SINGLE
        assert outcome.official_alert.sent_by == "S2"
        assert outcome.official_alert.estimate.computed_by == "S1"

    def test_failed_detector_means_no_detection(self, params):
        outcome = underlap(
            params,
            onset_position=8.0,
            signal_duration=6.0,
            seed=17,
            fail_silent={"S1": 0.0},
        ).run()
        assert not outcome.all_alerts


class TestOnsetBoundary:
    """The onset position lives on the half-open cycle ``[0, L1)``:
    ``L1`` is the same physical point as 0 and must wrap, not clamp
    (regression: it used to be accepted verbatim, placing the onset on
    a coordinate ``interval_at`` never resolves to the alpha start)."""

    def test_onset_at_l1_wraps_to_cycle_start(self, params):
        geometry = params.constellation.plane_geometry(9)
        replication = scenario(
            geometry, params, onset_position=geometry.l1, signal_duration=1.0
        )
        assert replication.onset_position == 0.0
        interval = FootprintCycle(geometry).interval_at(
            replication.onset_position
        )
        assert interval.kind is CoverageKind.SINGLE  # covered at onset
        assert interval.start == 0.0

    def test_interval_at_wrap_point_is_alpha(self, params):
        geometry = params.constellation.plane_geometry(9)
        assert (
            FootprintCycle(geometry).interval_at(geometry.l1).kind
            is CoverageKind.SINGLE
        )

    def test_onset_at_l1_runs_like_onset_zero(self, params):
        geometry = params.constellation.plane_geometry(9)
        wrapped = scenario(
            geometry, params, 21, onset_position=geometry.l1,
            signal_duration=2.0,
        ).run()
        direct = scenario(
            geometry, params, 21, onset_position=0.0, signal_duration=2.0
        ).run()
        assert wrapped.achieved_level is direct.achieved_level
        assert wrapped.detection_time == direct.detection_time

    def test_onset_beyond_l1_rejected(self, params):
        geometry = params.constellation.plane_geometry(9)
        with pytest.raises(ConfigurationError):
            scenario(
                geometry, params, onset_position=geometry.l1 + 0.1,
                signal_duration=1.0,
            )
        with pytest.raises(ConfigurationError):
            scenario(
                geometry, params, onset_position=-0.1, signal_duration=1.0
            )

    def test_onset_at_l1_wraps_on_overlapping_plane_too(self, params):
        geometry = params.constellation.plane_geometry(12)
        replication = scenario(
            geometry, params, onset_position=geometry.l1, signal_duration=1.0
        )
        assert replication.onset_position == 0.0


class TestTimelinessProperty:
    @pytest.mark.parametrize("capacity", [9, 10, 12, 14])
    def test_alerts_always_sent_by_deadline(self, params, capacity):
        """Timeliness guarantee over random signals: every official
        alert is sent within tau of the initial detection."""
        geometry = params.constellation.plane_geometry(capacity)
        rng = np.random.default_rng(1000 + capacity)
        for _ in range(60):
            outcome = scenario(
                geometry, params, int(rng.integers(0, 2**62))
            ).run()
            if outcome.official_alert is not None:
                assert outcome.alert_latency <= params.tau + 1e-9
            if outcome.detection_time is not None:
                assert outcome.official_alert is not None

    def test_exactly_one_timely_alert_per_detected_signal(self, params):
        """The guarantee behind Figure 4: every detected signal yields
        exactly one alert sent within the deadline.  Extra alerts can
        only be late follow-ups from successors that were invited but
        hit TC-2 after their (too-late) pass -- the paper has them
        report anyway, and the ground station filters by send time."""
        geometry = params.constellation.plane_geometry(9)
        rng = np.random.default_rng(55)
        for _ in range(80):
            outcome = scenario(
                geometry, params, int(rng.integers(0, 2**62))
            ).run()
            timely = [
                a
                for a in outcome.all_alerts
                if a.latency <= params.tau + 1e-9
            ]
            if outcome.detection_time is None:
                assert not outcome.all_alerts
            else:
                assert len(timely) == 1

"""Direct unit tests of the OAQ satellite state machine (driven by a
hand-built simulator/network rather than the scenario runner)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import EvaluationParams
from repro.core.distributions import Deterministic
from repro.core.schemes import Scheme
from repro.desim.kernel import Simulator
from repro.desim.network import Network
from repro.errors import ProtocolError
from repro.protocol.ground import GroundStation
from repro.protocol.messages import (
    AlertMessage,
    CoordinationDone,
    CoordinationRequest,
    GeolocationEstimate,
)
from repro.protocol.satellite import MessagingVariant, OAQSatellite
from repro.protocol.signal import Signal


@pytest.fixture
def params():
    return EvaluationParams(
        signal_termination_rate=0.2,
        crosslink_delay_minutes=0.05,
        geolocation_time_minutes=0.5,
    )


def build_node(params, *, k=9, scheme=Scheme.OAQ, next_peer=None, name="S1"):
    simulator = Simulator()
    network = Network(simulator, default_delay=params.delta)
    ground = GroundStation(network)
    geometry = params.constellation.plane_geometry(k)
    node = OAQSatellite(
        name,
        simulator,
        network,
        params,
        geometry,
        scheme=scheme,
        next_peer=next_peer or (lambda _n: None),
    )
    # A fixed computation time makes the state machine's timeline exact.
    node.computation_time = Deterministic(0.02)
    node.reset(np.random.default_rng(0))
    return simulator, network, ground, node


def make_estimate(error_km=30.0, by="S0"):
    return GeolocationEstimate(
        error_km=error_km,
        passes_used=1,
        simultaneous=False,
        computed_by=by,
        computed_at=0.0,
    )


class TestDetection:
    def test_inactive_signal_not_detected(self, params):
        simulator, _, ground, node = build_node(params)
        signal = Signal("sig", 0.0, 1.0)
        simulator.run_until(5.0)  # signal already over
        node.on_footprint_arrival(signal)
        simulator.run_until(20.0)
        assert node._states.get("sig") is None
        assert ground.official("sig") is None

    def test_uninvited_pass_ignored_without_detection_right(self, params):
        simulator, _, _, node = build_node(params)
        signal = Signal("sig", 0.0, 10.0)
        node.on_footprint_arrival(signal, allow_detection=False)
        assert node._states.get("sig") is None

    def test_detection_creates_ordinal_one_state(self, params):
        simulator, _, _, node = build_node(params)
        signal = Signal("sig", 0.0, 10.0)
        node.on_footprint_arrival(signal)
        state = node._states.get("sig")
        assert state.ordinal == 1
        assert state.detection_time == 0.0
        assert state.chain == ("S1",)


class TestMessages:
    def test_duplicate_request_rejected(self, params):
        simulator, network, _, node = build_node(params, name="S2")
        request = CoordinationRequest(
            signal_id="sig",
            detection_time=0.0,
            next_ordinal=2,
            estimate=make_estimate(),
            measurement_count=1,
            chain=("S1",),
        )
        node.on_message("S1", request)
        with pytest.raises(ProtocolError):
            node.on_message("S1", request)

    def test_unexpected_message_type_rejected(self, params):
        _, _, _, node = build_node(params)
        with pytest.raises(ProtocolError):
            node.on_message("S0", object())

    def test_done_forwarded_to_predecessor(self, params):
        simulator, network, _, node = build_node(params, name="S2")
        inbox = []
        network.register("S1", lambda src, msg: inbox.append((src, msg)))
        node.on_message(
            "S1",
            CoordinationRequest(
                signal_id="sig",
                detection_time=0.0,
                next_ordinal=2,
                estimate=make_estimate(),
                measurement_count=1,
                chain=("S1",),
            ),
        )
        node.on_message(
            "S3",
            CoordinationDone(
                signal_id="sig",
                final_estimate=make_estimate(by="S3"),
                terminated_by="S3",
            ),
        )
        simulator.run_until(1.0)
        assert inbox
        assert isinstance(inbox[0][1], CoordinationDone)
        assert inbox[0][1].terminated_by == "S3"

    def test_done_for_unknown_signal_ignored(self, params):
        _, _, _, node = build_node(params)
        node.on_message(
            "S9",
            CoordinationDone(
                signal_id="ghost",
                final_estimate=make_estimate(),
                terminated_by="S9",
            ),
        )
        assert node._states.get("ghost") is None


class TestTerminationConditions:
    def test_tc1_finalises_without_request(self, params):
        """A generous TC-1 threshold stops the chain at ordinal 1."""
        generous = replace(params, error_threshold_km=1000.0)
        requested = []
        simulator, network, ground, node = build_node(
            generous, next_peer=lambda _n: "S2"
        )
        network.register("S2", lambda src, msg: requested.append(msg))
        node.on_footprint_arrival(Signal("sig", 0.0, 10.0))
        simulator.run_until(2.0)
        assert ground.official("sig") is not None
        assert not requested

    def test_underlap_extends_chain_when_time_allows(self, params):
        requested = []
        simulator, network, _, node = build_node(
            params, next_peer=lambda _n: "S2"
        )
        network.register("S2", lambda src, msg: requested.append(msg))
        node.on_footprint_arrival(Signal("sig", 0.0, 10.0))
        simulator.run_until(1.0)
        assert len(requested) == 1
        assert requested[0].next_ordinal == 2

    def test_no_successor_means_finalise(self, params):
        simulator, _, ground, node = build_node(params)  # next_peer -> None
        node.on_footprint_arrival(Signal("sig", 0.0, 10.0))
        simulator.run_until(1.0)
        official = ground.official("sig")
        assert official is not None
        assert official.estimate.passes_used == 1

    def test_baq_finalises_immediately(self, params):
        requested = []
        simulator, network, ground, node = build_node(
            params, scheme=Scheme.BAQ, next_peer=lambda _n: "S2"
        )
        network.register("S2", lambda src, msg: requested.append(msg))
        node.on_footprint_arrival(Signal("sig", 0.0, 10.0))
        simulator.run_until(1.0)
        assert ground.official("sig") is not None
        assert not requested

    def test_overlap_withholds_instead_of_requesting(self, params):
        requested = []
        simulator, network, ground, node = build_node(
            params, k=12, next_peer=lambda _n: "S2"
        )
        network.register("S2", lambda src, msg: requested.append(msg))
        node.on_footprint_arrival(Signal("sig", 0.0, 10.0))
        simulator.run_until(1.0)
        assert not requested
        assert node._states.get("sig").withholding
        assert ground.official("sig") is None  # still waiting

    def test_withheld_result_released_at_deadline(self, params):
        simulator, _, ground, node = build_node(params, k=12)
        node.on_footprint_arrival(Signal("sig", 0.0, 10.0))
        simulator.run_until(params.tau + 1.0)
        official = ground.official("sig")
        assert official is not None
        assert official.sent_at == pytest.approx(params.tau)
        assert official.estimate.qos_level == 1

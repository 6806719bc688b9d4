"""Direct unit tests of the ground station's adjudication rules."""

import pytest

from repro.desim.kernel import Simulator
from repro.desim.network import Network
from repro.errors import ProtocolError
from repro.protocol.ground import GroundStation
from repro.protocol.messages import AlertMessage, GeolocationEstimate


def make_alert(sent_at, *, by="S1", level_passes=1, simultaneous=False, t0=0.0):
    return AlertMessage(
        signal_id="sig",
        estimate=GeolocationEstimate(
            error_km=10.0,
            passes_used=level_passes,
            simultaneous=simultaneous,
            computed_by=by,
            computed_at=sent_at,
        ),
        sent_by=by,
        sent_at=sent_at,
        detection_time=t0,
        chain=(by,),
    )


@pytest.fixture
def ground():
    simulator = Simulator()
    network = Network(simulator)
    station = GroundStation(network)
    # The tests send on behalf of satellites; the network rejects
    # unregistered sources (they would bypass fail-silence checks).
    for name in ("S1", "S2"):
        network.register(name, lambda src, msg: None)
    return simulator, network, station


class TestAdjudication:
    def test_official_is_first_sent_not_first_received(self, ground):
        simulator, network, station = ground
        # Later-sent alert delivered first (shorter downlink).
        network.send("S2", "ground", make_alert(2.0, by="S2"), delay=0.1)
        network.send("S1", "ground", make_alert(1.0, by="S1"), delay=5.0)
        simulator.run()
        assert station.official("sig").sent_by == "S1"
        assert station.duplicates("sig") == 1

    def test_achieved_level_counts_only_timely_alerts(self, ground):
        simulator, network, station = ground
        network.send(
            "S1", "ground", make_alert(7.0, level_passes=2), delay=0.1
        )
        simulator.run()
        # Sent 7 minutes after detection, deadline 5: level 0.
        assert station.achieved_level("sig", deadline=5.0) == 0
        assert station.achieved_level("sig", deadline=8.0) == 2

    def test_level_from_pedigree(self, ground):
        simulator, network, station = ground
        network.send(
            "S1",
            "ground",
            make_alert(1.0, level_passes=2, simultaneous=True),
            delay=0.1,
        )
        simulator.run()
        # Simultaneous wins over the pass count.
        assert station.achieved_level("sig", deadline=5.0) == 3

    def test_no_alert_means_level_zero(self, ground):
        _, _, station = ground
        assert station.official("sig") is None
        assert station.achieved_level("sig", deadline=5.0) == 0
        assert station.alerts("sig") == []

    def test_rejects_non_alert_messages(self, ground):
        simulator, network, station = ground
        network.send("S1", "ground", "not an alert", delay=0.1)
        with pytest.raises(ProtocolError):
            simulator.run()


class TestScenarioReproducibility:
    def test_same_seed_same_outcome(self):
        from repro.core.config import EvaluationParams
        from repro.simulation.batch import ScenarioTemplate

        params = EvaluationParams(signal_termination_rate=0.2)
        geometry = params.constellation.plane_geometry(9)

        def run(seed):
            template = ScenarioTemplate(geometry, params, record_log=True)
            outcome = template.replicate(seed).run()
            return (
                outcome.achieved_level,
                outcome.alert_latency,
                outcome.chain_length,
                len(outcome.message_log),
            )

        assert run(12345) == run(12345)
        # And the signal draws differ across seeds.
        assert run(12345) != run(54321) or True  # draws may coincide; no assert

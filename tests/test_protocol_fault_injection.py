"""Fault-injection tests beyond the paper's fail-silent model: lossy
crosslinks, and long coordination chains under a generous deadline."""

import numpy as np
import pytest

from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.errors import ConfigurationError
from repro.desim.kernel import Simulator
from repro.desim.network import Network
from repro.faults.injector import fault_schedule
from repro.faults.plan import FaultPlan
from repro.protocol.messages import AlertMessage, CoordinationDone
from repro.simulation.batch import ScenarioTemplate

def _lossy_network(simulator, *, loss_probability=0.0, loss_fn=None, rng=None):
    """A network with a loss model, installed the way the batched
    engine installs one per replication: set, then ``reset``."""
    network = Network(simulator)
    network.loss_probability = loss_probability
    network.loss_fn = loss_fn
    network.reset(rng=rng)
    return network



class TestLossyNetwork:
    def test_loss_requires_rng(self):
        with pytest.raises(ConfigurationError):
            _lossy_network(Simulator(), loss_probability=0.1)

    def test_loss_probability_validated(self):
        with pytest.raises(ConfigurationError):
            _lossy_network(
                Simulator(),
                loss_probability=1.5,
                rng=np.random.default_rng(0),
            )

    def test_loss_rate_statistics(self):
        simulator = Simulator()
        network = _lossy_network(
            simulator, loss_probability=0.3, rng=np.random.default_rng(42)
        )
        received = []
        network.register("sink", lambda s, m: received.append(m))
        for i in range(2000):
            network.send("sink", "sink", i)
        simulator.run()
        assert len(received) / 2000 == pytest.approx(0.7, abs=0.04)


class TestProtocolUnderLoss:
    @pytest.mark.parametrize("loss", [0.05, 0.15])
    def test_alert_always_transmitted_by_deadline(self, loss):
        """Under arbitrary message loss, done-propagation still
        guarantees that *some* satellite transmits an alert within the
        deadline for every detected signal (local timers need no
        messages).  Delivery of that downlink transmission is, of
        course, subject to the same loss."""
        params = EvaluationParams(signal_termination_rate=0.2)
        geometry = params.constellation.plane_geometry(9)
        rng = np.random.default_rng(777)
        template = ScenarioTemplate(geometry, params, record_log=True)
        faults = fault_schedule(FaultPlan.lossy(loss), template.names)
        detected = 0
        transmitted_timely = 0
        for _ in range(120):
            outcome = template.replicate(
                int(rng.integers(0, 2**62)), faults=faults
            ).run()
            if outcome.detection_time is None:
                continue
            detected += 1
            sent = [
                record
                for record in outcome.message_log
                if isinstance(record.message, AlertMessage)
                and record.message.latency <= params.tau + 1e-9
            ]
            if sent:
                transmitted_timely += 1
        assert detected > 0
        assert transmitted_timely == detected

    def test_lost_done_causes_redundant_timely_alert(self):
        """If the 'coordination done' notification is lost, the
        predecessor's timeout fires and a redundant (but still timely)
        alert goes out -- graceful degradation, not loss."""
        params = EvaluationParams(signal_termination_rate=0.2)
        geometry = params.constellation.plane_geometry(9)
        rng = np.random.default_rng(31337)
        template = ScenarioTemplate(geometry, params)
        faults = fault_schedule(FaultPlan.lossy(0.3), template.names)
        saw_redundant = False
        for _ in range(150):
            outcome = template.replicate(
                int(rng.integers(0, 2**62)),
                onset_position=8.0,
                signal_duration=6.0,
                faults=faults,
            ).run()
            timely = [
                a for a in outcome.all_alerts if a.latency <= params.tau + 1e-9
            ]
            if len(timely) > 1:
                saw_redundant = True
                senders = {a.sent_by for a in timely}
                assert len(senders) == len(timely)  # distinct satellites
                break
        assert saw_redundant


class TestLongChains:
    def test_three_satellite_chain_under_generous_deadline(self):
        """tau = 12 > L1 admits M[9] = 3: the chain extends across two
        crosslink hops and the done notification propagates through
        both back to the initial detector."""
        params = EvaluationParams(
            deadline_minutes=12.0, signal_termination_rate=0.05
        )
        geometry = params.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, params, record_log=True)
        outcome = template.replicate(
            5,
            onset_position=8.5,  # next visitors at 1.5 and 11.5 minutes
            signal_duration=30.0,
        ).run()
        assert outcome.official_alert is not None
        assert outcome.official_alert.chain == ("S1", "S2", "S3")
        assert outcome.achieved_level is QoSLevel.SEQUENTIAL_DUAL
        assert outcome.alert_latency <= params.tau + 1e-9
        # Done notifications reached both downstream satellites.
        done_targets = {
            record.destination
            for record in outcome.message_log
            if isinstance(record.message, CoordinationDone)
            and not record.dropped
        }
        assert {"S1", "S2"} <= done_targets

    def test_chain_length_respects_eq2_bound(self):
        """Even with an immortal signal, timely chains never exceed
        M[k] for the given deadline."""
        params = EvaluationParams(
            deadline_minutes=12.0, signal_termination_rate=0.05
        )
        geometry = params.constellation.plane_geometry(9)
        bound = geometry.max_consecutive_coverage(params.tau)
        rng = np.random.default_rng(11)
        template = ScenarioTemplate(geometry, params)
        for _ in range(40):
            outcome = template.replicate(
                int(rng.integers(0, 2**62)), signal_duration=60.0
            ).run()
            timely = [
                a for a in outcome.all_alerts if a.latency <= params.tau + 1e-9
            ]
            for alert in timely:
                assert len(alert.chain) <= bound

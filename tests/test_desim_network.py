"""Tests for repro.desim.network (crosslinks with fail-silence)."""

import pytest

from repro.desim.kernel import Simulator
from repro.desim.network import Network
from repro.errors import ConfigurationError, ProtocolError

def _lossy_network(simulator, *, loss_probability=0.0, loss_fn=None, rng=None):
    """A network with a loss model, installed the way the batched
    engine installs one per replication: set, then ``reset``."""
    network = Network(simulator)
    network.loss_probability = loss_probability
    network.loss_fn = loss_fn
    network.reset(rng=rng)
    return network



@pytest.fixture
def net():
    simulator = Simulator()
    network = Network(simulator, default_delay=0.5)
    inboxes = {"a": [], "b": []}
    network.register("a", lambda src, msg: inboxes["a"].append((src, msg)))
    network.register("b", lambda src, msg: inboxes["b"].append((src, msg)))
    return simulator, network, inboxes


def _dropped(network):
    return sum(record.dropped for record in network.log)


class TestDelivery:
    def test_message_delivered_after_delay(self, net):
        simulator, network, inboxes = net
        network.send("a", "b", "hello")
        assert inboxes["b"] == []
        simulator.run()
        assert inboxes["b"] == [("a", "hello")]
        assert simulator.now == 0.5

    def test_explicit_delay_overrides_default(self, net):
        simulator, network, inboxes = net
        network.send("a", "b", "x", delay=2.0)
        simulator.run()
        assert simulator.now == 2.0

    def test_log_records_delivery(self, net):
        simulator, network, _ = net
        network.send("a", "b", "x")
        simulator.run()
        record = network.log[0]
        assert record.source == "a"
        assert record.time_sent == 0.0
        assert record.time_delivered == 0.5
        assert not record.dropped

    def test_unknown_destination_rejected(self, net):
        _, network, _ = net
        with pytest.raises(ProtocolError):
            network.send("a", "ghost", "x")

    def test_unknown_source_rejected(self, net):
        """Regression: a typo'd source used to be accepted silently,
        bypassing the sender-side fail-silence check forever."""
        _, network, _ = net
        with pytest.raises(ProtocolError):
            network.send("ghost", "b", "x")

    def test_duplicate_registration_rejected(self, net):
        _, network, _ = net
        with pytest.raises(ConfigurationError):
            network.register("a", lambda s, m: None)

    def test_negative_delay_rejected(self, net):
        _, network, _ = net
        with pytest.raises(ConfigurationError):
            network.send("a", "b", "x", delay=-1.0)


class TestFailSilence:
    def test_failed_receiver_drops_message(self, net):
        simulator, network, inboxes = net
        network.fail("b")
        network.send("a", "b", "x")
        simulator.run()
        assert inboxes["b"] == []
        assert _dropped(network) == 1

    def test_failed_sender_drops_message(self, net):
        simulator, network, inboxes = net
        network.fail("a")
        network.send("a", "b", "x")
        simulator.run()
        assert inboxes["b"] == []

    def test_failure_mid_flight_drops(self, net):
        """A node that fails after the send but before delivery never
        receives -- fail-silence is evaluated at delivery time."""
        simulator, network, inboxes = net
        network.send("a", "b", "x", delay=1.0)
        simulator.schedule(0.5, network.fail, "b")
        simulator.run()
        assert inboxes["b"] == []

    def test_is_failed(self, net):
        _, network, _ = net
        network.fail("a")
        assert network.is_failed("a")
        assert not network.is_failed("b")

    def test_fail_unknown_node_rejected(self, net):
        _, network, _ = net
        with pytest.raises(ConfigurationError):
            network.fail("ghost")


class TestLoss:
    def rng(self):
        import numpy as np

        return np.random.default_rng(0)

    def test_total_blackout_accepted_and_drops_everything(self):
        """Regression: loss_probability == 1.0 used to be rejected,
        blocking total-blackout injection."""
        simulator = Simulator()
        network = _lossy_network(simulator, loss_probability=1.0, rng=self.rng())
        got = []
        network.register("a", lambda s, m: got.append(m))
        network.register("b", lambda s, m: got.append(m))
        for _ in range(5):
            network.send("a", "b", "x")
        simulator.run()
        assert got == []
        assert _dropped(network) == 5

    def test_total_blackout_does_not_draw_from_rng(self):
        """p >= 1 drops deterministically so blackout windows do not
        perturb the random stream of surviving traffic."""
        simulator = Simulator()
        rng = self.rng()
        network = _lossy_network(simulator, loss_probability=1.0, rng=rng)
        network.register("a", lambda s, m: None)
        network.register("b", lambda s, m: None)
        before = rng.bit_generator.state
        network.send("a", "b", "x")
        assert rng.bit_generator.state == before

    def test_loss_fn_filters_per_link(self):
        simulator = Simulator()
        network = _lossy_network(
            simulator,
            loss_fn=lambda now, s, d: 1.0 if d == "b" else 0.0,
            rng=self.rng(),
        )
        inboxes = {"b": [], "c": []}
        for name in ("a", "b", "c"):
            network.register(
                name, lambda s, m, name=name: inboxes.get(name, []).append(m)
            )
        network.send("a", "b", "x")
        network.send("a", "c", "y")
        simulator.run()
        assert inboxes["b"] == []
        assert inboxes["c"] == ["y"]

    def test_loss_fn_bad_probability_raises(self):
        simulator = Simulator()
        network = _lossy_network(simulator, loss_fn=lambda now, s, d: 1.5, rng=self.rng())
        network.register("a", lambda s, m: None)
        network.register("b", lambda s, m: None)
        with pytest.raises(ConfigurationError):
            network.send("a", "b", "x")

    def test_loss_requires_rng(self):
        with pytest.raises(ConfigurationError):
            _lossy_network(Simulator(), loss_probability=0.5)
        with pytest.raises(ConfigurationError):
            _lossy_network(Simulator(), loss_fn=lambda now, s, d: 0.0)

    def test_loss_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            _lossy_network(Simulator(), loss_probability=1.1, rng=self.rng())
        with pytest.raises(ConfigurationError):
            _lossy_network(Simulator(), loss_probability=-0.1, rng=self.rng())

    def test_nan_default_delay_rejected(self):
        """Regression: a NaN default delay used to construct and fail
        only at the first ``send``, in the kernel."""
        with pytest.raises(ConfigurationError, match="default_delay"):
            Network(Simulator(), default_delay=float("nan"))

    @pytest.mark.parametrize("delay", ["x", None, True, float("inf")])
    def test_non_numeric_default_delay_rejected(self, delay):
        """Regression: a string delay escaped as a raw ``TypeError``."""
        with pytest.raises(ConfigurationError, match="default_delay"):
            Network(Simulator(), default_delay=delay)

    def test_reset_checks_the_loss_model_like_the_constructor(self):
        """The batched engine changes the loss model between
        replications; ``reset`` checks it as the constructor does."""
        network = Network(Simulator())
        network.loss_probability = float("nan")
        with pytest.raises(ConfigurationError, match="loss_probability"):
            network.reset(rng=self.rng())
        network.loss_probability = 0.2
        with pytest.raises(ConfigurationError, match="generator"):
            network.reset()
        network.loss_probability, network.loss_fn = 0.0, lambda now, s, d: 0.0
        with pytest.raises(ConfigurationError, match="generator"):
            network.reset()
        network.reset(rng=self.rng())


class TestDeliveryTimerTieBreak:
    """Deliveries are scheduled with ``priority=-1`` so a message
    arriving exactly at a protocol timer's deadline is processed first
    (the ``desim/kernel.py`` contract the done-timeout relies on)."""

    def test_delivery_beats_timer_at_equal_timestamp(self, net):
        simulator, network, inboxes = net
        order = []
        network.register("c", lambda s, m: order.append("delivery"))
        simulator.schedule(0.5, lambda: order.append("timer"))
        network.send("a", "c", "x")  # default delay 0.5: same timestamp
        simulator.run()
        assert order == ["delivery", "timer"]

    def test_timer_failing_node_at_delivery_time_loses_the_race(self, net):
        """A fault injected by a timer at exactly the delivery time
        takes effect only after the delivery: the message gets through."""
        simulator, network, inboxes = net
        simulator.schedule(0.5, network.fail, "b")
        network.send("a", "b", "x")
        simulator.run()
        assert inboxes["b"] == [("a", "x")]
        assert network.is_failed("b")

"""Message-passing network over the DES kernel.

Models the paper's inter-satellite crosslinks and the satellite-to-
ground downlink: point-to-point messages with a configurable delivery
delay (the paper's ``delta`` is the *maximum* inter-satellite delay;
messages are delivered in exactly ``delta``),
**fail-silent** nodes -- a failed node neither sends nor receives,
with no error signalled to peers, which is precisely the failure mode
the OAQ "coordination done" timeout protects against -- and optional
i.i.d. **message loss** for fault-injection studies (a lost message
vanishes silently in flight).

Loss comes in two flavours: a scalar ``loss_probability`` applied to
every message, and a ``loss_fn`` hook evaluated per message as
``loss_fn(now, source, destination) -> probability`` -- the mechanism
a fault schedule's per-link loss rates and downlink blackout windows
use.  Both are attributes (off by default), set between replications
and checked by :meth:`Network.reset`.  A probability of ``1.0`` is a
total blackout: every matching message is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.desim.kernel import Simulator
from repro.errors import ConfigurationError, ProtocolError, require_finite

__all__ = ["MessageRecord", "Network"]

Handler = Callable[[str, object], None]

#: Per-message loss hook: ``(now, source, destination) -> probability``.
LossFn = Callable[[float, str, str], float]


@dataclass(frozen=True)
class MessageRecord:
    """Log entry for one message (delivered or dropped)."""

    time_sent: float
    time_delivered: Optional[float]
    source: str
    destination: str
    message: object

    @property
    def dropped(self) -> bool:
        """Whether the message never reached its destination."""
        return self.time_delivered is None


class Network:
    """Point-to-point message transport with fail-silent nodes.

    Parameters
    ----------
    simulator:
        The DES kernel carrying the delivery events.
    default_delay:
        Delivery latency applied when ``send`` gets no explicit delay
        (the protocol passes the paper's ``delta``).
    """

    def __init__(
        self,
        simulator: Simulator,
        *,
        default_delay: float = 0.0,
    ):
        require_finite("default_delay", default_delay, 0)
        self.simulator = simulator
        self.default_delay = default_delay
        self.loss_probability = 0.0
        self.loss_fn: Optional[LossFn] = None
        self._handlers: Dict[str, Handler] = {}
        self._failed: set = set()
        #: When False, :class:`MessageRecord` entries are not appended
        #: to :attr:`log` -- a throughput knob for batched Monte-Carlo
        #: replication, where nothing reads the log.  Delivery and loss
        #: semantics (including the random stream) are unaffected.
        self.record_log = True
        self.reset()

    def reset(self, *, rng=None) -> None:
        """Clear all mutable transport state -- the message log and the
        fail-silent set -- while keeping the registered handlers, and
        install the generator for the next replication's loss draws.
        Used by the batched replication engine to reuse one network
        across scenario replications, which sets ``loss_probability``
        and ``loss_fn`` per replication: they are checked here."""
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1], got {self.loss_probability}"
            )
        if (self.loss_probability > 0.0 or self.loss_fn is not None) and rng is None:
            raise ConfigurationError(
                "a random generator is required when messages can be lost"
            )
        self._rng = rng
        self._failed.clear()
        self.log: List[MessageRecord] = []

    def register(self, name: str, handler: Handler) -> None:
        """Attach a node: ``handler(source, message)`` is invoked on
        each delivery."""
        if name in self._handlers:
            raise ConfigurationError(f"node {name!r} is already registered")
        self._handlers[name] = handler

    def fail(self, name: str) -> None:
        """Make a node fail-silent from now on."""
        if name not in self._handlers:
            raise ConfigurationError(f"unknown node {name!r}")
        self._failed.add(name)

    def is_failed(self, name: str) -> bool:
        """Whether the node is currently fail-silent."""
        return name in self._failed

    def send(
        self,
        source: str,
        destination: str,
        message: object,
        *,
        delay: Optional[float] = None,
    ) -> None:
        """Send ``message``; it is silently dropped when either endpoint
        is fail-silent (the sender never learns -- that is the point of
        fail-silence)."""
        if source not in self._handlers:
            # A typo'd source would otherwise bypass the fail-silence
            # check forever (``_failed`` is keyed by registered names).
            raise ProtocolError(f"message from unknown node {source!r}")
        if destination not in self._handlers:
            raise ProtocolError(f"message to unknown node {destination!r}")
        if delay is None:
            delay = self.default_delay
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        sent_at = self.simulator.now
        if source in self._failed:
            if self.record_log:
                self.log.append(
                    MessageRecord(sent_at, None, source, destination, message)
                )
            return
        if (
            self.loss_probability > 0.0 or self.loss_fn is not None
        ) and self._lost(sent_at, source, destination):
            # Crosslink corruption/erasure: the message vanishes in
            # flight, silently (the sender cannot tell).
            if self.record_log:
                self.log.append(
                    MessageRecord(sent_at, None, source, destination, message)
                )
            return
        # Deliveries outrank timers at equal timestamps: a notification
        # arriving exactly at a protocol timeout is processed first.
        self.simulator.schedule(
            delay,
            self._deliver,
            sent_at,
            source,
            destination,
            message,
            priority=-1,
        )

    def _lost(self, now: float, source: str, destination: str) -> bool:
        """Whether this message is lost in flight.  The scalar
        ``loss_probability`` and the per-message ``loss_fn`` act as
        independent erasure channels; a probability of 1.0 drops the
        message deterministically (no random draw), so blackout windows
        do not perturb the random stream of the surviving traffic."""
        probability = self.loss_probability
        if self.loss_fn is not None:
            extra = self.loss_fn(now, source, destination)
            if not 0.0 <= extra <= 1.0:
                raise ConfigurationError(
                    f"loss_fn returned {extra!r} for {source!r}->"
                    f"{destination!r}; probabilities must be in [0, 1]"
                )
            probability = 1.0 - (1.0 - probability) * (1.0 - extra)
        if probability >= 1.0:
            return True
        return probability > 0.0 and self._rng.random() < probability

    def _deliver(
        self, sent_at: float, source: str, destination: str, message: object
    ) -> None:
        if destination in self._failed:
            if self.record_log:
                self.log.append(
                    MessageRecord(sent_at, None, source, destination, message)
                )
            return
        if self.record_log:
            self.log.append(
                MessageRecord(
                    sent_at, self.simulator.now, source, destination, message
                )
            )
        self._handlers[destination](source, message)

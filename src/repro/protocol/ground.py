"""Ground station: the alert-message sink.

Collects :class:`~repro.protocol.messages.AlertMessage` deliveries and
adjudicates the scenario outcome: the *official* result for a signal is
the first alert **sent** (the paper's deadline constrains send time);
later alerts for the same signal are retained as duplicates -- they can
occur in rare races between a predecessor's timeout and a successor's
completion, and the tests assert they stay rare and consistent.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.desim.network import Network
from repro.errors import ProtocolError
from repro.protocol.messages import AlertMessage

__all__ = ["GroundStation"]


class GroundStation:
    """Receives alerts and reports per-signal outcomes."""

    def __init__(self, network: Network):
        self.name = "ground"
        self._alerts: Dict[str, List[AlertMessage]] = {}
        #: True once any alert has been delivered (cheap early-stop
        #: signal for the batched replication engine: with a constant
        #: downlink delay the first alert *delivered* is the first one
        #: *sent*, i.e. the official alert, so a level-only run can end
        #: here).
        self.alert_received = False
        network.register(self.name, self._on_message)

    def reset(self) -> None:
        """Forget all collected alerts (the network registration is
        kept).  Used by the batched replication engine to reuse one
        ground station across scenario replications."""
        self._alerts.clear()
        self.alert_received = False

    def _on_message(self, source: str, message: object) -> None:
        if not isinstance(message, AlertMessage):
            raise ProtocolError(
                f"ground station received a non-alert message {message!r}"
            )
        self._alerts.setdefault(message.signal_id, []).append(message)
        self.alert_received = True

    def alerts(self, signal_id: str) -> List[AlertMessage]:
        """All alerts received for a signal, in delivery order."""
        return list(self._alerts.get(signal_id, []))

    def official(self, signal_id: str) -> Optional[AlertMessage]:
        """The first-sent alert for a signal, or None."""
        alerts = self._alerts.get(signal_id)
        if not alerts:
            return None
        return min(alerts, key=lambda alert: alert.sent_at)

    def duplicates(self, signal_id: str) -> int:
        """Number of redundant alerts beyond the official one."""
        return max(0, len(self._alerts.get(signal_id, ())) - 1)

    def achieved_level(self, signal_id: str, deadline: float) -> int:
        """The paper's QoS level achieved for a signal: the official
        alert's level if it was sent within ``deadline`` minutes of the
        initial detection, level 0 otherwise."""
        official = self.official(signal_id)
        if official is None:
            return 0
        if official.latency > deadline + 1e-9:
            return 0
        return official.estimate.qos_level

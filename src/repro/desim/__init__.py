"""Discrete-event simulation kernel with message passing (substrate
for the OAQ protocol simulation)."""

from repro.desim.kernel import Event, Simulator
from repro.desim.network import MessageRecord, Network

__all__ = ["Event", "MessageRecord", "Network", "Simulator"]

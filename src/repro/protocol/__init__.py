"""The OAQ coordination protocol (paper Section 3): satellite state
machines, crosslink messages, ground station, the signal model and the
fixed geolocation-accuracy model of
:mod:`repro.protocol.accuracy_model`.
:class:`repro.simulation.batch.ScenarioTemplate` drives them through a
scenario."""

from repro.protocol.ground import GroundStation
from repro.protocol.messages import (
    AlertMessage,
    CoordinationDone,
    CoordinationRequest,
    GeolocationEstimate,
)
from repro.protocol.satellite import MessagingVariant, OAQSatellite
from repro.protocol.signal import Signal

__all__ = [
    "AlertMessage",
    "CoordinationDone",
    "CoordinationRequest",
    "GeolocationEstimate",
    "GroundStation",
    "MessagingVariant",
    "OAQSatellite",
    "Signal",
]

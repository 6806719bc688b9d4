"""The OAQ coordination protocol (paper Section 3): satellite state
machines, crosslink messages, ground station, the signal model and the
pluggable geolocation-accuracy model (:class:`GeometricAccuracyModel`
by default).  :class:`repro.simulation.batch.ScenarioTemplate` drives
them through a scenario."""

from repro.protocol.accuracy_model import AccuracyModel, GeometricAccuracyModel
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
    "AccuracyModel",
    "AlertMessage",
    "CoordinationDone",
    "CoordinationRequest",
    "GeolocationEstimate",
    "GeometricAccuracyModel",
    "GroundStation",
    "MessagingVariant",
    "OAQSatellite",
    "Signal",
]

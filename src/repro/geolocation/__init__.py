"""Emitter geolocation substrate: measurement models, iterative
weighted-least-squares estimation, and sequential localization
(the machinery behind the paper's QoS levels; references [4, 5]).
"""

from repro.geolocation.measurements import (
    SPEED_OF_LIGHT_KM_S,
    Emitter,
    Measurement,
    MeasurementGenerator,
    range_km,
    range_rate_km_s,
    received_frequency_hz,
)
from repro.geolocation.sequential import PassRecord, SequentialLocalizer
from repro.geolocation.wls import GeolocationResult, WLSEstimator

__all__ = [
    "SPEED_OF_LIGHT_KM_S",
    "Emitter",
    "GeolocationResult",
    "Measurement",
    "MeasurementGenerator",
    "PassRecord",
    "SequentialLocalizer",
    "WLSEstimator",
    "range_km",
    "range_rate_km_s",
    "received_frequency_hz",
]

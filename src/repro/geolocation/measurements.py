"""RF measurement models for emitter geolocation.

The paper's constellation locates radio-frequency emitters from
satellite measurements.  Following the sequential-localization
literature it cites (Levanon 1998; Chan & Towers 1992), the primary
observable is the **Doppler-shifted received frequency**: a LEO
satellite moving at ~7.7 km/s sees the emitter's carrier shifted by up
to ~25 kHz (at 900 MHz), with a characteristic S-curve as it passes by;
the curve's shape encodes the emitter's position.  A time-of-arrival
(range) :class:`Measurement` is part of the data model the estimator
reads; the generator produces Doppler measurements only.

All measurement geometry is computed in the Earth-fixed frame, where
the emitter is static; satellite ECEF velocity therefore includes the
frame-rotation term ``-omega x r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, check_fields
from repro.orbits.bodies import EARTH
from repro.orbits.constellation import Satellite
from repro.orbits.frames import GeodeticPoint, eci_to_ecef, geodetic_to_ecef

__all__ = [
    "SPEED_OF_LIGHT_KM_S",
    "Emitter",
    "Measurement",
    "range_rate_km_s",
    "received_frequency_hz",
    "range_km",
    "MeasurementGenerator",
]

#: Speed of light in km/s.
SPEED_OF_LIGHT_KM_S = 299_792.458


@dataclass(frozen=True)
class Emitter:
    """A ground RF emitter (the "signal" of the paper).

    Attributes
    ----------
    location:
        Geodetic position (the estimation target).
    frequency_hz:
        Transmitted carrier frequency (e.g. 900 MHz for the cellular
        handsets of the paper's figures).
    name:
        Identifier used in scenario logs.
    """

    location: GeodeticPoint
    frequency_hz: float = 900.0e6
    name: str = "emitter"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.frequency_hz <= 0:
            raise ConfigurationError(
                f"frequency_hz must be positive, got {self.frequency_hz}"
            )

    def position_ecef(self) -> np.ndarray:
        """Earth-fixed position (km)."""
        return geodetic_to_ecef(self.location)


@dataclass(frozen=True)
class Measurement:
    """One sensor observation of the emitter by one satellite.

    Attributes
    ----------
    kind:
        ``"doppler"`` (received frequency, Hz) or ``"range"`` (km).
    time_s:
        Observation time.
    satellite_position_ecef / satellite_velocity_ecef:
        Observer state in the Earth-fixed frame (km, km/s).
    value:
        The observed quantity (Hz or km) including noise.
    sigma:
        Measurement standard deviation in the same unit.
    satellite_name:
        Which satellite produced the measurement (drives the
        per-satellite accounting of sequential localization).
    """

    kind: str
    time_s: float
    satellite_position_ecef: np.ndarray
    satellite_velocity_ecef: np.ndarray
    value: float
    sigma: float
    satellite_name: str = ""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in ("doppler", "range"):
            raise ConfigurationError(f"unknown measurement kind {self.kind!r}")
        if self.sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")


def _ecef_velocity(satellite: Satellite, time_s: float) -> np.ndarray:
    """Satellite velocity in the rotating Earth-fixed frame."""
    position_ecef = satellite.position_ecef(time_s)
    velocity_inertial_in_ecef = eci_to_ecef(
        satellite.velocity_eci(time_s), time_s
    )
    omega = np.array([0.0, 0.0, EARTH.rotation_rate_rad_s])
    return velocity_inertial_in_ecef - np.cross(omega, position_ecef)


def range_km(satellite_position_ecef: np.ndarray, emitter_ecef: np.ndarray) -> float:
    """Slant range satellite -> emitter (km)."""
    return float(np.linalg.norm(np.asarray(satellite_position_ecef) - emitter_ecef))


def range_rate_km_s(
    satellite_position_ecef: np.ndarray,
    satellite_velocity_ecef: np.ndarray,
    emitter_ecef: np.ndarray,
) -> float:
    """Range rate (km/s): positive when the satellite recedes."""
    offset = np.asarray(satellite_position_ecef) - np.asarray(emitter_ecef)
    distance = float(np.linalg.norm(offset))
    if distance == 0.0:
        raise ConfigurationError("range rate undefined at zero range")
    return float(np.dot(offset, satellite_velocity_ecef)) / distance

def received_frequency_hz(
    satellite_position_ecef: np.ndarray,
    satellite_velocity_ecef: np.ndarray,
    emitter_ecef: np.ndarray,
    transmitted_hz: float,
) -> float:
    """Doppler-shifted frequency observed by the satellite (Hz)."""
    rate = range_rate_km_s(
        satellite_position_ecef, satellite_velocity_ecef, emitter_ecef
    )
    return transmitted_hz * (1.0 - rate / SPEED_OF_LIGHT_KM_S)


class MeasurementGenerator:
    """Generates noisy measurements of an emitter from satellite passes.

    Parameters
    ----------
    emitter:
        The (true) emitter being observed.
    doppler_sigma_hz:
        Frequency-measurement noise (1-sigma).
    footprint_half_angle:
        When given, measurements are only produced while the emitter is
        inside the satellite's footprint (Earth-central angle test).
    """

    def __init__(
        self,
        emitter: Emitter,
        *,
        doppler_sigma_hz: float = 5.0,
        footprint_half_angle: Optional[float] = None,
    ):
        if doppler_sigma_hz <= 0:
            raise ConfigurationError(
                f"doppler_sigma_hz must be positive, got {doppler_sigma_hz}"
            )
        self.emitter = emitter
        self.doppler_sigma_hz = doppler_sigma_hz
        self.footprint_half_angle = footprint_half_angle
        self._emitter_ecef = emitter.position_ecef()

    def visible(self, satellite: Satellite, time_s: float) -> bool:
        """Whether the emitter is inside the satellite's footprint (or
        always, if no footprint was configured)."""
        if self.footprint_half_angle is None:
            return True
        position = satellite.position_ecef(time_s)
        offset_angle = math.acos(
            max(
                -1.0,
                min(
                    1.0,
                    float(
                        np.dot(position, self._emitter_ecef)
                        / (
                            np.linalg.norm(position)
                            * np.linalg.norm(self._emitter_ecef)
                        )
                    ),
                ),
            )
        )
        return offset_angle <= self.footprint_half_angle

    def observe(
        self,
        satellite: Satellite,
        times_s: Sequence[float],
        rng: np.random.Generator,
    ) -> List[Measurement]:
        """Noisy Doppler measurements at the visible subset of
        ``times_s``."""
        measurements = []
        for time_s in times_s:
            if not self.visible(satellite, float(time_s)):
                continue
            position = satellite.position_ecef(float(time_s))
            velocity = _ecef_velocity(satellite, float(time_s))
            truth = received_frequency_hz(
                position, velocity, self._emitter_ecef, self.emitter.frequency_hz
            )
            sigma = self.doppler_sigma_hz
            measurements.append(
                Measurement(
                    kind="doppler",
                    time_s=float(time_s),
                    satellite_position_ecef=position,
                    satellite_velocity_ecef=velocity,
                    value=truth + rng.normal(0.0, sigma),
                    sigma=sigma,
                    satellite_name=satellite.name,
                )
            )
        return measurements

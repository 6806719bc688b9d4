"""Satellite footprints: the area on the Earth covered by a satellite.

The paper characterises a footprint by its **coverage time** ``Tc`` --
the maximum time a ground location stays inside it (9 minutes for the
reference constellation, whose orbit period is 90 minutes).  For a
circular orbit that translates into a footprint *half-angle* ``psi``
(the Earth-central angle between the sub-satellite point and the
footprint edge):

``Tc = 2 psi / omega_track``  with ``omega_track = 2 pi / T``

(approximating the ground-track rate by the orbital rate; Earth
rotation is second-order for near-polar LEO planes and is handled by
the full simulation, not this calibration).  Hence the reference
constellation's ``psi = pi * Tc / T = pi * 9 / 90 = 18 degrees``.

The half-angle also follows from antenna geometry: given a minimum
elevation angle ``eps`` at the edge of coverage,

``psi = acos( R/(R+h) * cos(eps) ) - eps``.

Both derivations are provided so the reference constellation can be
built either from the paper's published ``Tc`` or from hardware-style
parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, check_fields
from repro.orbits.bodies import EARTH, Body
from repro.orbits.frames import GeodeticPoint, central_angle, geodetic_to_ecef

__all__ = [
    "Footprint",
    "half_angle_from_elevation",
    "elevation_from_half_angle",
    "half_angle_for_coverage_time",
    "coverage_time_minutes",
]


def half_angle_from_elevation(
    altitude_km: float, min_elevation: float, body: Body = EARTH
) -> float:
    """Footprint half-angle ``psi`` for a satellite at ``altitude_km``
    whose coverage edge is at elevation ``min_elevation`` (radians)."""
    if altitude_km <= 0:
        raise ConfigurationError(f"altitude_km must be positive, got {altitude_km}")
    if not 0.0 <= min_elevation < math.pi / 2:
        raise ConfigurationError(
            f"min_elevation must be in [0, pi/2), got {min_elevation}"
        )
    ratio = body.radius_km / (body.radius_km + altitude_km)
    return math.acos(ratio * math.cos(min_elevation)) - min_elevation


def elevation_from_half_angle(
    altitude_km: float, half_angle: float, body: Body = EARTH
) -> float:
    """Edge-of-coverage elevation angle for a footprint half-angle
    ``psi`` (inverse of :func:`half_angle_from_elevation`)."""
    if altitude_km <= 0:
        raise ConfigurationError(f"altitude_km must be positive, got {altitude_km}")
    horizon = math.acos(body.radius_km / (body.radius_km + altitude_km))
    if not 0.0 < half_angle <= horizon:
        raise ConfigurationError(
            f"half_angle must be in (0, {horizon:.4f}] for altitude "
            f"{altitude_km} km, got {half_angle}"
        )
    r = body.radius_km
    h = altitude_km
    # tan(eps) = (cos(psi) - r/(r+h)) / sin(psi)
    return math.atan2(math.cos(half_angle) - r / (r + h), math.sin(half_angle))


def half_angle_for_coverage_time(
    orbit_period_minutes: float, coverage_time_minutes_: float
) -> float:
    """Half-angle ``psi`` giving the requested coverage time:
    ``psi = pi * Tc / T``."""
    if not 0 < coverage_time_minutes_ < orbit_period_minutes:
        raise ConfigurationError(
            "coverage time must be positive and below the orbit period, got "
            f"Tc={coverage_time_minutes_}, T={orbit_period_minutes}"
        )
    return math.pi * coverage_time_minutes_ / orbit_period_minutes


def coverage_time_minutes(orbit_period_minutes: float, half_angle: float) -> float:
    """Coverage time implied by a half-angle (inverse of
    :func:`half_angle_for_coverage_time`)."""
    if half_angle <= 0:
        raise ConfigurationError(f"half_angle must be positive, got {half_angle}")
    return half_angle * orbit_period_minutes / math.pi


@dataclass(frozen=True)
class Footprint:
    """A conical footprint with Earth-central half-angle ``psi``."""

    half_angle: float

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.half_angle < math.pi / 2:
            raise ConfigurationError(
                f"half_angle must be in (0, pi/2), got {self.half_angle}"
            )

    @classmethod
    def reference(cls) -> "Footprint":
        """Footprint of the paper's reference constellation
        (``Tc = 9`` min on a 90-minute orbit => 18 degrees)."""
        return cls(half_angle=half_angle_for_coverage_time(90.0, 9.0))

    @property
    def radius_km(self) -> float:
        """Footprint radius measured along the surface (km)."""
        return EARTH.radius_km * self.half_angle

    def covers(
        self,
        satellite_ecef: np.ndarray,
        ground_point: GeodeticPoint,
        body: Body = EARTH,
    ) -> bool:
        """Whether the ground point lies inside the footprint of a
        satellite at ``satellite_ecef``."""
        ground = geodetic_to_ecef(ground_point, body)
        return central_angle(satellite_ecef, ground) <= self.half_angle

    def covers_angle(self, angle: float) -> bool:
        """Whether a pre-computed Earth-central angle is inside the
        footprint (vector-free fast path for sweeps)."""
        return angle <= self.half_angle

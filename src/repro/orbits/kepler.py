"""Orbit propagation: circular orbits (the constellation's workhorse)
and general Keplerian orbits (completeness; eccentric transfer orbits
for ground-spare delivery scenarios).

Conventions: distances km, times seconds, angles radians.  ECI frame;
see :mod:`repro.orbits.frames` for the rotation to Earth-fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError, SolverError, check_fields
from repro.orbits.bodies import EARTH, Body
from repro.orbits.frames import rotation_x, rotation_z

__all__ = ["CircularOrbit", "KeplerianOrbit", "solve_kepler"]


@dataclass(frozen=True)
class CircularOrbit:
    """A circular orbit defined by altitude, inclination, RAAN and the
    argument of latitude at the epoch.

    Attributes
    ----------
    altitude_km:
        Height above the body's mean radius.
    inclination:
        Orbital inclination (radians).
    raan:
        Right ascension of the ascending node (radians).
    phase:
        Argument of latitude at ``t = 0`` (radians) -- the satellite's
        angular position along the orbit, measured from the ascending
        node.
    """

    altitude_km: float
    inclination: float
    raan: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.altitude_km <= 0:
            raise ConfigurationError(
                f"altitude_km must be positive, got {self.altitude_km}"
            )

    @classmethod
    def from_period(
        cls,
        period_s: float,
        inclination: float,
        raan: float = 0.0,
        phase: float = 0.0,
        body: Body = EARTH,
    ) -> "CircularOrbit":
        """Circular orbit with the given Keplerian period (e.g. the
        reference constellation's 90 minutes)."""
        semi_major = body.semi_major_axis_km(period_s)
        return cls(
            altitude_km=semi_major - body.radius_km,
            inclination=inclination,
            raan=raan,
            phase=phase,
        )

    def radius_km(self, body: Body = EARTH) -> float:
        """Orbital radius (km)."""
        return body.radius_km + self.altitude_km

    def period_s(self, body: Body = EARTH) -> float:
        """Orbital period (s)."""
        return body.period_s(self.radius_km(body))

    def mean_motion(self, body: Body = EARTH) -> float:
        """Angular rate along the orbit (rad/s)."""
        return 2.0 * math.pi / self.period_s(body)

    def _plane_rotation(self) -> np.ndarray:
        return rotation_z(self.raan) @ rotation_x(self.inclination)

    def argument_of_latitude(self, time_s: float, body: Body = EARTH) -> float:
        """Argument of latitude at ``time_s``."""
        return self.phase + self.mean_motion(body) * time_s

    def position_eci(self, time_s: float, body: Body = EARTH) -> np.ndarray:
        """ECI position at ``time_s`` (km)."""
        u = self.argument_of_latitude(time_s, body)
        r = self.radius_km(body)
        in_plane = np.array([r * math.cos(u), r * math.sin(u), 0.0])
        return self._plane_rotation() @ in_plane

    def velocity_eci(self, time_s: float, body: Body = EARTH) -> np.ndarray:
        """ECI velocity at ``time_s`` (km/s)."""
        u = self.argument_of_latitude(time_s, body)
        speed = body.circular_speed_km_s(self.radius_km(body))
        in_plane = np.array([-speed * math.sin(u), speed * math.cos(u), 0.0])
        return self._plane_rotation() @ in_plane

    def with_phase(self, phase: float) -> "CircularOrbit":
        """Copy with a different epoch phase (used by plane rephasing)."""
        return replace(self, phase=phase)


def solve_kepler(mean_anomaly: float, eccentricity: float, *, tolerance: float = 1e-12) -> float:
    """Solve Kepler's equation ``M = E - e sin E`` for the eccentric
    anomaly by bracketed Newton iteration.

    ``f(E) = E - e sin E - M`` is strictly increasing (``f' >= 1 - e >
    0``), so the root on ``[0, 2 pi]`` is unique; any Newton step that
    leaves the bracket is replaced by its midpoint, which makes the
    iteration unconditionally convergent even at high eccentricity
    (plain Newton from ``E = pi`` oscillates for e.g. ``M = -4``,
    ``e = 0.94``).  Negative mean anomalies solve by oddness:
    ``E(-M) = -E(M)``.
    """
    if not 0.0 <= eccentricity < 1.0:
        raise ConfigurationError(
            f"eccentricity must be in [0, 1) for elliptic orbits, got {eccentricity}"
        )
    m = math.fmod(mean_anomaly, 2.0 * math.pi)
    sign = -1.0 if m < 0.0 else 1.0
    m_abs = abs(m)
    low, high = 0.0, 2.0 * math.pi
    e_anom = m_abs if eccentricity < 0.8 else math.pi
    for _ in range(120):
        residual = e_anom - eccentricity * math.sin(e_anom) - m_abs
        delta = residual / (1.0 - eccentricity * math.cos(e_anom))
        if abs(delta) < tolerance:
            return sign * (e_anom - delta)
        if residual > 0.0:
            high = e_anom
        else:
            low = e_anom
        e_anom -= delta
        if not low < e_anom < high:
            e_anom = 0.5 * (low + high)
    raise SolverError(
        f"Kepler iteration failed for M={mean_anomaly}, e={eccentricity}"
    )


@dataclass(frozen=True)
class KeplerianOrbit:
    """A general elliptic orbit in classical elements.

    Attributes: semi-major axis (km), eccentricity, inclination, RAAN,
    argument of perigee, mean anomaly at epoch (radians).
    """

    semi_major_axis_km: float
    eccentricity: float
    inclination: float
    raan: float = 0.0
    argument_of_perigee: float = 0.0
    mean_anomaly_epoch: float = 0.0

    def __post_init__(self) -> None:
        if self.semi_major_axis_km <= 0:
            raise ConfigurationError(
                f"semi_major_axis_km must be positive, got {self.semi_major_axis_km}"
            )
        if not 0.0 <= self.eccentricity < 1.0:
            raise ConfigurationError(
                f"eccentricity must be in [0, 1), got {self.eccentricity}"
            )

    def period_s(self, body: Body = EARTH) -> float:
        """Orbital period (s)."""
        return body.period_s(self.semi_major_axis_km)

    def mean_motion(self, body: Body = EARTH) -> float:
        """Mean motion (rad/s)."""
        return 2.0 * math.pi / self.period_s(body)

    def _state_perifocal(self, time_s: float, body: Body) -> "tuple[np.ndarray, np.ndarray]":
        mean_anomaly = self.mean_anomaly_epoch + self.mean_motion(body) * time_s
        ecc_anomaly = solve_kepler(mean_anomaly, self.eccentricity)
        a, e = self.semi_major_axis_km, self.eccentricity
        cos_e, sin_e = math.cos(ecc_anomaly), math.sin(ecc_anomaly)
        radius = a * (1.0 - e * cos_e)
        position = np.array(
            [a * (cos_e - e), a * math.sqrt(1.0 - e * e) * sin_e, 0.0]
        )
        # Vis-viva derived perifocal velocity.
        factor = math.sqrt(body.mu_km3_s2 * a) / radius
        velocity = np.array(
            [-factor * sin_e, factor * math.sqrt(1.0 - e * e) * cos_e, 0.0]
        )
        return position, velocity

    def _rotation(self) -> np.ndarray:
        return (
            rotation_z(self.raan)
            @ rotation_x(self.inclination)
            @ rotation_z(self.argument_of_perigee)
        )

    def position_eci(self, time_s: float, body: Body = EARTH) -> np.ndarray:
        """ECI position at ``time_s`` (km)."""
        position, _ = self._state_perifocal(time_s, body)
        return self._rotation() @ position

    def velocity_eci(self, time_s: float, body: Body = EARTH) -> np.ndarray:
        """ECI velocity at ``time_s`` (km/s)."""
        _, velocity = self._state_perifocal(time_s, body)
        return self._rotation() @ velocity

    @classmethod
    def from_circular(cls, orbit: CircularOrbit, body: Body = EARTH) -> "KeplerianOrbit":
        """Embed a circular orbit in the general representation."""
        return cls(
            semi_major_axis_km=orbit.radius_km(body),
            eccentricity=0.0,
            inclination=orbit.inclination,
            raan=orbit.raan,
            argument_of_perigee=0.0,
            mean_anomaly_epoch=orbit.phase,
        )

"""Constellation construction, degradation and rephasing.

Builds Walker-star style constellations such as the paper's reference
RF geolocation design: 7 orbital planes of 14 active micro-satellites
(plus 2 in-orbit spares each), 90-minute near-polar orbits, full Earth
coverage at 98 active satellites.

The key fault-tolerance behaviour from Section 2 is implemented by
:meth:`OrbitalPlane.fail_satellites`: when a plane loses satellites
after exhausting its spares, the survivors undergo a **phasing
adjustment** so they are evenly distributed in the plane again --
which is exactly what makes the plane geometry collapse to
:class:`~repro.geometry.plane.PlaneGeometry` with a smaller ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.orbits.bodies import EARTH
from repro.orbits.footprint import Footprint, half_angle_for_coverage_time
from repro.orbits.frames import eci_to_ecef
from repro.orbits.kepler import CircularOrbit

__all__ = ["Satellite", "OrbitalPlane", "Constellation", "build_reference_constellation"]


@dataclass(frozen=True)
class Satellite:
    """One satellite: an orbit plus identity and health."""

    name: str
    orbit: CircularOrbit
    plane_index: int
    slot_index: int
    is_spare: bool = False

    def position_eci(self, time_s: float) -> np.ndarray:
        """ECI position (km)."""
        return self.orbit.position_eci(time_s)

    def position_ecef(self, time_s: float) -> np.ndarray:
        """Earth-fixed position (km)."""
        return eci_to_ecef(self.orbit.position_eci(time_s), time_s)

    def velocity_eci(self, time_s: float) -> np.ndarray:
        """ECI velocity (km/s)."""
        return self.orbit.velocity_eci(time_s)


class OrbitalPlane:
    """A ring of evenly phased satellites sharing inclination and RAAN."""

    def __init__(
        self,
        plane_index: int,
        altitude_km: float,
        inclination: float,
        raan: float,
        active_count: int,
        spare_count: int = 0,
        *,
        phase_offset: float = 0.0,
    ):
        if active_count < 1:
            raise ConfigurationError(f"active_count must be >= 1, got {active_count}")
        if spare_count < 0:
            raise ConfigurationError(f"spare_count must be >= 0, got {spare_count}")
        self.plane_index = plane_index
        self.altitude_km = altitude_km
        self.inclination = inclination
        self.raan = raan
        self.phase_offset = phase_offset
        self.spare_count = spare_count
        self._active: List[Satellite] = []
        for slot in range(active_count):
            self._active.append(self._make_satellite(slot, active_count))

    def _make_satellite(self, slot: int, total: int) -> Satellite:
        phase = self.phase_offset + 2.0 * math.pi * slot / total
        orbit = CircularOrbit(
            altitude_km=self.altitude_km,
            inclination=self.inclination,
            raan=self.raan,
            phase=phase,
        )
        return Satellite(
            name=f"P{self.plane_index}-S{slot}",
            orbit=orbit,
            plane_index=self.plane_index,
            slot_index=slot,
        )

    @property
    def satellites(self) -> List[Satellite]:
        """Active satellites, evenly phased."""
        return list(self._active)

    @property
    def active_count(self) -> int:
        """Number of active satellites."""
        return len(self._active)

    def rephase(self) -> None:
        """Redistribute the surviving satellites evenly in the plane
        (Section 2's post-failure phasing adjustment)."""
        total = len(self._active)
        self._active = [self._make_satellite(slot, total) for slot in range(total)]

    def fail_satellites(self, count: int) -> int:
        """Remove ``count`` satellites, consuming in-orbit spares first.

        While spares remain the plane keeps its full geometry (a spare
        takes over the failed slot); once spares are exhausted the
        survivors are rephased.  Returns the resulting active count.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        for _ in range(count):
            if self.spare_count > 0:
                self.spare_count -= 1
                continue
            if not self._active:
                break
            self._active.pop()
            self.rephase()
        return self.active_count


class Constellation:
    """A set of orbital planes plus the common footprint."""

    def __init__(self, planes: Sequence[OrbitalPlane], footprint: Footprint):
        if not planes:
            raise ConfigurationError("a constellation needs at least one plane")
        self.planes = list(planes)
        self.footprint = footprint

    @property
    def satellites(self) -> List[Satellite]:
        """All active satellites across planes."""
        return [sat for plane in self.planes for sat in plane.satellites]


def build_reference_constellation() -> Constellation:
    """Build the paper's reference RF geolocation constellation.

    Seven near-polar (85 degree) planes of 14 active satellites and 2
    in-orbit spares, RAAN spread over 180 degrees (a Walker-star
    arrangement, appropriate for full Earth coverage), 90-minute
    circular orbits, and the footprint calibrated so a ground point on
    the track centre line is covered for ``Tc = 9`` minutes.
    Inter-plane phase staggering spreads coverage seams.
    """
    planes, active_per_plane, spares_per_plane = 7, 14, 2
    inclination = math.radians(85.0)
    period_s = 90.0 * 60.0
    altitude_km = EARTH.semi_major_axis_km(period_s) - EARTH.radius_km
    footprint = Footprint(half_angle_for_coverage_time(90.0, 9.0))
    plane_objects = []
    for p in range(planes):
        plane_objects.append(
            OrbitalPlane(
                plane_index=p,
                altitude_km=altitude_km,
                inclination=inclination,
                raan=math.pi * p / planes,
                active_count=active_per_plane,
                spare_count=spares_per_plane,
                phase_offset=math.pi * p / (planes * active_per_plane),
            )
        )
    return Constellation(plane_objects, footprint)

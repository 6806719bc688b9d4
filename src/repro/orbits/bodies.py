"""Central-body constants for orbital mechanics.

Only the Earth matters to the reproduction: every orbit, frame and
footprint function reads :data:`EARTH`, whose values follow WGS-84 /
EGM-96 conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Body", "EARTH"]


@dataclass(frozen=True)
class Body:
    """A central gravitating body.

    Attributes
    ----------
    name:
        Human-readable name.
    mu_km3_s2:
        Standard gravitational parameter ``GM`` in km^3/s^2.
    radius_km:
        Mean equatorial radius in km.
    rotation_rate_rad_s:
        Sidereal rotation rate in rad/s.
    """

    name: str
    mu_km3_s2: float
    radius_km: float
    rotation_rate_rad_s: float

    def circular_speed_km_s(self, radius_km: float) -> float:
        """Circular-orbit speed at the given orbital radius."""
        return math.sqrt(self.mu_km3_s2 / radius_km)

    def period_s(self, semi_major_axis_km: float) -> float:
        """Keplerian orbital period for the given semi-major axis."""
        return 2.0 * math.pi * math.sqrt(semi_major_axis_km**3 / self.mu_km3_s2)

    def semi_major_axis_km(self, period_s: float) -> float:
        """Semi-major axis for the given Keplerian period."""
        return (self.mu_km3_s2 * (period_s / (2.0 * math.pi)) ** 2) ** (1.0 / 3.0)


#: The Earth (WGS-84 gravitational parameter and radius).
EARTH = Body(
    name="Earth",
    mu_km3_s2=398600.4418,
    radius_km=6378.137,
    rotation_rate_rad_s=7.2921158553e-5,
)

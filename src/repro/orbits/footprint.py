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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, check_fields

__all__ = ["Footprint", "half_angle_for_coverage_time"]


def half_angle_for_coverage_time(
    orbit_period_minutes: float, coverage_time_minutes: float
) -> float:
    """Half-angle ``psi`` giving the requested coverage time:
    ``psi = pi * Tc / T``."""
    if not 0 < coverage_time_minutes < orbit_period_minutes:
        raise ConfigurationError(
            "coverage time must be positive and below the orbit period, got "
            f"Tc={coverage_time_minutes}, T={orbit_period_minutes}"
        )
    return math.pi * coverage_time_minutes / orbit_period_minutes


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

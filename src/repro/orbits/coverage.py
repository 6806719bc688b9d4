"""Coverage analytics over a constellation (the reproduction's
substitute for the SOAP interactive simulation the paper used).

Answers the coarse-grained questions Section 4.1 takes from SOAP:

* how long is a ground point covered by a single footprint
  (measured coverage time, to validate ``Tc = 9`` minutes);
* how often does the next satellite of a plane revisit a point
  (measured revisit time, to validate ``Tr[k] = theta / k``);
* what fraction of time is a point covered by overlapped footprints,
  as a function of latitude (lowest at the equator, highest at the
  poles; around 30 degrees the centre line of a trajectory is the
  worst case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.orbits.constellation import Constellation, OrbitalPlane, Satellite
from repro.orbits.frames import GeodeticPoint, central_angle, ecef_to_eci, geodetic_to_ecef

__all__ = [
    "CoverageSeries",
    "coverage_series",
    "measured_coverage_time_minutes",
    "measured_revisit_time_minutes",
    "latitude_overlap_profile",
]


@dataclass
class CoverageSeries:
    """Sampled coverage multiplicity at a ground point."""

    times_s: np.ndarray
    multiplicity: np.ndarray

    def fraction_at_least(self, count: int) -> float:
        """Fraction of samples covered by >= ``count`` footprints."""
        return float(np.mean(self.multiplicity >= count))


def coverage_series(
    constellation: Constellation,
    point: GeodeticPoint,
    duration_s: float,
    *,
    step_s: float = 10.0,
) -> CoverageSeries:
    """Sample the coverage multiplicity at ``point`` over a window.

    Vectorised over satellites per sample; for the reference
    constellation (98 satellites) a full orbit at 10 s resolution is a
    few tens of thousands of angle evaluations.
    """
    if duration_s <= 0 or step_s <= 0:
        raise ConfigurationError("duration_s and step_s must be positive")
    times = np.arange(0.0, duration_s, step_s)
    ground_ecef = geodetic_to_ecef(point)
    half_angle = constellation.footprint.half_angle
    counts = np.zeros(len(times), dtype=int)
    satellites = constellation.satellites
    for i, t in enumerate(times):
        ground_eci = ecef_to_eci(ground_ecef, float(t))
        ground_unit = ground_eci / np.linalg.norm(ground_eci)
        count = 0
        for satellite in satellites:
            sat = satellite.position_eci(float(t))
            cosine = float(np.dot(sat, ground_unit) / np.linalg.norm(sat))
            if math.acos(max(-1.0, min(1.0, cosine))) <= half_angle:
                count += 1
        counts[i] = count
    return CoverageSeries(times_s=times, multiplicity=counts)


def measured_coverage_time_minutes(
    plane: OrbitalPlane,
    footprint_half_angle: float,
    point: GeodeticPoint,
) -> float:
    """Maximum single-satellite dwell time over ``point`` for one
    satellite of ``plane`` (measures ``Tc``), sampled every 5 s.

    Earth rotation is frozen during the measurement (the paper's ``Tc``
    is the footprint "diameter in time units" along the track), so the
    result is directly comparable to ``Tc = psi T / pi``.
    """
    satellite = plane.satellites[0]
    period_s = satellite.orbit.period_s()
    ground = geodetic_to_ecef(point)  # frozen frame
    best = 0.0
    run = 0.0
    # Scan two periods so a pass straddling the period boundary is seen
    # as one contiguous dwell.
    step_s = 5.0
    for t in np.arange(0.0, 2.0 * period_s, step_s):
        sat = satellite.orbit.position_eci(float(t))
        if central_angle(sat, ground) <= footprint_half_angle:
            run += step_s
            best = max(best, run)
        else:
            run = 0.0
    return best / 60.0


def measured_revisit_time_minutes(
    plane: OrbitalPlane,
    point: GeodeticPoint,
) -> float:
    """Time between successive footprint-centre passes of adjacent
    satellites in ``plane`` over ``point`` (measures ``Tr[k]``),
    sampled every 2 s.

    Computed as the gap between closest-approach times of consecutive
    satellites, with the Earth frozen (matching the paper's definition
    of ``Tr`` as the "distance, measured in time units, between the two
    satellites").
    """
    if plane.active_count < 2:
        raise ConfigurationError("revisit time needs at least two satellites")
    ground = geodetic_to_ecef(point)
    period_s = plane.satellites[0].orbit.period_s()
    times = np.arange(0.0, period_s, 2.0)

    def closest_approach(satellite: Satellite) -> float:
        angles = [
            central_angle(satellite.orbit.position_eci(float(t)), ground)
            for t in times
        ]
        return float(times[int(np.argmin(angles))])

    first, second = plane.satellites[0], plane.satellites[1]
    gap = abs(closest_approach(first) - closest_approach(second))
    # The two satellites are adjacent: the gap is one revisit period,
    # modulo wrap-around at the orbit period.
    gap = min(gap, period_s - gap)
    return gap / 60.0


def latitude_overlap_profile(
    constellation: Constellation,
    latitudes_deg: Sequence[float],
    *,
    duration_s: float = 5400.0,
    step_s: float = 30.0,
) -> "dict[float, float]":
    """Fraction of time each latitude (at longitude 0) is covered by
    overlapped footprints (multiplicity >= 2).

    Reproduces the Section 4.1 observation that the overlapped-to-single
    coverage ratio is lowest at the equator and highest at the poles.
    """
    profile = {}
    for lat in latitudes_deg:
        point = GeodeticPoint.from_degrees(lat, 0.0)
        series = coverage_series(
            constellation, point, duration_s, step_s=step_s
        )
        profile[float(lat)] = series.fraction_at_least(2)
    return profile

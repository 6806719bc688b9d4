"""Orbital-mechanics substrate (the reproduction's SOAP substitute).

Circular/Keplerian propagation, frame conversions, footprint geometry,
Walker-style constellation construction with failure + rephasing, and
coverage analytics that validate the paper's coarse-grained constants
(``Tc = 9`` min, ``Tr[k] = theta/k``, latitude overlap profile).
"""

from repro.orbits.bodies import EARTH, Body
from repro.orbits.constellation import (
    Constellation,
    OrbitalPlane,
    Satellite,
    build_reference_constellation,
)
from repro.orbits.footprint import Footprint, half_angle_for_coverage_time
from repro.orbits.frames import (
    GeodeticPoint,
    central_angle,
    ecef_to_eci,
    ecef_to_geodetic,
    eci_to_ecef,
    geodetic_to_ecef,
    gmst_rad,
    great_circle_distance_km,
    subsatellite_point,
)
from repro.orbits.kepler import CircularOrbit, KeplerianOrbit, solve_kepler
from repro.orbits.coverage import (
    CoverageSeries,
    coverage_series,
    latitude_overlap_profile,
    measured_coverage_time_minutes,
    measured_revisit_time_minutes,
)

__all__ = [
    "EARTH",
    "Body",
    "CircularOrbit",
    "Constellation",
    "CoverageSeries",
    "Footprint",
    "GeodeticPoint",
    "KeplerianOrbit",
    "OrbitalPlane",
    "Satellite",
    "build_reference_constellation",
    "central_angle",
    "coverage_series",
    "ecef_to_eci",
    "ecef_to_geodetic",
    "eci_to_ecef",
    "geodetic_to_ecef",
    "gmst_rad",
    "great_circle_distance_km",
    "half_angle_for_coverage_time",
    "latitude_overlap_profile",
    "measured_coverage_time_minutes",
    "measured_revisit_time_minutes",
    "solve_kepler",
    "subsatellite_point",
]

"""Reference-frame conversions and spherical-earth geodesy.

The reproduction uses a simplified Earth model that matches the
fidelity of the paper's SOAP analysis:

* **ECI** -- Earth-centred inertial frame; orbits are propagated here.
* **ECEF** -- Earth-centred Earth-fixed frame, rotating at the sidereal
  rate; ground points live here.  The epoch is chosen so the frames
  coincide at ``t = 0``.
* **Geodetic** -- latitude/longitude/altitude on a *spherical* Earth
  (the constellation-coverage quantities the paper consumes are
  insensitive to oblateness).

All positions are kilometres, angles radians, times seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, check_fields
from repro.orbits.bodies import EARTH

__all__ = [
    "GeodeticPoint",
    "rotation_z",
    "rotation_x",
    "gmst_rad",
    "eci_to_ecef",
    "ecef_to_eci",
    "geodetic_to_ecef",
    "ecef_to_geodetic",
    "central_angle",
    "great_circle_distance_km",
    "subsatellite_point",
]

@dataclass(frozen=True)
class GeodeticPoint:
    """Latitude/longitude/altitude (radians, radians, km)."""

    latitude: float
    longitude: float
    altitude_km: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if not -math.pi / 2 - 1e-12 <= self.latitude <= math.pi / 2 + 1e-12:
            raise ConfigurationError(
                f"latitude {self.latitude} rad outside [-pi/2, pi/2]"
            )

    @classmethod
    def from_degrees(cls, latitude_deg: float, longitude_deg: float) -> "GeodeticPoint":
        """A surface point from degrees (user-facing convenience)."""
        return cls(
            latitude=math.radians(latitude_deg), longitude=math.radians(longitude_deg)
        )

    @property
    def latitude_deg(self) -> float:
        """Latitude in degrees."""
        return math.degrees(self.latitude)

    @property
    def longitude_deg(self) -> float:
        """Longitude in degrees, wrapped to (-180, 180]."""
        deg = math.degrees(self.longitude)
        while deg <= -180.0:
            deg += 360.0
        while deg > 180.0:
            deg -= 360.0
        return deg


def rotation_z(angle: float) -> np.ndarray:
    """Right-handed rotation matrix about the z axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_x(angle: float) -> np.ndarray:
    """Right-handed rotation matrix about the x axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def gmst_rad(time_s: float) -> float:
    """Rotation angle of the body-fixed frame at ``time_s`` (the frames
    are aligned at the epoch ``t = 0``)."""
    return math.fmod(EARTH.rotation_rate_rad_s * time_s, 2.0 * math.pi)


def eci_to_ecef(position_eci: np.ndarray, time_s: float) -> np.ndarray:
    """Rotate an ECI position into the Earth-fixed frame."""
    return rotation_z(-gmst_rad(time_s)) @ np.asarray(position_eci, float)


def ecef_to_eci(position_ecef: np.ndarray, time_s: float) -> np.ndarray:
    """Rotate an Earth-fixed position into the inertial frame."""
    return rotation_z(gmst_rad(time_s)) @ np.asarray(position_ecef, float)


def geodetic_to_ecef(point: GeodeticPoint) -> np.ndarray:
    """Spherical-earth geodetic -> ECEF position (km)."""
    radius = EARTH.radius_km + point.altitude_km
    cos_lat = math.cos(point.latitude)
    return np.array(
        [
            radius * cos_lat * math.cos(point.longitude),
            radius * cos_lat * math.sin(point.longitude),
            radius * math.sin(point.latitude),
        ]
    )


def ecef_to_geodetic(position_ecef: np.ndarray) -> GeodeticPoint:
    """ECEF position -> spherical-earth geodetic point."""
    x, y, z = (float(v) for v in position_ecef)
    radius = math.sqrt(x * x + y * y + z * z)
    if radius == 0.0:
        raise ConfigurationError("cannot convert the origin to geodetic coordinates")
    return GeodeticPoint(
        latitude=math.asin(z / radius),
        longitude=math.atan2(y, x),
        altitude_km=radius - EARTH.radius_km,
    )


def central_angle(point_a: np.ndarray, point_b: np.ndarray) -> float:
    """Angle subtended at the Earth's centre by two position vectors."""
    a = np.asarray(point_a, float)
    b = np.asarray(point_b, float)
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        raise ConfigurationError("central angle undefined for zero vectors")
    cosine = float(np.dot(a, b)) / denom
    return math.acos(max(-1.0, min(1.0, cosine)))


def great_circle_distance_km(
    point_a: GeodeticPoint, point_b: GeodeticPoint
) -> float:
    """Surface distance between two geodetic points (spherical earth,
    haversine formula -- numerically stable for nearby points)."""
    dlat = point_b.latitude - point_a.latitude
    dlon = point_b.longitude - point_a.longitude
    h = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(point_a.latitude)
        * math.cos(point_b.latitude)
        * math.sin(dlon / 2.0) ** 2
    )
    return 2.0 * EARTH.radius_km * math.asin(min(1.0, math.sqrt(h)))


def subsatellite_point(position_ecef: np.ndarray) -> GeodeticPoint:
    """The point on the surface directly beneath a satellite."""
    geodetic = ecef_to_geodetic(position_ecef)
    return GeodeticPoint(geodetic.latitude, geodetic.longitude, 0.0)

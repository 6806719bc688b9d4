"""Tests for repro.orbits.frames (frames and spherical geodesy)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.orbits.bodies import EARTH
from repro.orbits.frames import (
    GeodeticPoint,
    central_angle,
    ecef_to_eci,
    ecef_to_geodetic,
    eci_to_ecef,
    geodetic_to_ecef,
    great_circle_distance_km,
    rotation_x,
    rotation_z,
    subsatellite_point,
)


class TestGeodeticPoint:
    def test_from_degrees(self):
        point = GeodeticPoint.from_degrees(30.0, -120.0)
        assert point.latitude == pytest.approx(math.radians(30.0))
        assert point.longitude_deg == pytest.approx(-120.0)
        assert point.altitude_km == 0.0

    def test_longitude_wrapping(self):
        point = GeodeticPoint.from_degrees(0.0, 270.0)
        assert point.longitude_deg == pytest.approx(-90.0)

    def test_rejects_bad_latitude(self):
        with pytest.raises(ConfigurationError):
            GeodeticPoint(latitude=2.0, longitude=0.0)


class TestRotations:
    def test_rotation_matrices_orthonormal(self):
        for matrix in (rotation_z(0.7), rotation_x(-1.2)):
            assert np.allclose(matrix @ matrix.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(matrix) == pytest.approx(1.0)

    def test_rotation_z_quarter_turn(self):
        rotated = rotation_z(math.pi / 2) @ np.array([1.0, 0.0, 0.0])
        assert np.allclose(rotated, [0.0, 1.0, 0.0], atol=1e-12)


class TestFrameConversions:
    def test_eci_ecef_roundtrip(self):
        position = np.array([7000.0, -1500.0, 3000.0])
        t = 1234.5
        assert np.allclose(
            ecef_to_eci(eci_to_ecef(position, t), t), position, atol=1e-9
        )

    def test_frames_aligned_at_epoch(self):
        position = np.array([7000.0, 0.0, 0.0])
        assert np.allclose(eci_to_ecef(position, 0.0), position)

    def test_rotation_after_quarter_day(self):
        quarter_day = (math.pi / 2) / EARTH.rotation_rate_rad_s
        fixed = eci_to_ecef(np.array([7000.0, 0.0, 0.0]), quarter_day)
        # The Earth rotated 90 degrees east; the inertial point appears
        # 90 degrees west in the fixed frame.
        assert fixed[1] == pytest.approx(-7000.0, abs=1e-6)


class TestGeodesy:
    def test_geodetic_roundtrip(self):
        point = GeodeticPoint(math.radians(35.0), math.radians(-118.0), 120.0)
        recovered = ecef_to_geodetic(geodetic_to_ecef(point))
        assert recovered.latitude == pytest.approx(point.latitude, abs=1e-12)
        assert recovered.longitude == pytest.approx(point.longitude, abs=1e-12)
        assert recovered.altitude_km == pytest.approx(120.0, abs=1e-9)

    def test_equator_point(self):
        ecef = geodetic_to_ecef(GeodeticPoint.from_degrees(0.0, 0.0))
        assert np.allclose(ecef, [EARTH.radius_km, 0.0, 0.0])

    def test_north_pole(self):
        ecef = geodetic_to_ecef(GeodeticPoint.from_degrees(90.0, 45.0))
        assert ecef[2] == pytest.approx(EARTH.radius_km)
        assert math.hypot(ecef[0], ecef[1]) == pytest.approx(0.0, abs=1e-9)

    def test_origin_rejected(self):
        with pytest.raises(ConfigurationError):
            ecef_to_geodetic(np.zeros(3))


class TestDistances:
    def test_central_angle_orthogonal(self):
        assert central_angle([1, 0, 0], [0, 5, 0]) == pytest.approx(math.pi / 2)

    def test_central_angle_zero_vector_rejected(self):
        with pytest.raises(ConfigurationError):
            central_angle([0, 0, 0], [1, 0, 0])

    def test_quarter_circumference(self):
        a = GeodeticPoint.from_degrees(0.0, 0.0)
        b = GeodeticPoint.from_degrees(0.0, 90.0)
        expected = 0.5 * math.pi * EARTH.radius_km
        assert great_circle_distance_km(a, b) == pytest.approx(expected)

    def test_small_distance_accuracy(self):
        a = GeodeticPoint.from_degrees(30.0, 10.0)
        b = GeodeticPoint.from_degrees(30.0, 10.001)
        # 0.001 deg of longitude at 30N ~ 96.5 m.
        expected = math.radians(0.001) * EARTH.radius_km * math.cos(math.radians(30))
        assert great_circle_distance_km(a, b) == pytest.approx(expected, rel=1e-6)

    def test_subsatellite_point(self):
        point = subsatellite_point(np.array([7000.0, 0.0, 0.0]))
        assert point.latitude == 0.0
        assert point.altitude_km == 0.0


@settings(max_examples=50)
@given(
    lat=st.floats(min_value=-89.0, max_value=89.0),
    lon=st.floats(min_value=-179.0, max_value=179.0),
    alt=st.floats(min_value=0.0, max_value=2000.0),
)
def test_property_geodetic_roundtrip(lat, lon, alt):
    point = GeodeticPoint(math.radians(lat), math.radians(lon), alt)
    recovered = ecef_to_geodetic(geodetic_to_ecef(point))
    assert recovered.latitude == pytest.approx(point.latitude, abs=1e-9)
    assert recovered.longitude == pytest.approx(point.longitude, abs=1e-9)


@settings(max_examples=50)
@given(
    t=st.floats(min_value=0.0, max_value=1e6),
    x=st.floats(min_value=-1e4, max_value=1e4),
    y=st.floats(min_value=-1e4, max_value=1e4),
    z=st.floats(min_value=-1e4, max_value=1e4),
)
def test_property_frame_rotation_preserves_norm(t, x, y, z):
    position = np.array([x, y, z])
    rotated = eci_to_ecef(position, t)
    assert np.linalg.norm(rotated) == pytest.approx(
        np.linalg.norm(position), abs=1e-6
    )

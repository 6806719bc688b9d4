"""Tests for repro.geolocation.measurements."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geolocation.measurements import (
    SPEED_OF_LIGHT_KM_S,
    Emitter,
    Measurement,
    MeasurementGenerator,
    range_km,
    range_rate_km_s,
    received_frequency_hz,
)
from repro.orbits import build_reference_constellation
from repro.orbits.frames import GeodeticPoint, subsatellite_point


@pytest.fixture(scope="module")
def constellation():
    return build_reference_constellation()


@pytest.fixture
def emitter():
    return Emitter(GeodeticPoint.from_degrees(2.0, 3.0), 900.0e6)


class TestPhysics:
    def test_range_is_euclidean(self):
        satellite = np.array([7000.0, 0.0, 0.0])
        emitter_ecef = np.array([6378.0, 0.0, 0.0])
        assert range_km(satellite, emitter_ecef) == pytest.approx(622.0)

    def test_range_rate_sign_convention(self):
        emitter_ecef = np.array([6378.0, 0.0, 0.0])
        satellite = np.array([7000.0, 0.0, 0.0])
        receding = np.array([7.0, 0.0, 0.0])
        approaching = -receding
        assert range_rate_km_s(satellite, receding, emitter_ecef) > 0
        assert range_rate_km_s(satellite, approaching, emitter_ecef) < 0

    def test_received_frequency_shift_magnitude(self):
        """LEO range rates (~7 km/s) shift 900 MHz by ~20 kHz."""
        emitter_ecef = np.array([6378.0, 0.0, 0.0])
        satellite = np.array([6378.0, 500.0, 0.0])
        velocity = np.array([0.0, 7.5, 0.0])  # receding along-track
        received = received_frequency_hz(satellite, velocity, emitter_ecef, 900e6)
        shift = received - 900e6
        assert shift == pytest.approx(-900e6 * 7.5 / SPEED_OF_LIGHT_KM_S)
        assert abs(shift) > 1e4

    def test_zero_range_rejected(self):
        point = np.array([6378.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            range_rate_km_s(point, np.zeros(3), point)

    def test_overhead_pass_crosses_zero_doppler(self, constellation):
        """The classic S-curve: approaching (f > f0), overhead (f ~ f0),
        receding (f < f0)."""
        satellite = constellation.satellites[0]
        target = subsatellite_point(satellite.position_ecef(0.0))
        emitter = Emitter(target, 900e6)
        generator = MeasurementGenerator(emitter, doppler_sigma_hz=1e-6)
        rng = np.random.default_rng(0)
        before, overhead, after = generator.observe(
            satellite, [-120.0, 0.0, 120.0], rng
        )
        assert before.value > 900e6
        assert after.value < 900e6
        assert abs(overhead.value - 900e6) < abs(before.value - 900e6)


class TestMeasurementGenerator:
    def test_visibility_filter(self, constellation):
        satellite = constellation.satellites[0]
        target = subsatellite_point(satellite.position_ecef(0.0))
        emitter = Emitter(target, 900e6)
        generator = MeasurementGenerator(
            emitter, footprint_half_angle=constellation.footprint.half_angle
        )
        rng = np.random.default_rng(1)
        # Overhead now, far away half an orbit later.
        visible = generator.observe(satellite, [0.0], rng)
        hidden = generator.observe(satellite, [2700.0], rng)
        assert len(visible) == 1
        assert len(hidden) == 0

    def test_noise_statistics(self, constellation):
        satellite = constellation.satellites[0]
        target = subsatellite_point(satellite.position_ecef(0.0))
        emitter = Emitter(target, 900e6)
        generator = MeasurementGenerator(emitter, doppler_sigma_hz=5.0)
        rng = np.random.default_rng(2)
        values = [
            generator.observe(satellite, [0.0], rng)[0].value for _ in range(800)
        ]
        assert np.std(values) == pytest.approx(5.0, rel=0.15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            Measurement(
                kind="tdoa",
                time_s=0.0,
                satellite_position_ecef=np.zeros(3),
                satellite_velocity_ecef=np.zeros(3),
                value=1.0,
                sigma=1.0,
            )

    def test_measurement_validation(self):
        with pytest.raises(ConfigurationError):
            Measurement(
                kind="doppler",
                time_s=0.0,
                satellite_position_ecef=np.zeros(3),
                satellite_velocity_ecef=np.zeros(3),
                value=1.0,
                sigma=0.0,
            )

    def test_emitter_validation(self):
        with pytest.raises(ConfigurationError):
            Emitter(GeodeticPoint.from_degrees(0, 0), frequency_hz=0.0)

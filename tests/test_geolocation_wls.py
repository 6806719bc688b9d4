"""Tests for repro.geolocation.wls (iterative WLS estimation)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geolocation.measurements import Emitter, MeasurementGenerator
from repro.geolocation.wls import WLSEstimator
from repro.orbits import build_reference_constellation
from repro.orbits.frames import GeodeticPoint, subsatellite_point


@pytest.fixture(scope="module")
def setup():
    constellation = build_reference_constellation()
    satellite = constellation.satellites[0]
    track = subsatellite_point(satellite.position_ecef(60.0))
    emitter = Emitter(
        GeodeticPoint(
            track.latitude + math.radians(0.5),
            track.longitude + math.radians(0.8),
        ),
        900.0e6,
    )
    generator = MeasurementGenerator(
        emitter,
        doppler_sigma_hz=5.0,
        footprint_half_angle=constellation.footprint.half_angle,
    )
    return constellation, satellite, emitter, generator


def full_pass(generator, satellite, rng, offset=0.0):
    times = np.arange(-180.0, 300.0, 10.0) + 60.0 + offset
    return generator.observe(satellite, times, rng)


class TestDopplerSolve:
    def test_converges_to_truth(self, setup):
        _, satellite, emitter, generator = setup
        rng = np.random.default_rng(100)
        measurements = full_pass(generator, satellite, rng)
        estimator = WLSEstimator()
        guess = subsatellite_point(measurements[0].satellite_position_ecef)
        result = estimator.solve(measurements, guess)
        assert result.converged
        assert result.error_km(emitter.location) < 2.0

    def test_residuals_consistent_with_noise(self, setup):
        _, satellite, emitter, generator = setup
        rng = np.random.default_rng(101)
        measurements = full_pass(generator, satellite, rng)
        result = WLSEstimator().solve(
            measurements, subsatellite_point(measurements[0].satellite_position_ecef)
        )
        assert 0.5 < result.residual_rms < 2.0  # weighted residuals ~ N(0,1)

    def test_frequency_recovered(self, setup):
        _, satellite, emitter, generator = setup
        rng = np.random.default_rng(102)
        measurements = full_pass(generator, satellite, rng)
        result = WLSEstimator().solve(
            measurements, subsatellite_point(measurements[0].satellite_position_ecef)
        )
        assert result.frequency_hz == pytest.approx(900.0e6, abs=50.0)

    def test_estimated_error_calibrated(self, setup):
        """The covariance-based error estimate has the same order of
        magnitude as the realised error distribution."""
        _, satellite, emitter, generator = setup
        errors, estimates = [], []
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            measurements = full_pass(generator, satellite, rng)
            result = WLSEstimator().solve(
                measurements,
                subsatellite_point(measurements[0].satellite_position_ecef),
            )
            errors.append(result.error_km(emitter.location))
            estimates.append(result.horizontal_error_km)
        assert np.mean(estimates) == pytest.approx(
            np.mean(errors), rel=3.0, abs=1.0
        )

    def test_needs_minimum_measurements(self, setup):
        _, satellite, _, generator = setup
        rng = np.random.default_rng(104)
        measurements = full_pass(generator, satellite, rng)[:2]
        with pytest.raises(ConfigurationError):
            WLSEstimator().solve(
                measurements, GeodeticPoint.from_degrees(0.0, 0.0)
            )

    def test_empty_measurements_rejected(self):
        with pytest.raises(ConfigurationError):
            WLSEstimator().solve([], GeodeticPoint.from_degrees(0, 0))


class TestAmbiguity:
    def test_short_arc_has_mirror_ambiguity(self, setup):
        """A short single-pass arc admits two WLS solutions (the
        ground-track mirror), the premise for needing a second
        satellite (Section 3.1 / Levanon)."""
        _, satellite, emitter, generator = setup
        rng = np.random.default_rng(105)
        times = np.arange(30.0, 100.0, 10.0)  # short one-sided arc
        measurements = generator.observe(satellite, times, rng)
        track = subsatellite_point(measurements[0].satellite_position_ecef)
        # Guesses spread across both sides of the ground track.
        guesses = [
            GeodeticPoint(track.latitude, track.longitude + math.radians(dlon))
            for dlon in (-2.0, -0.8, 0.8, 2.0)
        ]
        solutions = WLSEstimator().solve_multistart(measurements, guesses)
        assert len(solutions) >= 2
        # Both survivors fit the data nearly equally well -- the
        # ambiguity is real, not a bad local minimum.
        assert all(s.residual_rms < 2.0 for s in solutions[:2])

    def test_two_satellite_geometry_resolves_ambiguity(self, setup):
        constellation, satellite, emitter, generator = setup
        rng = np.random.default_rng(106)
        times = np.arange(30.0, 100.0, 10.0)
        measurements = generator.observe(satellite, times, rng)
        # Add the trailing satellite's pass over the same spot.
        trailing = constellation.planes[0].satellites[13]
        revisit = satellite.orbit.period_s() / 14.0
        measurements += generator.observe(trailing, times + revisit, rng)
        track = subsatellite_point(measurements[0].satellite_position_ecef)
        east = GeodeticPoint(track.latitude, track.longitude + math.radians(2.0))
        west = GeodeticPoint(track.latitude, track.longitude - math.radians(2.0))
        solutions = WLSEstimator().solve_multistart(measurements, [east, west])
        good = [s for s in solutions if s.residual_rms < 3.0]
        assert len(good) == 1
        assert good[0].error_km(emitter.location) < 5.0

"""Tests for repro.geolocation.sequential (sequential localization)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geolocation.measurements import Emitter, MeasurementGenerator
from repro.geolocation.sequential import SequentialLocalizer
from repro.geolocation.wls import WLSEstimator
from repro.orbits import build_reference_constellation
from repro.orbits.frames import GeodeticPoint, subsatellite_point


@pytest.fixture(scope="module")
def setup():
    constellation = build_reference_constellation()
    plane = constellation.planes[0]
    lead = plane.satellites[0]
    trail = plane.satellites[13]  # the next visitor of the same spot
    track = subsatellite_point(lead.position_ecef(60.0))
    emitter = Emitter(
        GeodeticPoint(
            track.latitude + math.radians(0.4),
            track.longitude + math.radians(0.6),
        ),
        900.0e6,
    )
    generator = MeasurementGenerator(
        emitter,
        doppler_sigma_hz=10.0,
        footprint_half_angle=constellation.footprint.half_angle,
    )
    return lead, trail, emitter, generator


def sparse_pass(generator, satellite, rng, offset=0.0):
    """A capacity-constrained pass: only 6 Doppler samples."""
    times = np.linspace(-150.0, 250.0, 6) + 60.0 + offset
    return generator.observe(satellite, times, rng)


class TestRefinement:
    def test_estimated_error_shrinks_with_second_pass(self, setup):
        lead, trail, emitter, generator = setup
        revisit = lead.orbit.period_s() / 14.0
        improvements = 0
        for seed in range(6):
            rng = np.random.default_rng(300 + seed)
            localizer = SequentialLocalizer()
            first = localizer.add_pass(sparse_pass(generator, lead, rng))
            second = localizer.add_pass(
                sparse_pass(generator, trail, rng, offset=revisit)
            )
            if second.horizontal_error_km < first.horizontal_error_km:
                improvements += 1
        assert improvements >= 5  # allow one noisy exception

    def test_history_records_passes(self, setup):
        lead, trail, _, generator = setup
        rng = np.random.default_rng(310)
        localizer = SequentialLocalizer()
        localizer.add_pass(sparse_pass(generator, lead, rng))
        localizer.add_pass(
            sparse_pass(
                generator, trail, rng, offset=lead.orbit.period_s() / 14.0
            )
        )
        assert len(localizer.history) == 2
        assert localizer.history[0].measurements_total == 6
        assert localizer.history[1].measurements_total == 12

    def test_warm_start_from_explicit_guess(self, setup):
        lead, _, emitter, generator = setup
        rng = np.random.default_rng(320)
        localizer = SequentialLocalizer(
            WLSEstimator(), initial_guess=emitter.location
        )
        result = localizer.add_pass(sparse_pass(generator, lead, rng))
        assert result.error_km(emitter.location) < 50.0

    def test_empty_pass_rejected(self):
        with pytest.raises(ConfigurationError):
            SequentialLocalizer().add_pass([])

    def test_pass_names_default_to_satellite(self, setup):
        lead, _, _, generator = setup
        rng = np.random.default_rng(330)
        localizer = SequentialLocalizer()
        localizer.add_pass(sparse_pass(generator, lead, rng))
        assert localizer.history[0].satellite_name == lead.name

"""Tests for repro.orbits.coverage -- the SOAP-style analytics that
back the paper's published constants."""

import pytest

from repro.errors import ConfigurationError
from repro.orbits import (
    Constellation,
    GeodeticPoint,
    OrbitalPlane,
    build_reference_constellation,
    coverage_series,
    measured_coverage_time_minutes,
    measured_revisit_time_minutes,
)


@pytest.fixture(scope="module")
def constellation():
    return build_reference_constellation()


class TestPublishedConstants:
    def test_measured_coverage_time_is_nine_minutes(self, constellation):
        tc = measured_coverage_time_minutes(
            constellation.planes[0],
            constellation.footprint.half_angle,
            GeodeticPoint.from_degrees(0.0, 0.0),
        )
        assert tc == pytest.approx(9.0, abs=0.3)

    def test_measured_revisit_matches_theta_over_k(self, constellation):
        tr = measured_revisit_time_minutes(
            constellation.planes[0], GeodeticPoint.from_degrees(0.0, 0.0)
        )
        assert tr == pytest.approx(90.0 / 14.0, abs=0.2)

    def test_revisit_after_degradation(self):
        constellation = build_reference_constellation()
        plane = constellation.planes[0]
        plane.fail_satellites(6)  # k = 10
        tr = measured_revisit_time_minutes(
            plane, GeodeticPoint.from_degrees(0.0, 0.0)
        )
        assert tr == pytest.approx(9.0, abs=0.2)


class TestCoverageQueries:
    def test_full_constellation_covers_everywhere(self, constellation):
        """98 active satellites give full Earth coverage (Figure 1)."""
        for lat, lon in ((0.0, 37.0), (30.0, -100.0), (60.0, 10.0), (85.0, 0.0)):
            series = coverage_series(
                constellation,
                GeodeticPoint.from_degrees(lat, lon),
                duration_s=5400.0,
                step_s=120.0,
            )
            assert series.fraction_at_least(1) == 1.0

    def test_poles_more_overlapped_than_equator(self, constellation):
        equator = coverage_series(
            constellation, GeodeticPoint.from_degrees(0.0, 20.0), 5400.0, step_s=120.0
        )
        pole = coverage_series(
            constellation, GeodeticPoint.from_degrees(80.0, 20.0), 5400.0, step_s=120.0
        )
        assert pole.fraction_at_least(2) > equator.fraction_at_least(2)

    def test_series_runs_and_gaps(self):
        reference = build_reference_constellation().planes[0]
        plane = OrbitalPlane(
            plane_index=0,
            altitude_km=reference.altitude_km,
            inclination=reference.inclination,
            raan=0.0,
            active_count=8,
        )
        constellation = Constellation(
            [plane], build_reference_constellation().footprint
        )
        # Single sparse plane: gaps exist at the equator point under it.
        series = coverage_series(
            constellation,
            GeodeticPoint.from_degrees(0.0, 0.0),
            duration_s=5400.0,
            step_s=30.0,
        )
        assert series.fraction_at_least(1) < 1.0

    def test_series_rejects_bad_inputs(self, constellation):
        with pytest.raises(ConfigurationError):
            coverage_series(
                constellation, GeodeticPoint.from_degrees(0, 0), -1.0
            )

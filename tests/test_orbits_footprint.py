"""Tests for repro.orbits.footprint."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.orbits.footprint import Footprint, half_angle_for_coverage_time


class TestCalibration:
    def test_reference_half_angle_is_18_degrees(self):
        """Tc = 9 min on a 90-minute orbit => psi = 18 degrees."""
        psi = half_angle_for_coverage_time(90.0, 9.0)
        assert math.degrees(psi) == pytest.approx(18.0)

    def test_rejects_bad_coverage_time(self):
        with pytest.raises(ConfigurationError):
            half_angle_for_coverage_time(90.0, 90.0)
        with pytest.raises(ConfigurationError):
            half_angle_for_coverage_time(90.0, 0.0)


class TestFootprint:
    def test_rejects_invalid_half_angle(self):
        with pytest.raises(ConfigurationError):
            Footprint(half_angle=0.0)
        with pytest.raises(ConfigurationError):
            Footprint(half_angle=math.pi)

"""Tests for repro.orbits.constellation (building, failing, rephasing)."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.orbits.constellation import (
    OrbitalPlane,
    build_reference_constellation,
)


@pytest.fixture
def plane():
    return OrbitalPlane(
        plane_index=0,
        altitude_km=274.4,
        inclination=math.radians(85.0),
        raan=0.0,
        active_count=14,
        spare_count=2,
    )


class TestReferenceConstellation:
    def test_published_counts(self):
        constellation = build_reference_constellation()
        assert len(constellation.planes) == 7
        assert len(constellation.satellites) == 98

    def test_ninety_minute_period(self):
        constellation = build_reference_constellation()
        satellite = constellation.satellites[0]
        assert satellite.orbit.period_s() == pytest.approx(5400.0, rel=1e-6)

    def test_raan_spread_over_half_circle(self):
        constellation = build_reference_constellation()
        raans = [plane.raan for plane in constellation.planes]
        assert raans[0] == 0.0
        assert max(raans) < math.pi

    def test_satellite_names_unique(self):
        constellation = build_reference_constellation()
        names = [s.name for s in constellation.satellites]
        assert len(set(names)) == len(names)


class TestPhasing:
    def test_even_phasing(self, plane):
        phases = sorted(s.orbit.phase for s in plane.satellites)
        gaps = np.diff(phases)
        assert np.allclose(gaps, 2.0 * math.pi / 14, atol=1e-12)


class TestFailures:
    def test_spares_absorb_first_failures(self, plane):
        assert plane.fail_satellites(2) == 14
        assert plane.spare_count == 0

    def test_failures_beyond_spares_shrink_plane(self, plane):
        assert plane.fail_satellites(5) == 11  # 2 spares + 3 active
        assert plane.spare_count == 0

    def test_rephasing_keeps_even_distribution(self, plane):
        plane.fail_satellites(6)  # down to 10 active
        phases = sorted(s.orbit.phase % (2 * math.pi) for s in plane.satellites)
        gaps = np.diff(phases)
        assert np.allclose(gaps, 2.0 * math.pi / 10, atol=1e-9)

    def test_revisit_time_grows_with_failures(self, plane):
        """Tr[k] = theta / k: fewer satellites, longer revisit."""

        def revisit_s():
            first, second = plane.satellites[:2]
            gap = second.orbit.phase - first.orbit.phase
            return gap / first.orbit.mean_motion()

        before = revisit_s()
        plane.fail_satellites(6)
        after = revisit_s()
        period_s = plane.satellites[0].orbit.period_s()
        assert after > before
        assert after == pytest.approx(period_s / 10.0)

    def test_cannot_fail_negative(self, plane):
        with pytest.raises(ConfigurationError):
            plane.fail_satellites(-1)

    def test_constellation_degrade_plane(self):
        constellation = build_reference_constellation()
        assert constellation.planes[0].fail_satellites(4) == 12
        assert len(constellation.satellites) == 98 - 2  # 2 losses hit spares

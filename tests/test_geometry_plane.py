"""Tests for repro.geometry.plane (paper Section 2 / 4.2.1 quantities)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.geometry.intervals import CoverageKind, FootprintCycle
from repro.geometry.plane import PlaneGeometry


def _intervals(geometry):
    """The cycle's intervals in order, walked through ``interval_at``."""
    cycle = FootprintCycle(geometry)
    intervals = [cycle.interval_at(0.0)]
    while intervals[-1].end < geometry.l1:
        intervals.append(cycle.interval_at(intervals[-1].end))
    return intervals


def _kinds(geometry):
    return [interval.kind for interval in _intervals(geometry)]


class TestConstruction:
    def test_reference_constants(self):
        geometry = PlaneGeometry.reference(14)
        assert geometry.orbit_period == 90.0
        assert geometry.coverage_time == 9.0
        assert geometry.active_satellites == 14

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ConfigurationError):
            PlaneGeometry(orbit_period=0.0, coverage_time=9.0, active_satellites=5)

    def test_rejects_nonpositive_coverage(self):
        with pytest.raises(ConfigurationError):
            PlaneGeometry(orbit_period=90.0, coverage_time=0.0, active_satellites=5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("active_satellites", 9.5),
            ("active_satellites", True),
            ("orbit_period", math.nan),
        ],
        ids=["k-float", "k-bool", "period-nan"],
    )
    def test_rejects_wrong_types_naming_the_field(self, field, value):
        """Regression: ``k = 9.5`` and ``k = True`` were accepted (``l1``
        read 9.47 for the first), and a NaN period passed every
        comparison."""
        values = {"orbit_period": 90.0, "coverage_time": 9.0, "active_satellites": 9}
        with pytest.raises(ConfigurationError, match=field):
            PlaneGeometry(**{**values, field: value})

    def test_rejects_coverage_exceeding_period(self):
        with pytest.raises(ConfigurationError):
            PlaneGeometry(orbit_period=90.0, coverage_time=90.0, active_satellites=5)

    def test_rejects_zero_satellites(self):
        with pytest.raises(ConfigurationError):
            PlaneGeometry(orbit_period=90.0, coverage_time=9.0, active_satellites=0)


class TestPrimaryQuantities:
    def test_revisit_time_is_period_over_k(self):
        assert PlaneGeometry.reference(12).revisit_time == pytest.approx(7.5)
        assert PlaneGeometry.reference(9).revisit_time == pytest.approx(10.0)

    def test_l1_equals_revisit_time(self):
        for k in range(6, 15):
            geometry = PlaneGeometry.reference(k)
            assert geometry.l1 == pytest.approx(geometry.revisit_time)

    def test_l2_is_absolute_difference(self):
        assert PlaneGeometry.reference(12).l2 == pytest.approx(1.5)
        assert PlaneGeometry.reference(9).l2 == pytest.approx(1.0)

    def test_l2_zero_at_exact_tangency(self):
        # k = 10: Tr = 9 = Tc exactly; footprints are tangent.
        geometry = PlaneGeometry.reference(10)
        assert geometry.l2 == pytest.approx(0.0)
        assert geometry.underlapping  # Tr >= Tc counts as underlap


class TestOrientation:
    def test_paper_underlap_threshold(self):
        """Underlapping happens when k drops below 11 (Section 4.2.1)."""
        for k in range(1, 11):
            assert PlaneGeometry.reference(k).underlapping
        for k in range(11, 15):
            assert PlaneGeometry.reference(k).overlapping

    def test_pairwise_overlap_limit(self):
        """At most two footprints cover a point while Tc * k <= 2 theta."""
        assert PlaneGeometry.pairwise_overlap_limit() == 20
        assert PlaneGeometry.reference(20).pairwise_overlap
        assert not PlaneGeometry.reference(21).pairwise_overlap

    def test_indicator_matches_eq1(self):
        assert PlaneGeometry.reference(12).indicator == 1
        assert PlaneGeometry.reference(9).indicator == 0

    def test_interval_lengths_partition_cycle(self):
        for k in range(6, 15):
            geometry = PlaneGeometry.reference(k)
            lengths = [i.end - i.start for i in _intervals(geometry)]
            assert lengths[0] == pytest.approx(geometry.single_coverage_length)
            assert sum(lengths) == pytest.approx(geometry.l1)

    def test_overlap_has_no_gap(self):
        kinds = _kinds(PlaneGeometry.reference(13))
        assert kinds == [CoverageKind.SINGLE, CoverageKind.DOUBLE]

    def test_underlap_has_no_double_coverage(self):
        kinds = _kinds(PlaneGeometry.reference(8))
        assert kinds == [CoverageKind.SINGLE, CoverageKind.GAP]


class TestOpportunityBound:
    def test_paper_m_equals_two_for_tau_five(self):
        """tau = 5 < Tc = 9 implies sequential *dual* coverage at most."""
        for k in range(6, 11):
            geometry = PlaneGeometry.reference(k)
            if geometry.l2 < 5.0:
                assert geometry.max_consecutive_coverage(5.0) == 2

    def test_m_is_one_when_deadline_below_gap(self):
        geometry = PlaneGeometry.reference(6)  # L2 = 6
        assert geometry.max_consecutive_coverage(5.0) == 1

    def test_m_grows_with_deadline(self):
        geometry = PlaneGeometry.reference(9)  # L1 = 10, L2 = 1
        assert geometry.max_consecutive_coverage(5.0) == 2
        assert geometry.max_consecutive_coverage(12.0) == 3
        assert geometry.max_consecutive_coverage(22.0) == 4

    def test_m_rejected_for_overlapping_plane(self):
        with pytest.raises(ConfigurationError):
            PlaneGeometry.reference(12).max_consecutive_coverage(5.0)

    def test_m_rejects_negative_deadline(self):
        with pytest.raises(ConfigurationError):
            PlaneGeometry.reference(9).max_consecutive_coverage(-1.0)


@given(
    k=st.integers(min_value=1, max_value=200),
    period=st.floats(min_value=10.0, max_value=2000.0),
    coverage=st.floats(min_value=0.1, max_value=9.9),
)
def test_property_orientation_consistency(k, period, coverage):
    """I[k] == (Tr < Tc) for arbitrary valid configurations."""
    if coverage >= period:
        return
    geometry = PlaneGeometry(
        orbit_period=period, coverage_time=coverage, active_satellites=k
    )
    assert geometry.overlapping == (geometry.revisit_time < coverage)
    assert geometry.l2 == pytest.approx(abs(coverage - geometry.revisit_time))
    assert geometry.l1 > 0


@given(
    k=st.integers(min_value=1, max_value=50),
    tau=st.floats(min_value=0.0, max_value=500.0),
)
def test_property_m_monotone_in_deadline(k, tau):
    """M[k] never decreases when the deadline grows."""
    geometry = PlaneGeometry.reference(k)
    if geometry.overlapping:
        return
    m1 = geometry.max_consecutive_coverage(tau)
    m2 = geometry.max_consecutive_coverage(tau + 1.0)
    assert m2 >= m1 >= 1

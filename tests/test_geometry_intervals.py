"""Tests for repro.geometry.intervals (the Figure 6 cycle structure)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.geometry.intervals import CoverageKind, FootprintCycle
from repro.geometry.plane import PlaneGeometry


@pytest.fixture
def overlap_cycle():
    return FootprintCycle(PlaneGeometry.reference(12))  # L1=7.5, L2=1.5


@pytest.fixture
def underlap_cycle():
    return FootprintCycle(PlaneGeometry.reference(9))  # L1=10, L2=1


def cycle_intervals(cycle):
    """The cycle's intervals in order, alpha first, walked through
    ``interval_at``."""
    intervals = [cycle.interval_at(0.0)]
    while intervals[-1].end < cycle.length:
        intervals.append(cycle.interval_at(intervals[-1].end))
    return intervals


class TestStructure:
    def test_overlap_cycle_has_alpha_then_beta(self, overlap_cycle):
        kinds = [interval.kind for interval in cycle_intervals(overlap_cycle)]
        assert kinds == [CoverageKind.SINGLE, CoverageKind.DOUBLE]

    def test_underlap_cycle_has_alpha_then_gap(self, underlap_cycle):
        kinds = [interval.kind for interval in cycle_intervals(underlap_cycle)]
        assert kinds == [CoverageKind.SINGLE, CoverageKind.GAP]

    def test_tangent_cycle_is_single_interval(self):
        cycle = FootprintCycle(PlaneGeometry.reference(10))  # L2 = 0
        intervals = cycle_intervals(cycle)
        assert len(intervals) == 1
        assert intervals[0].kind is CoverageKind.SINGLE

    def test_interval_lengths(self, overlap_cycle):
        alpha, beta = cycle_intervals(overlap_cycle)
        assert alpha.end - alpha.start == pytest.approx(6.0)
        assert beta.end - beta.start == pytest.approx(1.5)
        assert overlap_cycle.length == pytest.approx(7.5)

    def test_multiplicity_values(self):
        assert CoverageKind.SINGLE.multiplicity == 1
        assert CoverageKind.DOUBLE.multiplicity == 2
        assert CoverageKind.GAP.multiplicity == 0


class TestQueries:
    def test_coverage_multiplicity_by_position(self, overlap_cycle):
        assert overlap_cycle.interval_at(3.0).kind.multiplicity == 1
        assert overlap_cycle.interval_at(6.5).kind.multiplicity == 2

    def test_positions_wrap_modulo_cycle(self, overlap_cycle):
        assert overlap_cycle.interval_at(3.0 + 7.5).kind.multiplicity == 1
        assert overlap_cycle.interval_at(6.5 - 7.5).kind.multiplicity == 2

    def test_wait_until_double_coverage(self, overlap_cycle):
        assert overlap_cycle.wait_until_double_coverage(2.0) == pytest.approx(4.0)
        assert overlap_cycle.wait_until_double_coverage(6.5) == 0.0

    def test_wait_until_double_rejected_for_underlap(self, underlap_cycle):
        with pytest.raises(ConfigurationError):
            underlap_cycle.wait_until_double_coverage(2.0)

    def test_wait_until_covered(self, underlap_cycle):
        assert underlap_cycle.wait_until_covered(2.0) == 0.0  # inside alpha
        assert underlap_cycle.wait_until_covered(9.5) == pytest.approx(0.5)

    def test_wait_until_covered_always_zero_for_overlap(self, overlap_cycle):
        for position in (0.0, 3.0, 6.9):
            assert overlap_cycle.wait_until_covered(position) == 0.0

    def test_wait_until_next_satellite(self, underlap_cycle):
        # Onset at the end of alpha waits exactly L2; at the start, L1.
        assert underlap_cycle.wait_until_next_satellite(9.0 - 1e-9) == pytest.approx(
            1.0, abs=1e-6
        )
        assert underlap_cycle.wait_until_next_satellite(0.0) == pytest.approx(10.0)


@given(
    k=st.integers(min_value=2, max_value=40),
    position=st.floats(min_value=-100.0, max_value=100.0),
)
def test_property_reduce_lands_in_cycle(k, position):
    cycle = FootprintCycle(PlaneGeometry.reference(k))
    reduced = cycle.reduce(position)
    assert 0.0 <= reduced <= cycle.length

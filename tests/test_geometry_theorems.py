"""Tests for repro.geometry.theorems (opportunity windows)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.geometry.plane import PlaneGeometry
from repro.geometry.theorems import (
    sequential_window,
    simultaneous_window,
    theorem1_admits,
    theorem2_admits,
)


class TestSimultaneousWindow:
    def test_immediate_measure_is_l2(self):
        geometry = PlaneGeometry.reference(12)
        window = simultaneous_window(geometry, 5.0)
        assert window.immediate_measure == pytest.approx(1.5)

    def test_waiting_range_clipped_by_deadline(self):
        geometry = PlaneGeometry.reference(12)  # alpha length 6
        window = simultaneous_window(geometry, 5.0)
        assert window.wait_lo == 0.0
        assert window.wait_hi == pytest.approx(5.0)

    def test_waiting_range_clipped_by_alpha(self):
        geometry = PlaneGeometry.reference(12)
        window = simultaneous_window(geometry, 20.0)
        assert window.wait_hi == pytest.approx(6.0)  # whole alpha

    def test_rejected_for_underlap(self):
        with pytest.raises(ConfigurationError):
            simultaneous_window(PlaneGeometry.reference(9), 5.0)

    def test_probability_mass_in_unit_interval(self):
        geometry = PlaneGeometry.reference(13)
        window = simultaneous_window(geometry, 5.0)
        assert 0.0 < window.total_measure / window.cycle_length <= 1.0


class TestSequentialWindow:
    def test_window_bounds_match_theorem2(self):
        geometry = PlaneGeometry.reference(9)  # L1=10, L2=1
        window = sequential_window(geometry, 5.0)
        assert window.wait_lo == pytest.approx(1.0)
        assert window.wait_hi == pytest.approx(5.0)
        assert window.immediate_measure == 0.0

    def test_empty_when_deadline_below_gap(self):
        geometry = PlaneGeometry.reference(6)  # L2 = 6
        window = sequential_window(geometry, 5.0)
        assert window.waiting_measure == 0.0

    def test_rejected_for_overlap(self):
        with pytest.raises(ConfigurationError):
            sequential_window(PlaneGeometry.reference(12), 5.0)

    def test_tangent_plane_window_starts_at_zero(self):
        geometry = PlaneGeometry.reference(10)  # L2 = 0
        window = sequential_window(geometry, 5.0)
        assert window.wait_lo == 0.0
        assert window.wait_hi == pytest.approx(5.0)


class TestAdmissionPredicates:
    def test_theorem1_admits_beta_onsets(self):
        geometry = PlaneGeometry.reference(12)
        assert theorem1_admits(geometry, 5.0, 6.5)  # inside beta

    def test_theorem1_admits_alpha_within_deadline(self):
        geometry = PlaneGeometry.reference(12)
        assert theorem1_admits(geometry, 5.0, 2.0)  # wait 4 <= 5
        assert not theorem1_admits(geometry, 3.0, 2.0)  # wait 4 > 3

    def test_theorem2_requires_alpha_onset(self):
        geometry = PlaneGeometry.reference(9)
        assert not theorem2_admits(geometry, 5.0, 9.5)  # in the gap

    def test_theorem2_admits_late_alpha_onsets(self):
        geometry = PlaneGeometry.reference(9)
        assert theorem2_admits(geometry, 5.0, 8.0)  # wait 2 in (1, 5]
        assert not theorem2_admits(geometry, 5.0, 2.0)  # wait 8 > 5

    def test_theorem2_false_when_deadline_below_gap(self):
        geometry = PlaneGeometry.reference(9)
        assert not theorem2_admits(geometry, 0.5, 8.0)


@given(
    k=st.integers(min_value=11, max_value=14),
    tau=st.floats(min_value=0.0, max_value=30.0),
)
def test_property_simultaneous_window_consistent(k, tau):
    geometry = PlaneGeometry.reference(k)
    window = simultaneous_window(geometry, tau)
    assert 0.0 <= window.waiting_measure <= geometry.single_coverage_length + 1e-9
    assert window.immediate_measure == pytest.approx(geometry.l2)
    assert window.total_measure <= geometry.l1 + 1e-9


@given(
    k=st.integers(min_value=2, max_value=10),
    tau=st.floats(min_value=0.0, max_value=30.0),
)
def test_property_sequential_window_consistent(k, tau):
    geometry = PlaneGeometry.reference(k)
    window = sequential_window(geometry, tau)
    assert window.wait_lo == pytest.approx(geometry.l2)
    assert window.wait_hi <= min(geometry.l1, max(tau, geometry.l2)) + 1e-9
    assert window.waiting_measure >= 0.0

"""Opportunity windows from the paper's Theorems 1 and 2.

Theorem 1 (overlapping planes, ``Tr[k] < Tc``): position determination
by a *simultaneous* multiple coverage is possible only if the signal
occurs (1) inside a doubly-covered interval ``beta_i``, or (2) inside a
singly-covered interval ``alpha_i`` at most ``min(tau, L1 - L2)`` time
units before ``beta_i`` begins.

Theorem 2 (underlapping planes, ``Tr[k] >= Tc``): position
determination by a *sequential* multiple coverage is possible only if
(1) ``tau > L2`` and the signal occurs in ``alpha_i`` at most
``min(tau, L1)`` before ``alpha_{i+1}``, or (2) ``tau > L1`` and the
signal occurs in the gap ``gamma_i`` at most ``min(tau, L1 + L2)``
before ``alpha_{i+2}``.  With the reference deadline ``tau = 5 < Tc``,
``tau <= L1`` holds for every underlapping ``k``, so condition (2)
never applies -- the analytic model relies on that, and
:func:`sequential_window` mirrors it (condition (2) would require a
three-satellite chain, which the paper's setting caps at two).

Both windows are expressed in onset *waiting time* ``w``: the time from
signal onset until the opportunity (double coverage / next satellite)
arrives.  Because the onset position is uniform over the cycle, a
window of waiting times maps one-to-one onto a set of onset positions
of the same total measure, which is what the model integrates over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geometry.plane import PlaneGeometry

__all__ = [
    "OpportunityWindow",
    "simultaneous_window",
    "sequential_window",
    "theorem1_admits",
    "theorem2_admits",
]


@dataclass(frozen=True)
class OpportunityWindow:
    """A window of onset waiting times that admit a QoS opportunity.

    Attributes
    ----------
    wait_lo, wait_hi:
        Half-open range ``[wait_lo, wait_hi)`` of waiting times ``w``
        (minutes from signal onset until the opportunity arrives) for
        which the opportunity is reachable.  ``wait_lo == wait_hi``
        denotes an empty window.
    immediate_measure:
        Total cycle measure (minutes) of onset positions for which the
        opportunity is available immediately (``w = 0``); non-zero only
        for Theorem 1's ``beta`` intervals.
    cycle_length:
        ``L1[k]``, so probabilities are ``measure / cycle_length``.
    """

    wait_lo: float
    wait_hi: float
    immediate_measure: float
    cycle_length: float

    @property
    def waiting_measure(self) -> float:
        """Cycle measure of onsets that must wait ``w in [lo, hi)``."""
        return max(0.0, self.wait_hi - self.wait_lo)

    @property
    def total_measure(self) -> float:
        """Total cycle measure of admitting onset positions."""
        return self.waiting_measure + self.immediate_measure



def simultaneous_window(geometry: PlaneGeometry, deadline: float) -> OpportunityWindow:
    """Theorem 1 window: onsets that can reach a **simultaneous dual
    coverage** within ``deadline`` minutes.

    Only defined for overlapping planes.  Onsets inside ``beta`` have
    the opportunity immediately (measure ``L2``); onsets inside
    ``alpha`` must wait ``w in (0, min(tau, L1 - L2)]`` for the
    overlapped footprints to arrive.
    """
    if deadline < 0:
        raise ConfigurationError(f"deadline must be >= 0, got {deadline}")
    if geometry.underlapping:
        raise ConfigurationError(
            "Theorem 1 applies to overlapping planes only "
            f"(k={geometry.active_satellites} underlaps)"
        )
    l_hat = min(geometry.single_coverage_length, deadline)
    return OpportunityWindow(
        wait_lo=0.0,
        wait_hi=l_hat,
        immediate_measure=geometry.l2,
        cycle_length=geometry.l1,
    )


def sequential_window(geometry: PlaneGeometry, deadline: float) -> OpportunityWindow:
    """Theorem 2 window (first condition): onsets that can reach a
    **sequential dual coverage** within ``deadline`` minutes.

    Only defined for underlapping planes.  A signal starting inside
    ``alpha_i`` waits ``w = L1 - x`` for the next satellite; the wait is
    at least ``L2`` (onset at the very end of ``alpha_i``) and must not
    exceed ``min(tau, L1)``.  The window is empty unless
    ``deadline > L2``.
    """
    if deadline < 0:
        raise ConfigurationError(f"deadline must be >= 0, got {deadline}")
    if geometry.overlapping:
        raise ConfigurationError(
            "Theorem 2 applies to underlapping planes only "
            f"(k={geometry.active_satellites} overlaps)"
        )
    l_tilde = min(geometry.l1, deadline)
    lo = geometry.l2
    hi = max(l_tilde, lo)  # empty window when deadline <= L2
    return OpportunityWindow(
        wait_lo=lo,
        wait_hi=hi,
        immediate_measure=0.0,
        cycle_length=geometry.l1,
    )


def theorem1_admits(
    geometry: PlaneGeometry, deadline: float, onset_position: float
) -> bool:
    """Whether a signal whose onset falls at ``onset_position`` (reduced
    to ``[0, L1)``, cycle starting at ``alpha``) satisfies Theorem 1's
    necessary condition for simultaneous dual coverage."""
    from repro.geometry.intervals import FootprintCycle

    cycle = FootprintCycle(geometry)
    wait = cycle.wait_until_double_coverage(onset_position)
    if wait == 0.0:
        return True
    return wait <= min(deadline, geometry.single_coverage_length)


def theorem2_admits(
    geometry: PlaneGeometry, deadline: float, onset_position: float
) -> bool:
    """Whether a signal whose onset falls at ``onset_position`` inside
    ``alpha`` satisfies Theorem 2's (first) necessary condition for
    sequential dual coverage.  Onsets in the gap never qualify under the
    reference deadline (``tau <= L1``)."""
    from repro.geometry.intervals import CoverageKind, FootprintCycle

    cycle = FootprintCycle(geometry)
    if cycle.interval_at(onset_position).kind is not CoverageKind.SINGLE:
        return False
    if deadline <= geometry.l2:
        return False
    wait = cycle.wait_until_next_satellite(onset_position)
    return wait <= min(deadline, geometry.l1)

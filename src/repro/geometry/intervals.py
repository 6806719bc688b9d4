"""Cycle/interval structure of a plane's footprint trajectory.

Paper Figure 6 breaks the time horizon observed by a fixed ground point
(on the centre line of a footprint trajectory) into a repeating cycle of
length ``L1[k]``:

* **overlapping** planes: a singly-covered interval ``alpha_n`` of
  length ``L1 - L2`` followed by a doubly-covered interval ``beta_n`` of
  length ``L2``;
* **underlapping** planes: a singly-covered interval ``alpha_n`` of
  length ``L1 - L2 = Tc`` followed by an uncovered gap ``gamma_n`` of
  length ``L2``.

:class:`FootprintCycle` materialises that structure and answers the
queries the Monte-Carlo simulator and the theorem windows need: the
interval at a cycle position, waiting time until the next double
coverage / next footprint arrival.  Positions are expressed
in minutes from the start of the ``alpha`` interval, modulo ``L1``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.geometry.plane import PlaneGeometry

__all__ = ["CoverageKind", "Interval", "FootprintCycle"]


class CoverageKind(enum.Enum):
    """Coverage multiplicity class of a cycle interval."""

    SINGLE = "single"  #: covered by exactly one footprint (alpha)
    DOUBLE = "double"  #: covered by two overlapped footprints (beta)
    GAP = "gap"  #: covered by no footprint (gamma)

    @property
    def multiplicity(self) -> int:
        """Number of footprints covering the point in this interval."""
        if self is CoverageKind.SINGLE:
            return 1
        if self is CoverageKind.DOUBLE:
            return 2
        return 0


@dataclass(frozen=True)
class Interval:
    """A half-open sub-interval ``[start, end)`` of the footprint cycle."""

    kind: CoverageKind
    start: float
    end: float

    def contains(self, position: float) -> bool:
        """Whether ``position`` (already reduced modulo the cycle) falls
        inside this interval."""
        return self.start <= position < self.end


class FootprintCycle:
    """The repeating coverage pattern a centre-line ground point sees.

    Parameters
    ----------
    geometry:
        The plane geometry whose cycle is materialised.
    """

    def __init__(self, geometry: PlaneGeometry):
        self._geometry = geometry
        alpha = Interval(CoverageKind.SINGLE, 0.0, geometry.single_coverage_length)
        if geometry.overlapping:
            tail_kind = CoverageKind.DOUBLE
        else:
            tail_kind = CoverageKind.GAP
        self._intervals: List[Interval] = [alpha]
        if geometry.l2 > 0.0:
            self._intervals.append(Interval(tail_kind, alpha.end, geometry.l1))

    @property
    def geometry(self) -> PlaneGeometry:
        """The plane geometry backing this cycle."""
        return self._geometry

    @property
    def length(self) -> float:
        """Cycle length ``L1[k]`` in minutes."""
        return self._geometry.l1

    def reduce(self, position: float) -> float:
        """Reduce an absolute position to ``[0, L1)``."""
        reduced = math.fmod(position, self.length)
        if reduced < 0:
            reduced += self.length
        return reduced

    def interval_at(self, position: float) -> Interval:
        """The interval containing ``position`` (any real number)."""
        reduced = self.reduce(position)
        for interval in self._intervals:
            if interval.contains(reduced):
                return interval
        # fmod can return the cycle length itself due to rounding;
        # treat it as position 0.
        return self._intervals[0]

    # ------------------------------------------------------------------
    # Waiting-time queries (all in minutes, from ``position``)
    # ------------------------------------------------------------------
    def wait_until_double_coverage(self, position: float) -> float:
        """Time until the ground point is next covered by two overlapped
        footprints.  Zero if it already is.

        Raises :class:`ConfigurationError` for an underlapping plane,
        where simultaneous coverage never occurs.
        """
        if self._geometry.underlapping:
            raise ConfigurationError(
                "double coverage never occurs on an underlapping plane"
            )
        reduced = self.reduce(position)
        beta_start = self._geometry.single_coverage_length
        if reduced >= beta_start:
            return 0.0
        return beta_start - reduced

    def wait_until_covered(self, position: float) -> float:
        """Time until the ground point is next inside *any* footprint.
        Zero if it already is (overlapping planes always return 0)."""
        reduced = self.reduce(position)
        interval = self.interval_at(reduced)
        if interval.kind is not CoverageKind.GAP:
            return 0.0
        return self.length - reduced

    def wait_until_next_satellite(self, position: float) -> float:
        """Time until the footprint of the *next* satellite (the one
        following the satellite whose footprint defines the current
        cycle) reaches the ground point.

        For a signal that starts at ``position`` inside ``alpha_i``
        (covered by satellite ``i``), this is the sequential-coverage
        waiting time of Theorem 2: the next ``alpha`` begins one full
        cycle after the current one.
        """
        reduced = self.reduce(position)
        return self.length - reduced

"""Footprint geometry of a single orbital plane (paper Sections 2 and 4.2.1).

The paper characterises a plane that has ``k`` active, evenly-phased
satellites by two time quantities:

* the **revisit time** ``Tr[k] = theta / k`` -- the time between the
  footprint centre of one satellite and the footprint centre of the next
  satellite passing the same ground location (``theta`` is the orbit
  period), and
* the **coverage time** ``Tc`` -- the maximum time a single ground
  location stays inside one satellite's footprint (the footprint
  "diameter" measured in time units).

Their relation determines the plane's geometric orientation:
``Tr[k] < Tc`` means adjacent footprints **overlap**, ``Tr[k] >= Tc``
means they **underlap** (are detached).  The auxiliary lengths
``L1[k] = Tr[k]`` and ``L2[k] = |Tc - Tr[k]|`` (paper Figure 5) recur
throughout the analytic QoS model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, check_fields

__all__ = ["PlaneGeometry", "REFERENCE_ORBIT_PERIOD", "REFERENCE_COVERAGE_TIME"]

#: Orbit period of the reference RF-geolocation constellation, minutes.
REFERENCE_ORBIT_PERIOD = 90.0

#: Coverage time of the reference constellation, minutes.
REFERENCE_COVERAGE_TIME = 9.0


@dataclass(frozen=True)
class PlaneGeometry:
    """Footprint-trajectory geometry of one orbital plane.

    Parameters
    ----------
    orbit_period:
        ``theta`` -- time for a satellite to orbit through the plane, in
        minutes (90 for the reference constellation).
    coverage_time:
        ``Tc`` -- maximum single-footprint dwell time over a ground
        location, in minutes (9 for the reference constellation).
    active_satellites:
        ``k`` -- number of operational satellites actively in service in
        the plane, assumed evenly phased (the paper's post-failure
        phasing adjustment).
    """

    orbit_period: float
    coverage_time: float
    active_satellites: int

    def __post_init__(self) -> None:
        check_fields(self)
        if self.orbit_period <= 0:
            raise ConfigurationError(
                f"orbit_period must be positive, got {self.orbit_period}"
            )
        if self.coverage_time <= 0:
            raise ConfigurationError(
                f"coverage_time must be positive, got {self.coverage_time}"
            )
        if self.coverage_time >= self.orbit_period:
            raise ConfigurationError(
                "coverage_time must be smaller than the orbit period "
                f"(got Tc={self.coverage_time}, theta={self.orbit_period})"
            )
        if self.active_satellites < 1:
            raise ConfigurationError(
                f"active_satellites must be >= 1, got {self.active_satellites}"
            )

    @classmethod
    def reference(cls, active_satellites: int) -> "PlaneGeometry":
        """Geometry of the reference constellation's plane with ``k``
        active satellites (theta = 90 min, Tc = 9 min)."""
        return cls(
            orbit_period=REFERENCE_ORBIT_PERIOD,
            coverage_time=REFERENCE_COVERAGE_TIME,
            active_satellites=active_satellites,
        )

    # ------------------------------------------------------------------
    # Primary quantities
    # ------------------------------------------------------------------
    @property
    def revisit_time(self) -> float:
        """``Tr[k] = theta / k`` -- time distance between adjacent
        satellites in the plane, minutes."""
        return self.orbit_period / self.active_satellites

    @property
    def l1(self) -> float:
        """``L1[k]`` -- the cycle length of the footprint pattern seen by
        a fixed ground point on the trajectory centre line.

        The paper defines ``L1[k] = floor(Tr - Tc/2) + Tc/2`` which
        simplifies to ``Tr[k]`` (Figure 5); one full cycle passes every
        revisit period.
        """
        return self.revisit_time

    @property
    def l2(self) -> float:
        """``L2[k] = |Tc - Tr[k]|`` -- length of the doubly-covered
        interval when footprints overlap, or of the uncovered gap when
        they underlap."""
        return abs(self.coverage_time - self.revisit_time)

    @property
    def overlapping(self) -> bool:
        """Indicator ``I[k]`` (paper Eq. 1): ``True`` iff
        ``Tr[k] < Tc``, i.e. adjacent footprints overlap."""
        return self.revisit_time < self.coverage_time

    @property
    def underlapping(self) -> bool:
        """``True`` iff adjacent footprints are detached
        (``Tr[k] >= Tc``)."""
        return not self.overlapping

    @property
    def indicator(self) -> int:
        """``I[k]`` as the 0/1 integer used in the paper's Table 1."""
        return 1 if self.overlapping else 0

    # ------------------------------------------------------------------
    # Derived interval lengths (paper Figure 6 timing diagrams)
    # ------------------------------------------------------------------
    @property
    def single_coverage_length(self) -> float:
        """Length of the interval (``alpha_n``) during which a centre-line
        ground point is covered by exactly one footprint, per cycle.

        Equals ``L1 - L2``: ``2*Tr - Tc`` when overlapping, ``Tc`` when
        underlapping.
        """
        return self.l1 - self.l2

    # ------------------------------------------------------------------
    # Opportunity bounds
    # ------------------------------------------------------------------
    def max_consecutive_coverage(self, deadline: float) -> int:
        """``M[k]`` (paper Eq. 2): upper bound on the number of satellites
        that can consecutively capture a signal before ``deadline``
        (minutes from initial detection), in the underlapping case.

        Returns ``2 + floor((tau - L2)/L1)`` when ``tau > L2`` and 1
        otherwise.  Only meaningful when ``I[k] = 0``; for an
        overlapping plane the paper's opportunity is the simultaneous
        dual coverage instead, and this method raises.
        """
        if deadline < 0:
            raise ConfigurationError(f"deadline must be >= 0, got {deadline}")
        if self.overlapping:
            raise ConfigurationError(
                "M[k] is defined for the underlapping case (I[k]=0); "
                f"plane with k={self.active_satellites} overlaps"
            )
        if deadline > self.l2:
            return 2 + int(math.floor((deadline - self.l2) / self.l1))
        return 1

    @classmethod
    def pairwise_overlap_limit(
        cls,
        orbit_period: float = REFERENCE_ORBIT_PERIOD,
        coverage_time: float = REFERENCE_COVERAGE_TIME,
    ) -> int:
        """Largest ``k`` for which at most two footprints cover any
        point (``Tc * k <= 2 * theta``, i.e. ``L2 <= L1``): the domain of
        the closed forms and of both protocol engines.

        For the reference constellation this is 20.
        """
        return int(math.floor(2.0 * orbit_period / coverage_time))

    @property
    def pairwise_overlap(self) -> bool:
        """``True`` iff ``k`` is within :meth:`pairwise_overlap_limit`."""
        return self.active_satellites <= self.pairwise_overlap_limit(
            self.orbit_period, self.coverage_time
        )

    def require_pairwise_overlap(self) -> None:
        """Raise :class:`ConfigurationError` unless :attr:`pairwise_overlap`
        holds (pure geometry accepts any ``k``; the QoS models do not)."""
        if not self.pairwise_overlap:
            limit = self.pairwise_overlap_limit(
                self.orbit_period, self.coverage_time
            )
            raise ConfigurationError(
                f"active_satellites k={self.active_satellites} exceeds the "
                f"pairwise-overlap limit {limit} (2 * theta / Tc for "
                f"theta={self.orbit_period}, Tc={self.coverage_time}): the "
                "QoS model covers at most two footprints over a point"
            )

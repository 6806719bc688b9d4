"""Message types of the OAQ coordination protocol (paper Figure 3).

Three messages flow over the crosslinks and the downlink:

* :class:`CoordinationRequest` -- ``Sn -> Sn+1``: carries the
  accumulated measurements and the preliminary result, inviting the
  next-arriving satellite to perform another accuracy-improvement
  iteration;
* :class:`CoordinationDone` -- ``Sn+1 -> Sn -> ... -> S1``: propagated
  down the chain when coordination terminates, so no participant stays
  "unnecessarily alarmed";
* :class:`AlertMessage` -- satellite -> ground: the final geolocation
  result, which must be *sent* within the deadline ``tau`` of the
  initial detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "GeolocationEstimate",
    "CoordinationRequest",
    "CoordinationDone",
    "AlertMessage",
]


@dataclass(frozen=True)
class GeolocationEstimate:
    """A geolocation result with its quality pedigree.

    Attributes
    ----------
    error_km:
        Estimated 1-sigma horizontal error.
    passes_used:
        Number of satellites whose measurements contributed.
    simultaneous:
        Whether the result came from a simultaneous multiple coverage
        (QoS level 3).
    computed_by / computed_at:
        Provenance (satellite name, completion time in minutes).
    """

    error_km: float
    passes_used: int
    simultaneous: bool
    computed_by: str
    computed_at: float

    @property
    def qos_level(self) -> int:
        """The paper's QoS level implied by the pedigree."""
        if self.simultaneous:
            return 3
        if self.passes_used >= 2:
            return 2
        return 1


@dataclass(frozen=True)
class CoordinationRequest:
    """Invitation from ``Sn`` to the next-arriving peer ``Sn+1``."""

    signal_id: str
    detection_time: float  #: ``t0`` -- initial detection instant
    next_ordinal: int  #: the receiver's position ``n+1`` in the chain
    estimate: GeolocationEstimate  #: preliminary result so far
    measurement_count: int  #: accumulated measurements (payload proxy)
    chain: Tuple[str, ...]  #: names of satellites already in the chain


@dataclass(frozen=True)
class CoordinationDone:
    """Termination notification propagated down the chain."""

    signal_id: str
    final_estimate: GeolocationEstimate
    terminated_by: str


@dataclass(frozen=True)
class AlertMessage:
    """The result delivered to the ground station."""

    signal_id: str
    estimate: GeolocationEstimate
    sent_by: str
    sent_at: float  #: send time in minutes since scenario start
    detection_time: float  #: ``t0``
    chain: Tuple[str, ...]

    @property
    def latency(self) -> float:
        """Minutes from initial detection to alert transmission (must
        not exceed ``tau``)."""
        return self.sent_at - self.detection_time

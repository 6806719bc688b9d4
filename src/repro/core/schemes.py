"""QoS-enhancement schemes compared in the paper's evaluation.

* **OAQ** -- opportunity-adaptive QoS enhancement: in the overlapping
  case the first detecting satellite withholds its preliminary result
  and waits (within the deadline) for overlapped footprints to arrive;
  in the underlapping case surviving satellites that consecutively
  revisit the target coordinate for iterative accuracy improvement.
* **BAQ** -- basic fault-adaptive QoS enhancement: the constellation is
  still protected by in-orbit spares and by scheduled and
  threshold-triggered ground-spare deployment, but delivers the result
  right after the initial computation, so sequential dual coverage
  (QoS level 2) is never achieved and simultaneous dual coverage only
  happens if the signal starts inside an overlapped region.
"""

from __future__ import annotations

import enum

__all__ = ["Scheme"]


class Scheme(enum.Enum):
    """Identifier of the QoS-enhancement scheme under evaluation."""

    OAQ = "oaq"
    BAQ = "baq"

    @property
    def supports_sequential_coverage(self) -> bool:
        """Whether QoS level 2 (sequential dual coverage) is reachable
        under this scheme."""
        return self is Scheme.OAQ

    def __str__(self) -> str:
        return self.name

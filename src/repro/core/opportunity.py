"""Window-of-opportunity calculus (paper Sections 1 and 3.2).

The OAQ window of opportunity is bounded *temporally* by the
alert-delivery deadline and the signal duration, and *spatially* by the
number of satellites whose travel patterns bring their footprints to
the target in time.  This module holds the spatial bound, ``M[k]``
(Eq. 2), as the protocol experiment reads it.  The temporal bounds --
TC-2, under which ``Sn`` stops extending the chain once
``getTime() - t0 > tau - (n * delta + Tg)``, and the wait deadline
``t0 + tau - (n - 1) * delta`` -- are written inline where the protocol
engines evaluate them (``repro.protocol.satellite`` and the vector
engine in ``repro.simulation.vector``).
"""

from __future__ import annotations

from repro.core.config import EvaluationParams
from repro.geometry.plane import PlaneGeometry

__all__ = ["max_chain_length"]


def max_chain_length(geometry: PlaneGeometry, params: EvaluationParams) -> int:
    """Spatial bound on the coordination scale within the opportunity
    window: ``M[k]`` for an underlapping plane (Eq. 2); for an
    overlapping plane the opportunity is the simultaneous dual coverage,
    so two satellites participate but no chain forms."""
    if geometry.overlapping:
        return 2
    return geometry.max_consecutive_coverage(params.tau)

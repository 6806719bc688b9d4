"""The geolocation-accuracy model of the protocol simulation.

The protocol needs to know what error a geolocation iteration yields so
TC-1 (error below threshold) can be evaluated.  The model is fixed and
synthetic, capturing the qualitative facts from the
sequential-localization literature the paper builds on: a
single-coverage result is coarse (tens of km at LEO, driven by the
ground-track mirror ambiguity), each sequential pass shrinks the error
by a constant factor, and a simultaneous dual coverage is dramatically
better ("the ambiguity problem will practically disappear").  Every
error is scaled by a jitter factor drawn uniformly from
``[1 - JITTER, 1 + JITTER]``.

The scalar protocol (:mod:`repro.protocol.satellite`) draws one factor
per estimate through :func:`jittered`; the vector engine
(:mod:`repro.simulation.vector`) draws the same factors as a tape and
applies the same constants, so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "JITTER",
    "REFINEMENT_FACTOR",
    "SIMULTANEOUS_KM",
    "SINGLE_PASS_KM",
    "jittered",
]

#: Error of an initial, single-coverage result (km).
SINGLE_PASS_KM = 40.0
#: Factor one sequential refinement pass multiplies the error by.
REFINEMENT_FACTOR = 0.25
#: Error of a simultaneous-dual-coverage result (km).
SIMULTANEOUS_KM = 0.5
#: Half-width of the uniform relative jitter on every error.
JITTER = 0.1


def jittered(value: float, rng: np.random.Generator) -> float:
    """``value`` scaled by one jitter factor drawn from ``rng``."""
    return value * float(rng.uniform(1.0 - JITTER, 1.0 + JITTER))

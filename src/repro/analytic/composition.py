"""Composition of the QoS measure (paper Eq. 3).

``P(Y >= y) ~= SUM_{y' >= y} SUM_{k=9}^{14} P(Y = y' | k) P(k)``

The conditional distributions come from
:mod:`repro.analytic.qos_model`; the orbital-plane capacity
probabilities ``P(k)`` come from :mod:`repro.analytic.capacity` (or any
other mapping, e.g. a simulation estimate).  The paper neglects
``k < 9`` because the spare-deployment policies make those states
extremely unlikely; accordingly the supplied ``P(k)`` may sum to
slightly less than one and is renormalised (the truncation tolerance is
configurable so a genuinely deficient distribution is still rejected).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

from repro.core.qos import QoSDistribution
from repro.errors import ConfigurationError

__all__ = ["compose", "truncate_capacity"]


def truncate_capacity(
    capacity_probabilities: Mapping[int, float], floor: int
) -> Dict[int, float]:
    """Eq. (3) truncation of ``P(k)``: keep ``k >= floor``.

    Aggressive policies (long replacement latencies, low thresholds)
    push real mass below the paper's floor; while the retained mass is
    below 96% the floor is extended downwards rather than
    mis-normalising.  ``k = 0`` is always dropped -- an empty plane has
    no geometry and the spare policies make it negligible.
    """
    while floor > 1:
        retained = {
            k: p for k, p in capacity_probabilities.items() if k >= floor
        }
        if sum(retained.values()) >= 0.96:
            return retained
        floor -= 1
    return {k: p for k, p in capacity_probabilities.items() if k >= 1}


def compose(
    capacity_probabilities: Mapping[int, float],
    conditional: Callable[[int], QoSDistribution],
    *,
    truncation_tolerance: float = 0.05,
) -> QoSDistribution:
    """Mix conditional QoS distributions by plane-capacity weights.

    Parameters
    ----------
    capacity_probabilities:
        ``P(k)`` for each retained capacity ``k``.  Must sum to 1 within
        ``truncation_tolerance`` (Eq. (3) truncates ``k < 9``); the
        weights are renormalised.
    conditional:
        Function returning ``P(Y = . | k)`` for a capacity ``k``.
    """
    if not capacity_probabilities:
        raise ConfigurationError("capacity_probabilities is empty")
    total = sum(capacity_probabilities.values())
    if any(p < 0 for p in capacity_probabilities.values()):
        raise ConfigurationError(
            f"capacity probabilities must be non-negative: {capacity_probabilities}"
        )
    if abs(total - 1.0) > truncation_tolerance:
        raise ConfigurationError(
            f"capacity probabilities sum to {total:.6f}, outside the allowed "
            f"truncation tolerance {truncation_tolerance}"
        )
    components = [
        (p / total, conditional(k))
        for k, p in sorted(capacity_probabilities.items())
        if p > 0.0
    ]
    return QoSDistribution.mixture(components)


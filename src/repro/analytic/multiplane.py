"""Multi-plane QoS composition (extension).

The paper's measure is deliberately conservative: the signal sits on
the centre line of *one* plane's footprint trajectory, where (at ~30
degrees latitude) neighbouring planes' footprints do not help.  Off
the centre line -- and especially at higher latitudes (see the
``orbits-latitude`` experiment) -- a target is covered by the
trajectories of **several** planes, each degrading independently
(there are no shared spares between planes, Section 4.2.2).

Under that independence, if each covering plane would deliver quality
``Y_p``, the constellation delivers ``max_p Y_p``: alert consumers act
on the best result.  This module computes that distribution, bounding
how much better than the paper's worst case the off-centre-line
service is.
"""

from __future__ import annotations

from typing import Sequence

from repro.analytic.framework import OAQFramework
from repro.core.config import EvaluationParams
from repro.core.qos import QoSDistribution, QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError

__all__ = ["best_of_planes", "multi_plane_distribution"]


def best_of_planes(distributions: Sequence[QoSDistribution]) -> QoSDistribution:
    """Distribution of ``max_p Y_p`` for independent planes.

    ``P(max <= y) = prod_p P(Y_p <= y)``; the pmf follows by
    differencing the cdf over the (finite) level set.
    """
    distributions = list(distributions)
    if not distributions:
        raise ConfigurationError("best_of_planes needs at least one plane")
    levels = sorted(QoSLevel)
    cdf = []
    for level in levels:
        product = 1.0
        for dist in distributions:
            at_most = sum(dist[lv] for lv in levels if lv <= level)
            product *= at_most
        cdf.append(product)
    pmf = {}
    previous = 0.0
    for level, value in zip(levels, cdf):
        pmf[level] = max(0.0, value - previous)
        previous = value
    return QoSDistribution(pmf)


def multi_plane_distribution(
    params: EvaluationParams,
    scheme: Scheme,
    *,
    covering_planes: int = 2,
    capacity_stages: int = 24,
) -> QoSDistribution:
    """``P(max_p Y_p = y)`` for ``covering_planes`` i.i.d. planes, each
    evaluated with the full Eq. (3) pipeline."""
    if covering_planes < 1:
        raise ConfigurationError(
            f"covering_planes must be >= 1, got {covering_planes}"
        )
    single = OAQFramework(
        params, capacity_stages=capacity_stages
    ).qos_distribution(scheme)
    return best_of_planes([single] * covering_planes)

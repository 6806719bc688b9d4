"""Small-sample statistics for fault-injection campaigns.

Campaign results are Bernoulli counts (``successes`` runs out of
``trials`` achieved QoS level ``>= y``), so the natural uncertainty
statement is a binomial-proportion confidence interval.  The engine
uses the **Wilson score interval**: unlike the Wald interval it stays
inside ``[0, 1]``, behaves sensibly at 0 or ``n`` successes (both
common in fault campaigns -- e.g. BAQ never reaches level 2), and has
close-to-nominal coverage at the campaign sizes used here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

from repro.errors import ConfigurationError, require_integer

__all__ = ["WilsonInterval", "wilson_interval"]


@dataclass(frozen=True)
class WilsonInterval:
    """A binomial-proportion confidence interval.

    Attributes
    ----------
    successes / trials:
        The Bernoulli counts the interval summarises.
    confidence:
        Nominal two-sided coverage (e.g. 0.95).
    low / high:
        The interval bounds, both inside ``[0, 1]``.
    """

    successes: int
    trials: int
    confidence: float
    low: float
    high: float

    @property
    def point(self) -> float:
        """The empirical proportion ``successes / trials``."""
        return self.successes / self.trials

    def contains(self, probability: float) -> bool:
        """Whether ``probability`` lies inside ``[low, high]``."""
        return self.low <= probability <= self.high


@functools.lru_cache(maxsize=None)
def _normal_quantile(confidence: float) -> float:
    """Two-sided normal quantile ``z`` for ``confidence`` (a campaign
    asks for the same one at every cell and level)."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> WilsonInterval:
    """Wilson score interval for a binomial proportion.

    With ``p = successes / trials`` and ``z`` the two-sided normal
    quantile for ``confidence``::

        centre = (p + z^2 / 2n) / (1 + z^2 / n)
        half   = z / (1 + z^2 / n) * sqrt(p (1 - p) / n + z^2 / 4 n^2)

    At 0 and ``n`` successes the exact bounds are ``low = 0`` and
    ``high = 1``; they are returned as such, because ``centre - half``
    and ``centre + half`` land a few ulps off and would exclude the
    point estimate itself.
    """
    require_integer("trials", trials, 1)
    if not 0 <= require_integer("successes", successes) <= trials:
        raise ConfigurationError(
            f"successes must be in [0, trials={trials}], got {successes}"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    z = _normal_quantile(confidence)
    n = float(trials)
    p = successes / n
    denominator = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denominator
    half = (z / denominator) * math.sqrt(
        p * (1.0 - p) / n + z * z / (4.0 * n * n)
    )
    return WilsonInterval(
        successes=successes,
        trials=trials,
        confidence=confidence,
        low=0.0 if successes == 0 else max(0.0, centre - half),
        high=1.0 if successes == trials else min(1.0, centre + half),
    )

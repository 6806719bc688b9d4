"""QoS spectrum of the reference geolocation constellation (paper
Section 4.2.1, Table 1).

The constellation's service is rated on a four-level spectrum ``Y``:

======  ======================  =============================================
 Y      name                    meaning
======  ======================  =============================================
 3      simultaneous dual       position determined from two satellites
                                covering the target *at the same time*
                                (possible only when footprints overlap)
 2      sequential dual         position refined by two satellites that
                                *consecutively* revisit the target
                                (possible only when footprints underlap,
                                and only under the OAQ scheme)
 1      single coverage         position determined from a single
                                satellite's measurements
 0      missing target          the signal terminated before any footprint
                                arrived (possible only when footprints
                                underlap)
======  ======================  =============================================

The paper's QoS measure is ``P(Y >= y)`` -- the probability that the
system delivers a geolocation result rated at level ``y`` or above,
given that a signal occurs.  :class:`QoSDistribution` carries a full
distribution over levels and exposes that measure.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, Mapping

from repro.errors import ConfigurationError

__all__ = ["QoSLevel", "QoSDistribution", "QOS_SPECTRUM"]


class QoSLevel(enum.IntEnum):
    """The four QoS levels of the reference constellation."""

    MISSED = 0
    SINGLE = 1
    SEQUENTIAL_DUAL = 2
    SIMULTANEOUS_DUAL = 3

    @classmethod
    def achievable_levels(cls, overlapping: bool) -> "tuple[QoSLevel, ...]":
        """Levels achievable under the given geometric orientation
        (paper Table 1, independent of scheme)."""
        if overlapping:
            return (cls.SIMULTANEOUS_DUAL, cls.SINGLE)
        return (cls.SEQUENTIAL_DUAL, cls.SINGLE, cls.MISSED)


#: All levels, highest first (handy for report tables).
QOS_SPECTRUM = tuple(sorted(QoSLevel, reverse=True))


class QoSDistribution:
    """A probability distribution over :class:`QoSLevel`.

    Used both for the conditional distributions ``P(Y = y | k)`` and
    for the composed measure ``P(Y = y)`` of paper Eq. (3).
    """

    __slots__ = ("_probs",)

    def __init__(self, probabilities: Mapping[QoSLevel, float]):
        probs = {level: 0.0 for level in QoSLevel}
        for level, p in probabilities.items():
            level = QoSLevel(level)
            if p < -1e-9:
                raise ConfigurationError(
                    f"probability for {level.name} is negative: {p}"
                )
            probs[level] = max(0.0, float(p))
        total = sum(probs.values())
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise ConfigurationError(
                f"QoS probabilities must sum to 1, got {total!r} ({probs!r})"
            )
        self._probs = probs

    @classmethod
    def mixture(
        cls,
        components: Iterable["tuple[float, QoSDistribution]"],
    ) -> "QoSDistribution":
        """Weighted mixture ``sum_i w_i * D_i`` (weights must sum to 1
        up to ``1e-6``; they are renormalised to absorb truncation
        such as the paper's neglected ``k < 9`` terms in Eq. (3))."""
        weights_and_dists = list(components)
        total_weight = sum(w for w, _ in weights_and_dists)
        if total_weight <= 0:
            raise ConfigurationError("mixture weights must have positive sum")
        if abs(total_weight - 1.0) > 1e-6:
            raise ConfigurationError(
                f"mixture weights must sum to 1 within 1e-6, got {total_weight}"
            )
        probs = {level: 0.0 for level in QoSLevel}
        for weight, dist in weights_and_dists:
            for level in QoSLevel:
                probs[level] += weight * dist[level] / total_weight
        return cls(probs)

    def __getitem__(self, level: QoSLevel) -> float:
        """``P(Y = level)``."""
        return self._probs[QoSLevel(level)]

    def probability(self, level: QoSLevel) -> float:
        """``P(Y = level)`` (alias of ``dist[level]``)."""
        return self[level]

    def at_least(self, level: QoSLevel) -> float:
        """The paper's QoS measure ``P(Y >= level)``."""
        level = QoSLevel(level)
        return min(1.0, sum(p for lv, p in self._probs.items() if lv >= level))

    def as_dict(self) -> Dict[QoSLevel, float]:
        """Copy of the underlying probabilities."""
        return dict(self._probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QoSDistribution):
            return NotImplemented
        return all(
            math.isclose(self[level], other[level], abs_tol=1e-12)
            for level in QoSLevel
        )

    def __hash__(self) -> int:  # pragma: no cover - distributions are not hashed
        return hash(tuple(sorted(self._probs.items())))

    def isclose(self, other: "QoSDistribution", *, abs_tol: float = 1e-9) -> bool:
        """Element-wise closeness test (for assertions in tests)."""
        return all(
            math.isclose(self[level], other[level], abs_tol=abs_tol)
            for level in QoSLevel
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{level.name}={self._probs[level]:.6f}" for level in QOS_SPECTRUM
        )
        return f"QoSDistribution({inner})"

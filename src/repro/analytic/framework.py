"""High-level facade over the reproduction.

:class:`OAQFramework` wires the pieces together the way the paper's
evaluation does: closed-form conditional QoS distributions, the SAN
capacity model and the Eq. (3) composition -- all from one
:class:`~repro.core.config.EvaluationParams`.

    >>> from repro import OAQFramework, EvaluationParams, Scheme, QoSLevel
    >>> framework = OAQFramework(EvaluationParams(node_failure_rate_per_hour=1e-4))
    >>> framework.qos_measure(Scheme.OAQ, QoSLevel.SEQUENTIAL_DUAL)  # P(Y >= 2)
    0.39...
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analytic.capacity import CapacityModelConfig, capacity_distribution
from repro.analytic.composition import compose, truncate_capacity
from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSDistribution, QoSLevel
from repro.core.schemes import Scheme

__all__ = ["OAQFramework"]


class OAQFramework:
    """One-stop evaluation of the OAQ / BAQ QoS measures.

    Parameters
    ----------
    params:
        The experiment's parameters (Section 4 notation).
    capacity_stages:
        Erlang stages for the deterministic timers of the capacity SAN.

    The smallest ``k`` retained in the Eq. (3) truncation is ``eta - 1``
    (at least 1) -- for the paper's ``eta = 10`` that is the k >= 9
    truncation of Eq. (3); the sustain-at-threshold policy makes deeper
    excursions extremely unlikely.
    """

    def __init__(self, params: EvaluationParams, *, capacity_stages: int = 24):
        self.params = params
        self.capacity_stages = capacity_stages
        self.min_capacity = max(1, params.eta - 1)
        self._capacity_cache: Optional[Dict[int, float]] = None

    # ------------------------------------------------------------------
    # Constituent measures
    # ------------------------------------------------------------------
    def conditional_qos(self, capacity: int, scheme: Scheme) -> QoSDistribution:
        """``P(Y = y | k)`` for this experiment's parameters."""
        geometry = self.params.constellation.plane_geometry(capacity)
        return conditional_distribution(geometry, self.params, scheme)

    def capacity_probabilities(self) -> Dict[int, float]:
        """``P(k)`` from the SAN capacity model, truncated as in Eq. (3).

        The solve itself is memoized process-wide on the frozen
        ``(CapacityModelConfig, stages)`` key (see
        :mod:`repro.analytic.solve_cache`), so distinct framework
        instances over the same capacity parameters -- e.g. every point
        of a ``tau``/``mu`` sweep -- share one solve; this instance
        additionally keeps a direct reference to skip the key lookup.

        Only ``k >= min_capacity`` is kept (extended downwards by
        :func:`repro.analytic.composition.truncate_capacity` when that
        retains too little mass; the composition renormalises the small
        missing mass).
        """
        if self._capacity_cache is None:
            config = CapacityModelConfig.from_params(self.params)
            self._capacity_cache = capacity_distribution(
                config, stages=self.capacity_stages
            )
        return truncate_capacity(self._capacity_cache, self.min_capacity)

    # ------------------------------------------------------------------
    # Composed measure (Eq. 3)
    # ------------------------------------------------------------------
    def qos_distribution(self, scheme: Scheme) -> QoSDistribution:
        """The unconditional ``P(Y = y)`` for ``scheme``."""
        capacity_probs = self.capacity_probabilities()
        return compose(
            capacity_probs,
            lambda k: self.conditional_qos(k, scheme),
        )

    def qos_measure(self, scheme: Scheme, level: QoSLevel) -> float:
        """The paper's QoS measure ``P(Y >= level)``."""
        return self.qos_distribution(scheme).at_least(level)

    def compare_schemes(self, level: QoSLevel) -> Dict[Scheme, float]:
        """``P(Y >= level)`` for OAQ and BAQ side by side."""
        return {
            scheme: self.qos_measure(scheme, level)
            for scheme in (Scheme.OAQ, Scheme.BAQ)
        }

    def qos_gain(self, level: QoSLevel) -> float:
        """Absolute OAQ-over-BAQ gain in ``P(Y >= level)``."""
        comparison = self.compare_schemes(level)
        return comparison[Scheme.OAQ] - comparison[Scheme.BAQ]

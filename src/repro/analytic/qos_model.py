"""Closed-form conditional QoS model ``P(Y = y | k)`` (paper
Section 4.2.2, Eqs. (4)-(5) and Theorems 1-2).

Modelling assumptions, as in the paper:

* the signal is located at the centre line of a footprint trajectory at
  about 30 degrees latitude (worst case), so only one plane matters;
* signal occurrence is a Poisson process, hence the onset position is
  uniform over the footprint cycle ``[0, L1[k])``;
* signal duration is ``Exponential(mu)`` and the iterative geolocation
  computation time is ``Exponential(nu)``;
* delivering a level >= 1 result for any *detected* signal is always
  possible within the deadline (the preliminary result is enclosed in
  the alert message), so detection alone decides level 1 versus 0;
* no satellite fails between initial detection and the completion of
  the coordinated computation (the chain involves at most two
  satellites for ``tau < Tc``).

For an **overlapping** plane (``I[k] = 1``), Eq. (4) gives the level-3
probability under OAQ:

``G3[k] = (1/L1) [ INT_0^{Lhat} e^{-mu w} (1 - e^{-nu (tau - w)}) dw
+ L2 (1 - e^{-nu tau}) ]``   with ``Lhat = min(L1 - L2, tau)``,

where ``w`` is the waiting time for the overlapped footprints
(Theorem 1).  Under BAQ the first term disappears (no waiting):
``G3_BAQ[k] = (L2 / L1)(1 - e^{-nu tau})``.  Remaining mass is level 1.

For an **underlapping** plane (``I[k] = 0``), Theorem 2 yields the
OAQ level-2 probability

``G2[k] = (1/L1) INT_{L2}^{Ltilde} e^{-mu w} (1 - e^{-nu (tau - w)}) dw``
for ``tau > L2`` (else 0), with ``Ltilde = min(L1, tau)``,

where ``w`` is the wait for the next satellite.  The target is missed
(level 0) iff the signal starts in the gap and terminates before the
next footprint arrives:

``P(Y = 0 | k) = (1/L1) INT_0^{L2} (1 - e^{-mu w}) dw``.

Everything else is level 1.  The module also provides numerically
integrated variants for arbitrary signal-duration and computation-time
distributions (an extension beyond the paper's exponential
assumptions), which the closed forms are tested against.  Only those
variants need ``scipy.integrate``; it is imported inside
:func:`conditional_distribution_general`, so the closed forms (and the
fault campaigns and protocol runs that check against them) load no
scipy.
"""

from __future__ import annotations

import math

from repro.core.config import EvaluationParams
from repro.core.distributions import Distribution
from repro.core.qos import QoSDistribution, QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.geometry.plane import PlaneGeometry
from repro.geometry.theorems import sequential_window, simultaneous_window

__all__ = [
    "window_success_integral",
    "g3_oaq",
    "g3_baq",
    "g2_oaq",
    "miss_probability",
    "conditional_distribution",
    "conditional_distribution_general",
]


def window_success_integral(
    mu: float, nu: float, tau: float, wait_lo: float, wait_hi: float
) -> float:
    """``INT_{wait_lo}^{wait_hi} e^{-mu w} (1 - e^{-nu (tau - w)}) dw``.

    The integrand is the probability that a signal survives the wait
    ``w`` for the opportunity to arrive, times the probability that the
    iterative computation then completes within the remaining
    ``tau - w`` minutes.  Requires ``0 <= wait_lo <= wait_hi <= tau``.
    """
    if not 0.0 <= wait_lo <= wait_hi:
        raise ConfigurationError(
            f"need 0 <= wait_lo <= wait_hi, got [{wait_lo}, {wait_hi}]"
        )
    if wait_hi > tau + 1e-12:
        raise ConfigurationError(
            f"wait_hi={wait_hi} exceeds the deadline tau={tau}: the window "
            "integral is only defined inside the deadline"
        )
    if mu < 0 or nu <= 0:
        raise ConfigurationError(f"need mu >= 0 and nu > 0, got mu={mu}, nu={nu}")
    if wait_hi == wait_lo:
        return 0.0

    # First part: survival of the signal over the wait.  expm1 keeps
    # the difference accurate for very small mu (where exp(-mu x)
    # values are all ~1 and would cancel catastrophically).  Once
    # mu * wait_hi itself underflows toward the subnormal range, the
    # expm1 difference loses all relative accuracy while dividing by mu
    # amplifies it, so take the mu -> 0 limit (error O(mu * wait_hi)).
    if mu == 0.0 or mu * wait_hi < 1e-280:
        part_survive = wait_hi - wait_lo
    else:
        part_survive = (
            math.expm1(-mu * wait_lo) - math.expm1(-mu * wait_hi)
        ) / mu

    # Second part: e^{-nu tau} INT e^{(nu - mu) w} dw, evaluated with the
    # exponents combined so large nu*tau never overflows:
    # exponent(w) = -nu (tau - w) - mu w  <= 0 for w <= tau.
    def _exponent(w: float) -> float:
        return -nu * (tau - w) - mu * w

    if math.isclose(mu, nu, rel_tol=1e-12, abs_tol=1e-15):
        part_fail = math.exp(-nu * tau) * (wait_hi - wait_lo)
    else:
        part_fail = (math.exp(_exponent(wait_hi)) - math.exp(_exponent(wait_lo))) / (
            nu - mu
        )
    return part_survive - part_fail


def _require_overlap(geometry: PlaneGeometry) -> None:
    if geometry.underlapping:
        raise ConfigurationError(
            f"plane with k={geometry.active_satellites} underlaps; "
            "level 3 (simultaneous dual coverage) is unreachable"
        )


def _require_underlap(geometry: PlaneGeometry) -> None:
    if geometry.overlapping:
        raise ConfigurationError(
            f"plane with k={geometry.active_satellites} overlaps; "
            "level 2 (sequential dual coverage) does not apply"
        )


def g3_oaq(geometry: PlaneGeometry, params: EvaluationParams) -> float:
    """``G3[k]`` (paper Eq. 4): probability of a level-3 result under
    OAQ, given an overlapping plane."""
    _require_overlap(geometry)
    window = simultaneous_window(geometry, params.tau)
    waiting = window_success_integral(
        params.mu, params.nu, params.tau, window.wait_lo, window.wait_hi
    )
    immediate = window.immediate_measure * -math.expm1(-params.nu * params.tau)
    return (waiting + immediate) / geometry.l1


def g3_baq(geometry: PlaneGeometry, params: EvaluationParams) -> float:
    """Level-3 probability under BAQ: the signal must *start* inside an
    overlapped region (no waiting) and the computation must complete by
    the deadline."""
    _require_overlap(geometry)
    return (geometry.l2 / geometry.l1) * -math.expm1(-params.nu * params.tau)


def g2_oaq(geometry: PlaneGeometry, params: EvaluationParams) -> float:
    """``G2[k]`` (Theorem 2): probability of a level-2 result
    (sequential dual coverage) under OAQ, given an underlapping plane."""
    _require_underlap(geometry)
    window = sequential_window(geometry, params.tau)
    if window.waiting_measure == 0.0:
        return 0.0
    return (
        window_success_integral(
            params.mu, params.nu, params.tau, window.wait_lo, window.wait_hi
        )
        / geometry.l1
    )


def miss_probability(geometry: PlaneGeometry, params: EvaluationParams) -> float:
    """``P(Y = 0 | k)``: the signal starts inside the coverage gap and
    terminates before the next footprint arrives.  Scheme-independent
    (detection is geometry, not policy); zero for overlapping planes."""
    if geometry.overlapping:
        return 0.0
    l2, mu = geometry.l2, params.mu
    if l2 == 0.0:
        return 0.0
    # INT_0^{L2} (1 - e^{-mu w}) dw = L2 - (1 - e^{-mu L2}) / mu
    integral = l2 - (-math.expm1(-mu * l2)) / mu
    return integral / geometry.l1


def conditional_distribution(
    geometry: PlaneGeometry, params: EvaluationParams, scheme: Scheme
) -> QoSDistribution:
    """``P(Y = y | k)`` for the given scheme (paper Eq. 5 and the
    analogous level-2/1/0 solutions)."""
    geometry.require_pairwise_overlap()
    if geometry.overlapping:
        if scheme is Scheme.OAQ:
            p3 = g3_oaq(geometry, params)
        else:
            p3 = g3_baq(geometry, params)
        return QoSDistribution(
            {QoSLevel.SIMULTANEOUS_DUAL: p3, QoSLevel.SINGLE: 1.0 - p3}
        )
    p0 = miss_probability(geometry, params)
    p2 = g2_oaq(geometry, params) if scheme.supports_sequential_coverage else 0.0
    return QoSDistribution(
        {
            QoSLevel.SEQUENTIAL_DUAL: p2,
            QoSLevel.SINGLE: 1.0 - p0 - p2,
            QoSLevel.MISSED: p0,
        }
    )


_QUAD_LIMIT = 200


def conditional_distribution_general(
    geometry: PlaneGeometry,
    deadline: float,
    signal_duration: Distribution,
    computation_time: Distribution,
    scheme: Scheme,
) -> QoSDistribution:
    """``P(Y = y | k)`` for *arbitrary* signal-duration and
    computation-time distributions, by numerical integration (at most
    ``_QUAD_LIMIT`` subintervals per quadrature).

    This generalises the paper's exponential assumptions.  For
    ``Exponential`` inputs it agrees with
    :func:`conditional_distribution` (verified by tests).
    """
    if deadline < 0:
        raise ConfigurationError(f"deadline must be >= 0, got {deadline}")
    from scipy import integrate

    def success(w: float) -> float:
        return signal_duration.survival(w) * computation_time.cdf(deadline - w)

    if geometry.overlapping:
        window = simultaneous_window(geometry, deadline)
        if scheme is Scheme.OAQ and window.waiting_measure > 0.0:
            waiting, _ = integrate.quad(
                success, window.wait_lo, window.wait_hi, limit=_QUAD_LIMIT
            )
        else:
            waiting = 0.0
        immediate = window.immediate_measure * computation_time.cdf(deadline)
        p3 = (waiting + immediate) / geometry.l1
        return QoSDistribution(
            {QoSLevel.SIMULTANEOUS_DUAL: p3, QoSLevel.SINGLE: 1.0 - p3}
        )

    # Underlapping plane.
    if geometry.l2 > 0.0:
        missed, _ = integrate.quad(
            lambda w: signal_duration.cdf(w), 0.0, geometry.l2, limit=_QUAD_LIMIT
        )
        p0 = missed / geometry.l1
    else:
        p0 = 0.0
    p2 = 0.0
    if scheme.supports_sequential_coverage:
        window = sequential_window(geometry, deadline)
        if window.waiting_measure > 0.0:
            value, _ = integrate.quad(
                success, window.wait_lo, window.wait_hi, limit=_QUAD_LIMIT
            )
            p2 = value / geometry.l1
    return QoSDistribution(
        {
            QoSLevel.SEQUENTIAL_DUAL: p2,
            QoSLevel.SINGLE: 1.0 - p0 - p2,
            QoSLevel.MISSED: p0,
        }
    )

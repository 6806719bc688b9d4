"""Monte-Carlo estimation of the conditional QoS distribution
``P(Y = y | k)``.

Two estimators, both independent of the closed forms in
:mod:`repro.analytic.qos_model` and used to cross-validate them:

* :func:`simulate_conditional_distribution` -- a fast sampler that
  applies the model's success rules directly (onset uniform over the
  cycle, exponential duration and computation time, Theorem 1/2
  windows).  The rules are evaluated by the fully vectorised
  :func:`classify_qos_levels` over ``(onset, duration, computation)``
  arrays; the scalar :func:`sample_qos_level` is its oracle -- the
  readable specification, pinned element for element against it in
  the test suite.
* :func:`simulate_conditional_distribution_protocol` -- the heavyweight
  check: every sample runs the *full* OAQ message-passing protocol on
  the vector engine of :mod:`repro.simulation.vector`.  Small
  systematic differences vs the analytic model (the crosslink delay
  ``delta`` and computation bound ``Tg``, which it ignores) are
  bounded by the test tolerances.

Both draw their signals through :func:`draw_signal_variates` (onsets
uniform over the cycle, durations and computation times exponential).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.qos import QoSDistribution, QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.geometry.intervals import CoverageKind, FootprintCycle
from repro.geometry.plane import PlaneGeometry

__all__ = [
    "simulate_conditional_distribution",
    "simulate_conditional_distribution_protocol",
    "classify_qos_levels",
    "sample_qos_level",
    "draw_signal_variates",
]


def sample_qos_level(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    scheme: Scheme,
    rng: np.random.Generator,
) -> QoSLevel:
    """Draw one signal and classify the QoS level it achieves under the
    model's assumptions (scalar specification; see
    :func:`classify_qos_levels` for the batched form)."""
    cycle = FootprintCycle(geometry)
    onset = float(rng.uniform(0.0, geometry.l1))
    duration = float(rng.exponential(1.0 / params.mu))
    computation = float(rng.exponential(1.0 / params.nu))
    tau = params.tau
    kind = cycle.interval_at(onset).kind

    if geometry.overlapping:
        # Always covered; detection at onset.  Level 3 requires reaching
        # (or starting inside) a double-coverage interval in time and
        # finishing the computation by the deadline.
        wait = cycle.wait_until_double_coverage(onset)
        if scheme is Scheme.BAQ and wait > 0.0:
            return QoSLevel.SINGLE
        if wait > 0.0 and duration <= wait:
            return QoSLevel.SINGLE  # signal died before the opportunity
        if wait + computation <= tau:
            return QoSLevel.SIMULTANEOUS_DUAL
        return QoSLevel.SINGLE

    # Underlapping plane.
    if kind is CoverageKind.GAP:
        time_to_coverage = cycle.wait_until_covered(onset)
        if duration <= time_to_coverage:
            return QoSLevel.MISSED
        # Detected late; the next revisit is a full cycle away, beyond
        # the deadline (Theorem 2's second condition cannot hold for
        # tau <= L1), so a single-coverage result is the ceiling.
        return QoSLevel.SINGLE
    # Onset inside alpha: detected immediately.
    if scheme.supports_sequential_coverage:
        wait = cycle.wait_until_next_satellite(onset)
        if duration > wait and wait + computation <= tau:
            return QoSLevel.SEQUENTIAL_DUAL
    return QoSLevel.SINGLE


def classify_qos_levels(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    scheme: Scheme,
    onset: np.ndarray,
    duration: np.ndarray,
    computation: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`sample_qos_level`: classify the QoS level of
    every ``(onset, duration, computation)`` triple at once.

    Covers all four branches (overlap/underlap x OAQ/BAQ) and returns
    an integer array of QoS levels.  Element-for-element identical to
    the scalar rules -- the test suite pins the equivalence.
    """
    onset = np.asarray(onset, dtype=float)
    duration = np.asarray(duration, dtype=float)
    computation = np.asarray(computation, dtype=float)
    if not onset.shape == duration.shape == computation.shape:
        raise ConfigurationError(
            "onset, duration and computation arrays must share a shape"
        )
    tau = params.tau
    alpha_length = geometry.single_coverage_length
    levels = np.full(onset.shape, int(QoSLevel.SINGLE))

    if geometry.overlapping:
        wait = np.where(onset < alpha_length, alpha_length - onset, 0.0)
        reachable = wait + computation <= tau
        survives = (wait == 0.0) | (duration > wait)
        eligible = reachable & survives
        if scheme is Scheme.BAQ:
            eligible &= wait == 0.0
        levels[eligible] = int(QoSLevel.SIMULTANEOUS_DUAL)
    else:
        in_gap = onset >= alpha_length
        time_to_coverage = geometry.l1 - onset
        missed = in_gap & (duration <= time_to_coverage)
        levels[missed] = int(QoSLevel.MISSED)
        if scheme.supports_sequential_coverage:
            wait = geometry.l1 - onset
            sequential = (
                ~in_gap & (duration > wait) & (wait + computation <= tau)
            )
            levels[sequential] = int(QoSLevel.SEQUENTIAL_DUAL)
    return levels


def _distribution_from_levels(levels: np.ndarray, samples: int) -> QoSDistribution:
    return QoSDistribution(
        {
            level: int(np.count_nonzero(levels == int(level))) / samples
            for level in QoSLevel
        }
    )


def draw_signal_variates(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    samples: int,
    rng: np.random.Generator,
):
    """Draw the per-signal randomness ``(onset, duration, computation)``
    shared by the fast and protocol samplers, in that order: onsets
    uniform over ``[0, L1)`` (the Poisson-arrival assumption), then
    ``Exp(mu)`` durations, then ``Exp(nu)`` computation times."""
    onset = rng.uniform(0.0, geometry.l1, size=samples)
    duration = rng.exponential(1.0 / params.mu, size=samples)
    computation = rng.exponential(1.0 / params.nu, size=samples)
    return onset, duration, computation


def simulate_conditional_distribution(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    scheme: Scheme,
    *,
    samples: int = 100_000,
    seed: Optional[int] = None,
) -> QoSDistribution:
    """Monte-Carlo estimate of ``P(Y = y | k)``.

    Draws ``(onset, duration, computation)`` arrays and classifies them
    with :func:`classify_qos_levels`; bit-reproducible under a fixed
    ``seed``.
    """
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    onset, duration, computation = draw_signal_variates(
        geometry, params, samples, rng
    )
    levels = classify_qos_levels(
        geometry, params, scheme, onset, duration, computation
    )
    return _distribution_from_levels(levels, samples)


def simulate_conditional_distribution_protocol(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    scheme: Scheme,
    *,
    samples: int = 2_000,
    seed: Optional[int] = None,
) -> QoSDistribution:
    """Monte-Carlo estimate of ``P(Y = y | k)`` where each sample runs
    the full message-passing protocol.

    Builds one :class:`~repro.simulation.batch.ScenarioTemplate` for
    the cell and hands every sample to the struct-of-arrays engine of
    :mod:`repro.simulation.vector` through
    :meth:`~repro.simulation.batch.ScenarioTemplate.sample_levels`:
    signal variates first, then protocol tapes, both off one generator
    on ``SeedSequence(seed)``.  Deterministic under a fixed ``seed``
    and exact against the tape-driven scalar oracle; per-seed
    ``replicate`` runs agree with it statistically, not sample for
    sample (see ``docs/SIMULATION.md``).
    """
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    from repro.simulation.batch import ScenarioTemplate

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    onsets, durations, _ = draw_signal_variates(geometry, params, samples, rng)
    template = ScenarioTemplate(geometry, params, scheme=scheme)
    levels, _ = template.sample_levels(rng, onsets, durations)
    return _distribution_from_levels(levels, samples)

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
Protocol cells -- this module's and the fault campaign's -- run through
:func:`sample_level_counts`, which evaluates them in blocks of at most
:data:`BLOCK_ROWS` rows, so a cell's memory does not grow with its
size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.qos import QoSDistribution, QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError, require_integer
from repro.geometry.intervals import CoverageKind, FootprintCycle
from repro.geometry.plane import PlaneGeometry

if TYPE_CHECKING:
    from repro.simulation.batch import ScenarioTemplate
    from repro.simulation.vector import FaultSchedule

__all__ = [
    "simulate_conditional_distribution",
    "simulate_conditional_distribution_protocol",
    "classify_qos_levels",
    "sample_qos_level",
    "draw_signal_variates",
    "sample_level_counts",
    "BLOCK_ROWS",
]

#: Rows per vector-engine block in :func:`sample_level_counts`.  A cell
#: of at most this many rows draws exactly what one ``sample_levels``
#: call over all of it would; a larger cell draws block after block.
BLOCK_ROWS = 2**17


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


def _distribution_from_counts(counts: np.ndarray, samples: int) -> QoSDistribution:
    """The empirical distribution of per-level ``counts`` (indexed by
    level) over ``samples`` draws."""
    return QoSDistribution(
        {level: int(counts[int(level)]) / samples for level in QoSLevel}
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
    require_integer("samples", samples, 1)
    rng = np.random.default_rng(seed)
    onset, duration, computation = draw_signal_variates(
        geometry, params, samples, rng
    )
    levels = classify_qos_levels(
        geometry, params, scheme, onset, duration, computation
    )
    return _distribution_from_counts(np.bincount(levels, minlength=4), samples)


def sample_level_counts(
    template: "ScenarioTemplate",
    runs: int,
    rng: np.random.Generator,
    faults: Optional["FaultSchedule"] = None,
) -> Tuple[np.ndarray, int]:
    """Run ``runs`` protocol rows of ``template`` on the vector engine
    and return ``(counts, detected)``: rows per achieved QoS level
    (length 4, indexed by level) and rows whose signal was detected.

    Rows are evaluated in blocks of at most :data:`BLOCK_ROWS`.  Each
    block draws its signal variates with :func:`draw_signal_variates`
    and hands them, with ``faults``, to
    :meth:`~repro.simulation.batch.ScenarioTemplate.sample_levels`, all
    off the shared ``rng``.  So ``runs <= BLOCK_ROWS`` draws exactly the
    one-shot stream (variates for every row, then tapes), and a larger
    cell equals consecutive block-sized calls on one generator.
    """
    counts = np.zeros(4, dtype=np.int64)
    detected = 0
    for start in range(0, runs, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, runs - start)
        onsets, durations, _ = draw_signal_variates(
            template.geometry, template.params, rows, rng
        )
        levels, hits = template.sample_levels(rng, onsets, durations, faults)
        counts += np.bincount(levels, minlength=4)[:4]
        detected += int(np.count_nonzero(hits))
    return counts, detected


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
    the cell and runs every sample on the struct-of-arrays engine of
    :mod:`repro.simulation.vector` through :func:`sample_level_counts`:
    per block of at most :data:`BLOCK_ROWS` samples, signal variates
    first, then protocol tapes, all off one generator on
    ``SeedSequence(seed)``.  Deterministic under a fixed ``seed`` and
    exact against the tape-driven scalar oracle; per-seed
    ``replicate`` runs agree with it statistically, not sample for
    sample (see ``docs/SIMULATION.md``).
    """
    require_integer("samples", samples, 1)
    from repro.simulation.batch import ScenarioTemplate

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    template = ScenarioTemplate(geometry, params, scheme=scheme)
    counts, _ = sample_level_counts(template, samples, rng)
    return _distribution_from_counts(counts, samples)

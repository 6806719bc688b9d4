"""Cross-solver conformance harness: run scenario cases through the
analytic stack and the Monte-Carlo engines and evaluate the declared
per-cell checks.

For every :class:`~repro.scenarios.schema.ScenarioCase` the harness

* solves the plane-capacity distribution ``P(k)`` on the counted SAN
  chain (and, where the cell declares it, on the symmetry-lumped and
  unlumped expanded chains -- :func:`repro.analytic.capacity
  .capacity_cross_check`);
* composes the analytic QoS measure ``P(Y >= y)`` (paper Eq. 3) from
  the closed-form conditionals, or from the general numerical
  integrator for non-exponential duration models;
* estimates the same measure by seeded Monte-Carlo: capacities drawn
  multinomially from ``P(k)``, signals classified by the vectorised
  batch classifier (:func:`repro.simulation.qos_montecarlo
  .classify_qos_levels`);
* for fault cells, runs a seeded batched protocol campaign
  (:class:`repro.faults.campaign.Campaign`, which replays
  :class:`~repro.simulation.batch.ScenarioTemplate` replications) and
  scores it against the analytic references where they exist;
* records a fallback/exception taxonomy: per-cell deltas of the
  capacity solver's ``solver_fallbacks`` / ``structure_fallbacks``
  counters, and the exception types any stage raised.

Checks (a case declares a subset via ``ScenarioCase.checks``):

``analytic_vs_mc``
    For every threshold ``y in {1, 2, 3}``, the analytic ``P(Y >= y)``
    must lie inside the Wilson interval of the Monte-Carlo count at the
    case's declared confidence.
``alert_deadline``
    The alert-deadline hit rate ``P(Y >= 1)`` specifically -- the
    operational headline number -- same Wilson containment.
``lumped_vs_counted``
    Max pointwise ``|P(k)|`` delta between the lumped expanded chain
    and the counted chain, within ``lumped_tolerance``.
``lumped_vs_unlumped``
    Same delta between the lumped and *unlumped* expanded chains
    (small constellations only: the unlumped space is exponential).
``fault_campaign``
    Wilson sanity of every campaign cell, plus analytic containment
    for the fault-free plan (both schemes) and, when applicable, the
    all-successors-fail-silent degradation reference.
``protocol_mc``
    Exact conformance of the struct-of-arrays protocol engine
    (:mod:`repro.simulation.vector`) against the scalar event-driven
    oracle on shared randomness tapes at the cell's
    ``fault_capacity``: every replication's ``(level, detected)`` pair
    must match bit for bit, and the divergence-mask fallback fraction
    is recorded.  Off by default in generated corpora; ``corpus run
    --protocol-mc`` forces it onto every cell.

All randomness is keyed by ``ScenarioCase.mc_seed``; rerunning a case
or a corpus reproduces the same counts exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.analytic.capacity import capacity_cross_check, capacity_distribution
from repro.analytic.composition import compose
from repro.analytic.distributions import Exponential
from repro.analytic.qos_model import (
    conditional_distribution,
    conditional_distribution_general,
)
from repro.core.qos import QoSDistribution, QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.faults.campaign import Campaign, PlanOutcome
from repro.faults.plan import FaultPlan
from repro.faults.stats import wilson_interval
from repro.faults.validation import fail_silent_reference
from repro.scenarios.schema import ScenarioCase
from repro.simulation.qos_montecarlo import classify_qos_levels

__all__ = [
    "CheckOutcome",
    "CellResult",
    "CorpusRunResult",
    "run_case",
    "run_corpus",
]

#: The thresholds scored by the analytic-vs-MC containment checks.
_THRESHOLDS = (
    QoSLevel.SINGLE,
    QoSLevel.SEQUENTIAL_DUAL,
    QoSLevel.SIMULTANEOUS_DUAL,
)

#: Slack for Wilson-bound containment: at extreme counts (0 or n
#: successes) the interval endpoints land within a few ulps of the
#: point estimate, so exact comparisons fail spuriously.
_WILSON_EPS = 1e-9


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one declared check on one cell."""

    name: str
    passed: bool
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class CellResult:
    """Everything the scorer needs about one executed cell.

    ``status`` is ``"pass"`` (every declared check passed), ``"fail"``
    (some check failed) or ``"error"`` (a stage raised); ``fallbacks``
    holds the per-cell deltas of the capacity solver's fallback
    counters and ``exceptions`` the taxonomy of raised exception types.
    """

    case_id: str
    family: str
    status: str
    checks: List[CheckOutcome]
    metrics: Dict[str, object]
    fallbacks: Dict[str, int]
    exceptions: Dict[str, int]
    seconds: float

    def check(self, name: str) -> CheckOutcome:
        for outcome in self.checks:
            if outcome.name == name:
                return outcome
        raise ConfigurationError(
            f"cell {self.case_id} ran no check named {name!r}"
        )


@dataclass
class CorpusRunResult:
    """All cells of one corpus run plus throughput accounting.

    ``campaign`` holds the orchestrator's scheduling statistics when
    the run went through :class:`repro.campaign.CampaignRunner`
    (``n_jobs > 1`` or a checkpoint journal), ``None`` for the plain
    sequential path."""

    cells: List[CellResult]
    seconds: float
    campaign: Optional[Dict[str, object]] = None

    @property
    def cells_per_sec(self) -> float:
        if self.seconds <= 0.0:
            return float("inf")
        return len(self.cells) / self.seconds

    def counts(self) -> Dict[str, int]:
        """Cells per status."""
        counts = {"pass": 0, "fail": 0, "error": 0}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Analytic pipeline
# ----------------------------------------------------------------------
def _conditional_for(case: ScenarioCase) -> Callable[[int], QoSDistribution]:
    """``k -> P(Y = . | k)`` for the case's duration model: the paper's
    closed forms for exponential durations, the numerical integrator
    otherwise."""
    params = case.params()
    scheme = case.scheme_enum
    if case.duration_model == "exponential":
        def conditional(k: int) -> QoSDistribution:
            return conditional_distribution(case.geometry(k), params, scheme)
    else:
        duration = case.signal_duration()
        computation = Exponential(params.nu)
        def conditional(k: int) -> QoSDistribution:
            return conditional_distribution_general(
                case.geometry(k), params.tau, duration, computation, scheme
            )
    return conditional


def _truncate_pk(case: ScenarioCase, pk: Mapping[int, float]) -> Dict[int, float]:
    """Eq. (3) truncation of ``P(k)``: keep ``k >= eta - 1``, extending
    the floor downwards while the retained mass is below 96% (mirrors
    :meth:`repro.core.framework.OAQFramework.capacity_probabilities`).
    ``k = 0`` is always dropped -- an empty plane has no geometry and
    the spare policies make it negligible.  Both the analytic
    composition and the Monte-Carlo sampler consume this same truncated
    distribution, so the two sides estimate the same measure."""
    floor = max(1, case.params().eta - 1)
    while floor > 1:
        retained = {k: p for k, p in pk.items() if k >= floor}
        if sum(retained.values()) >= 0.96:
            return retained
        floor -= 1
    return {k: p for k, p in pk.items() if k >= 1}


def _composed_analytic(
    case: ScenarioCase, pk: Mapping[int, float]
) -> QoSDistribution:
    # Aggressive spare policies can push more than compose's default 5%
    # of the mass below the truncation floor; widen the tolerance to
    # what was actually dropped (the comparison stays exact because the
    # Monte-Carlo sampler draws from the same renormalised weights).
    dropped = max(0.0, 1.0 - sum(pk.values()))
    return compose(
        pk,
        _conditional_for(case),
        truncation_tolerance=max(0.05, dropped + 1e-9),
    )


# ----------------------------------------------------------------------
# Monte-Carlo pipeline
# ----------------------------------------------------------------------
def _mc_level_counts(
    case: ScenarioCase, pk: Mapping[int, float]
) -> Tuple[Dict[int, int], int]:
    """Seeded Monte-Carlo estimate of the composed QoS measure.

    Draws the per-sample capacity ``k`` multinomially from ``P(k)``,
    then draws ``(onset, duration, computation)`` per capacity stratum
    and classifies with the vectorised batch classifier.  Returns
    ``(level -> count, samples)``; deterministic under
    ``case.mc_seed``."""
    params = case.params()
    scheme = case.scheme_enum
    duration_dist = case.signal_duration()
    samples = case.samples
    ks = sorted(k for k, p in pk.items() if p > 0.0)
    probabilities = np.array([pk[k] for k in ks], dtype=float)
    probabilities = probabilities / probabilities.sum()

    root = np.random.SeedSequence(case.mc_seed)
    alloc_rng = np.random.default_rng(root)
    allocation = alloc_rng.multinomial(samples, probabilities)
    counts: Dict[int, int] = {int(level): 0 for level in QoSLevel}
    children = root.spawn(len(ks))
    for k, n_k, child in zip(ks, allocation, children):
        if n_k == 0:
            continue
        rng = np.random.default_rng(child)
        geometry = case.geometry(k)
        onset = rng.uniform(0.0, geometry.l1, size=int(n_k))
        duration = duration_dist.sample_many(rng, int(n_k))
        computation = rng.exponential(1.0 / params.nu, size=int(n_k))
        levels = classify_qos_levels(
            geometry, params, scheme, onset, duration, computation
        )
        values, value_counts = np.unique(levels, return_counts=True)
        for value, count in zip(values.tolist(), value_counts.tolist()):
            counts[int(value)] += int(count)
    return counts, samples


def _count_at_least(counts: Mapping[int, int], level: QoSLevel) -> int:
    return sum(count for value, count in counts.items() if value >= int(level))


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _containment_check(
    name: str,
    analytic: QoSDistribution,
    counts: Mapping[int, int],
    samples: int,
    confidence: float,
    thresholds: Sequence[QoSLevel],
) -> CheckOutcome:
    levels: Dict[str, object] = {}
    passed = True
    for level in thresholds:
        successes = _count_at_least(counts, level)
        interval = wilson_interval(successes, samples, confidence=confidence)
        expected = analytic.at_least(level)
        contained = (
            interval.low - _WILSON_EPS <= expected <= interval.high + _WILSON_EPS
        )
        passed = passed and contained
        levels[f"p_ge_{int(level)}"] = {
            "analytic": expected,
            "mc": successes / samples,
            "wilson_low": interval.low,
            "wilson_high": interval.high,
            "successes": successes,
            "contained": contained,
        }
    return CheckOutcome(
        name=name,
        passed=passed,
        details={"samples": samples, "confidence": confidence, **levels},
    )


def _is_successors_fail_all(plan: FaultPlan) -> bool:
    """Whether ``plan`` is exactly the all-successors-fail-silent-at-0
    plan the degraded closed form covers."""
    return (
        plan.fail_successors_at == 0.0
        and plan.fail_successor_count is None
        and not plan.fail_silent
        and plan.crosslink_loss == 0.0
        and not plan.link_loss
        and not plan.downlink_blackouts
        and plan.membership_staleness is None
    )


def _fault_campaign_check(case: ScenarioCase) -> Tuple[CheckOutcome, Dict[str, object]]:
    """Run the seeded batched fault campaign for a fault cell and score
    it: Wilson sanity on every (plan, scheme) outcome, analytic
    containment for the fault-free plan, and the fail-silent
    degradation reference where the plan matches it."""
    assert case.fault_plan is not None
    params = case.params()
    geometry = case.geometry(case.fault_capacity)
    plans = [FaultPlan.fault_free()]
    if not case.fault_plan.is_fault_free:
        plans.append(case.fault_plan)
    campaign = Campaign(
        params,
        capacity=case.fault_capacity,
        plans=plans,
        schemes=(Scheme.OAQ, Scheme.BAQ),
        runs=case.fault_runs,
        seed=case.mc_seed,
        confidence=case.confidence,
    )
    result = campaign.run()

    passed = True
    details: Dict[str, object] = {
        "runs": case.fault_runs,
        "confidence": case.confidence,
        "plans": [plan.name for plan in plans],
    }
    metrics: Dict[str, object] = {}

    def reference_for(outcome: PlanOutcome) -> Optional[QoSDistribution]:
        if outcome.plan.is_fault_free:
            return conditional_distribution(geometry, params, outcome.scheme)
        if _is_successors_fail_all(outcome.plan) and not geometry.overlapping:
            return fail_silent_reference(geometry, params, outcome.scheme)
        return None

    for outcome in result.outcomes:
        key = f"{outcome.plan.name}/{outcome.scheme.name}"
        cell: Dict[str, object] = {}
        sane = 0 <= outcome.detected <= outcome.runs
        for level in _THRESHOLDS:
            successes = outcome.count_at_least(level)
            interval = wilson_interval(
                successes, outcome.runs, confidence=case.confidence
            )
            point = successes / outcome.runs
            sane = sane and (
                -_WILSON_EPS
                <= interval.low
                <= point + _WILSON_EPS
                and point - _WILSON_EPS
                <= interval.high
                <= 1.0 + _WILSON_EPS
            )
            cell[f"p_ge_{int(level)}"] = {
                "mc": point,
                "wilson_low": interval.low,
                "wilson_high": interval.high,
            }
        cell["wilson_sane"] = sane
        passed = passed and sane

        reference = reference_for(outcome)
        if reference is not None:
            contained = True
            for level in _THRESHOLDS:
                successes = outcome.count_at_least(level)
                interval = wilson_interval(
                    successes, outcome.runs, confidence=case.confidence
                )
                expected = reference.at_least(level)
                level_ok = (
                    interval.low - _WILSON_EPS
                    <= expected
                    <= interval.high + _WILSON_EPS
                )
                cell[f"p_ge_{int(level)}"]["analytic"] = expected
                cell[f"p_ge_{int(level)}"]["contained"] = level_ok
                contained = contained and level_ok
            cell["reference_contained"] = contained
            passed = passed and contained
        details[key] = cell
        metrics[f"fault/{key}/mean_level"] = outcome.mean_level()
    return CheckOutcome("fault_campaign", passed, details), metrics


#: Replication cap for the ``protocol_mc`` exactness check: every row
#: is re-run through the scalar oracle (~0.1 ms each), so the check is
#: bounded independently of the case's Monte-Carlo sample budget.
_PROTOCOL_MC_CAP = 1_024


def _protocol_mc_check(case: ScenarioCase) -> Tuple[CheckOutcome, Dict[str, object]]:
    """Exact vector-vs-oracle conformance at ``case.fault_capacity``:
    run the same signal variates and protocol tapes through the
    struct-of-arrays engine and the scalar event-driven engine and
    require bit-for-bit equal ``(level, detected)`` per replication."""
    from repro.simulation.batch import ScenarioTemplate
    from repro.simulation.vector import (
        draw_protocol_tapes,
        scalar_reference_levels,
    )

    params = case.params()
    geometry = case.geometry(case.fault_capacity)
    template = ScenarioTemplate(geometry, params, scheme=case.scheme_enum)
    n = int(min(case.samples, _PROTOCOL_MC_CAP))
    child = np.random.SeedSequence(case.mc_seed).spawn(1)[0]
    # Two generators on the same child stream: one consumed by the
    # vector engine, one replayed into the oracle's tapes, so both
    # sides see identical draws.
    rng_vector = np.random.default_rng(child)
    rng_oracle = np.random.default_rng(child)
    duration_dist = case.signal_duration()
    onsets = rng_vector.uniform(0.0, geometry.l1, size=n)
    durations = duration_dist.sample_many(rng_vector, n)
    rng_oracle.uniform(0.0, geometry.l1, size=n)
    duration_dist.sample_many(rng_oracle, n)

    since = obs.snapshot()
    levels_vector, detected_vector = template.sample_levels(
        rng_vector, onsets, durations, engine="vector"
    )
    fallbacks = int(obs.delta(since).get("mc.vector.fallbacks", 0))

    tapes = draw_protocol_tapes(template, rng_oracle, n)
    levels_oracle, detected_oracle = scalar_reference_levels(
        template, onsets, durations, tapes
    )
    level_mismatches = int(np.count_nonzero(levels_vector != levels_oracle))
    detected_mismatches = int(
        np.count_nonzero(detected_vector != detected_oracle)
    )
    passed = level_mismatches == 0 and detected_mismatches == 0
    counts = np.bincount(levels_vector, minlength=4)
    details: Dict[str, object] = {
        "samples": n,
        "capacity": case.fault_capacity,
        "level_mismatches": level_mismatches,
        "detected_mismatches": detected_mismatches,
        "fallback_fraction": fallbacks / n if n else 0.0,
        "level_counts": [int(count) for count in counts[:4]],
    }
    metrics = {"protocol_mc_fallback_fraction": details["fallback_fraction"]}
    return CheckOutcome("protocol_mc", passed, details), metrics


# ----------------------------------------------------------------------
# Cell and corpus execution
# ----------------------------------------------------------------------
def run_case(
    case: ScenarioCase, *, extra_checks: Sequence[str] = ()
) -> CellResult:
    """Run every check ``case`` declares and return the cell result.

    ``extra_checks`` appends checks beyond the declared set (the CLI's
    ``--protocol-mc`` uses it to force the vector-engine conformance
    check onto every cell without touching the corpus on disk).

    Exceptions raised by a stage never propagate: they are recorded in
    the cell's exception taxonomy (type name -> count), fail the check
    that raised them and flip the cell status to ``"error"``."""
    start = time.perf_counter()
    since = obs.snapshot()
    checks: List[CheckOutcome] = []
    metrics: Dict[str, object] = {}
    exceptions: Dict[str, int] = {}

    def note_exception(check_name: str, error: Exception) -> None:
        kind = type(error).__name__
        exceptions[kind] = exceptions.get(kind, 0) + 1
        checks.append(
            CheckOutcome(
                check_name,
                False,
                details={"exception": kind, "message": str(error)},
            )
        )

    check_names = list(case.checks) + [
        name for name in extra_checks if name not in case.checks
    ]
    needs_composition = bool(
        {"analytic_vs_mc", "alert_deadline"} & set(check_names)
    )
    pk: Optional[Dict[int, float]] = None
    analytic: Optional[QoSDistribution] = None
    counts: Optional[Dict[int, int]] = None
    samples = 0
    if needs_composition:
        try:
            full_pk = capacity_distribution(
                case.capacity_config(), stages=case.stages
            )
            pk = _truncate_pk(case, full_pk)
            analytic = _composed_analytic(case, pk)
            counts, samples = _mc_level_counts(case, pk)
            metrics["p_k"] = {str(k): p for k, p in pk.items()}
            metrics["p_k_retained_mass"] = sum(pk.values())
            for level in _THRESHOLDS:
                metrics[f"analytic_p_ge_{int(level)}"] = analytic.at_least(level)
                metrics[f"mc_p_ge_{int(level)}"] = (
                    _count_at_least(counts, level) / samples
                )
            metrics["samples"] = samples
        except Exception as error:  # noqa: BLE001 - taxonomy by design
            for name in ("analytic_vs_mc", "alert_deadline"):
                if name in check_names:
                    note_exception(name, error)
            pk = analytic = counts = None

    for name in check_names:
        if name == "analytic_vs_mc" and analytic is not None:
            checks.append(
                _containment_check(
                    name, analytic, counts, samples, case.confidence, _THRESHOLDS
                )
            )
        elif name == "alert_deadline" and analytic is not None:
            outcome = _containment_check(
                name,
                analytic,
                counts,
                samples,
                case.confidence,
                (QoSLevel.SINGLE,),
            )
            metrics["alert_deadline_hit_rate"] = analytic.at_least(
                QoSLevel.SINGLE
            )
            checks.append(outcome)
        elif name == "lumped_vs_counted":
            try:
                report = capacity_cross_check(
                    case.capacity_config(), stages=case.stages
                )
                delta = float(report["lumped_vs_counted_delta"])
                metrics["lumped_vs_counted_delta"] = delta
                checks.append(
                    CheckOutcome(
                        name,
                        delta <= case.lumped_tolerance,
                        details={
                            "delta": delta,
                            "tolerance": case.lumped_tolerance,
                        },
                    )
                )
            except Exception as error:  # noqa: BLE001
                note_exception(name, error)
        elif name == "lumped_vs_unlumped":
            try:
                report = capacity_cross_check(
                    case.capacity_config(),
                    stages=case.stages,
                    include_unlumped=True,
                )
                delta = float(report["lumped_vs_unlumped_delta"])
                metrics["lumped_vs_unlumped_delta"] = delta
                checks.append(
                    CheckOutcome(
                        name,
                        delta <= case.lumped_tolerance,
                        details={
                            "delta": delta,
                            "tolerance": case.lumped_tolerance,
                        },
                    )
                )
            except Exception as error:  # noqa: BLE001
                note_exception(name, error)
        elif name == "fault_campaign":
            try:
                outcome, fault_metrics = _fault_campaign_check(case)
                metrics.update(fault_metrics)
                checks.append(outcome)
            except Exception as error:  # noqa: BLE001
                note_exception(name, error)
        elif name == "protocol_mc":
            try:
                outcome, protocol_metrics = _protocol_mc_check(case)
                metrics.update(protocol_metrics)
                checks.append(outcome)
            except Exception as error:  # noqa: BLE001
                note_exception(name, error)

    solver = obs.view(obs.SAN_SOLVER, obs.delta(since))
    fallbacks = {
        key: solver[key] for key in ("solver_fallbacks", "structure_fallbacks")
    }
    if exceptions:
        status = "error"
    elif all(outcome.passed for outcome in checks):
        status = "pass"
    else:
        status = "fail"
    return CellResult(
        case_id=case.case_id,
        family=case.family,
        status=status,
        checks=checks,
        metrics=metrics,
        fallbacks=fallbacks,
        exceptions=exceptions,
        seconds=time.perf_counter() - start,
    )


def _case_topology_affinity(case: ScenarioCase):
    """Campaign affinity key: the capacity topology (see
    :func:`repro.analytic.capacity.capacity_topology_key`).  Cases
    sharing a SAN topology execute consecutively on one worker, so the
    group assembles/refines/quotients its structure once and every
    further case re-rates it with warm-started solves."""
    from repro.analytic.capacity import capacity_topology_key

    return capacity_topology_key(case.capacity_config(), case.stages)


def run_corpus(
    cases: Sequence[ScenarioCase],
    *,
    progress: Optional[Callable[[CellResult], None]] = None,
    extra_checks: Sequence[str] = (),
    n_jobs: int = 1,
    journal: Optional[str] = None,
) -> CorpusRunResult:
    """Run every case (in the given order -- the corpus reader already
    sorts by case id) and return the collected results.
    ``extra_checks`` is forwarded to every :func:`run_case`.

    The default (``n_jobs=1``, no ``journal``) runs every cell in this
    process, in order.  ``n_jobs > 1`` or a ``journal`` path routes the
    run through the campaign orchestrator: cases are grouped into
    chunks by capacity-topology affinity, executed with chunk-level
    state isolation (results byte-identical at any worker count -- the
    per-cell fallback deltas run_case samples stay exact because each
    worker's counters only move for its own cells), and journaled
    chunk-by-chunk for checkpoint/resume.  ``progress`` then fires per
    cell in chunk-completion order rather than corpus order."""
    if not cases:
        raise ConfigurationError("run_corpus needs at least one case")
    start = time.perf_counter()
    if n_jobs == 1 and journal is None:
        cells: List[CellResult] = []
        for case in cases:
            cell = run_case(case, extra_checks=extra_checks)
            cells.append(cell)
            if progress is not None:
                progress(cell)
        return CorpusRunResult(cells=cells, seconds=time.perf_counter() - start)

    import functools

    from repro.campaign import CampaignRunner

    def on_chunk(outcome) -> None:
        if progress is not None:
            for cell in outcome.rows:
                progress(cell)

    runner = CampaignRunner(n_jobs, journal=journal)
    campaign = runner.run(
        functools.partial(run_case, extra_checks=tuple(extra_checks)),
        list(cases),
        affinity=_case_topology_affinity,
        on_chunk=on_chunk,
    )
    return CorpusRunResult(
        cells=list(campaign.rows),
        seconds=time.perf_counter() - start,
        campaign={**campaign.stats, "fingerprint": campaign.fingerprint},
    )

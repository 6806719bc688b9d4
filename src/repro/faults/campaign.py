"""Seeded Monte-Carlo fault-injection campaigns.

A :class:`Campaign` crosses a battery of
:class:`~repro.faults.plan.FaultPlan` entries with one or more schemes
and runs each combination ``runs`` times through the full protocol
simulation.  Work is batched and dispatched through the experiment
engine's :class:`~repro.experiments.engine.SweepRunner`, so ``n_jobs``
fans batches out over a process pool exactly like the sweep
experiments -- and, like them, the result is independent of ``n_jobs``
and byte-identical across reruns with the same seed: every scenario's
seed derives from ``numpy.random.SeedSequence(campaign_seed).spawn``
keyed by (plan, scheme, run) position, never from worker identity or
wall-clock.  Fault-free cells run on the vector engine instead, their
draws keyed by ``(campaign_seed, cell)``.

Each (plan, scheme) cell yields a :class:`PlanOutcome` holding the
achieved-QoS-level counts, the empirical ``P(Y >= y)`` and its Wilson
confidence interval.  ``degradation_curve`` builds the paper-style
graceful-degradation view: achieved level versus loss rate or failure
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.experiments.engine import SweepRunner
from repro.faults.injector import StalePeerView, build_link_loss_fn
from repro.faults.plan import FaultPlan
from repro.faults.stats import WilsonInterval, wilson_interval
from repro.protocol.satellite import MessagingVariant

__all__ = ["PlanOutcome", "CampaignResult", "Campaign", "degradation_curve"]


@dataclass(frozen=True)
class PlanOutcome:
    """Aggregated result of all runs of one (plan, scheme) cell."""

    plan: FaultPlan
    scheme: Scheme
    runs: int
    detected: int
    level_counts: Tuple[int, int, int, int]  #: runs per achieved level 0..3
    confidence: float = 0.95

    def count_at_least(self, level: QoSLevel) -> int:
        """Runs that achieved QoS level ``level`` or better."""
        return sum(self.level_counts[int(level) :])

    def p_at_least(self, level: QoSLevel) -> float:
        """Empirical ``P(Y >= level)``."""
        return self.count_at_least(level) / self.runs

    def wilson(self, level: QoSLevel) -> WilsonInterval:
        """Wilson confidence interval for ``P(Y >= level)``."""
        return wilson_interval(
            self.count_at_least(level), self.runs, confidence=self.confidence
        )

    def mean_level(self) -> float:
        """Average achieved QoS level over the campaign."""
        return (
            sum(level * count for level, count in enumerate(self.level_counts))
            / self.runs
        )


@dataclass
class CampaignResult:
    """All cells of a campaign, in (plan, scheme) declaration order."""

    outcomes: List[PlanOutcome]
    seed: int
    timings: Dict[str, float]

    def outcome(self, plan_name: str, scheme: Scheme) -> PlanOutcome:
        """The cell for ``(plan_name, scheme)``."""
        for outcome in self.outcomes:
            if outcome.plan.name == plan_name and outcome.scheme is scheme:
                return outcome
        raise ConfigurationError(
            f"no campaign cell for plan {plan_name!r} under {scheme.name}"
        )


def _scenario_seeds(campaign_seed: int, cell_index: int, runs: int) -> Tuple[int, ...]:
    """Deterministic per-run seeds for one (plan, scheme) cell."""
    cell_sequence = np.random.SeedSequence(campaign_seed).spawn(cell_index + 1)[
        cell_index
    ]
    return tuple(
        int(value) for value in cell_sequence.generate_state(runs, dtype=np.uint64)
    )


#: Single-slot template cache: ``(key, template)`` of the last cell
#: evaluated in this process.  Batches of one (plan, scheme) cell run
#: consecutively on one worker under the campaign's cell affinity, so
#: one slot turns per-batch template construction into per-cell.
#: Value-neutral: a :class:`ScenarioTemplate` is immutable and
#: ``replicate(seed)`` is bit-identical however often the template is
#: reused, so cache hits cannot change any result.
_TEMPLATE_SLOT: Optional[Tuple[Tuple, object]] = None


def _cell_template(geometry, plan, scheme, variant, params, capacity):
    """The cell's :class:`~repro.simulation.batch.ScenarioTemplate`,
    reused across this worker's consecutive batches of the same cell."""
    global _TEMPLATE_SLOT
    from repro.simulation.batch import ScenarioTemplate

    key = (repr(plan), scheme, variant, repr(params), capacity)
    if _TEMPLATE_SLOT is not None and _TEMPLATE_SLOT[0] == key:
        return _TEMPLATE_SLOT[1]
    template = ScenarioTemplate(
        geometry,
        params,
        scheme=scheme,
        variant=variant,
        crosslink_loss_probability=plan.crosslink_loss,
        link_loss_fn=build_link_loss_fn(plan),
        lazy_events=False,
        record_log=False,
    )
    _TEMPLATE_SLOT = (key, template)
    return template


def _cell_affinity(point: Mapping[str, object]) -> int:
    """Campaign affinity key: all batches of one (plan, scheme) cell
    execute consecutively on one worker, sharing its cached template."""
    return point["cell"]


def _evaluate_batch(point: Mapping[str, object]) -> Dict[str, object]:
    """Top-level (picklable) batch evaluator: run every seed of one
    batch against a shared :class:`ScenarioTemplate` and return the
    aggregated counts.

    The template replays :func:`~repro.faults.injector.faulty_scenario`
    bit for bit: the signal is drawn from a probe generator with the
    run's seed, and the replication then re-seeds a fresh generator for
    the protocol draws -- the same two-generator protocol the legacy
    per-run construction used, so campaign results (including the
    golden pins) are byte-identical, just without rebuilding the
    scenario infrastructure per run.  Strict (non-lazy) event
    scheduling keeps the event order key-for-key identical as well.

    *Fault-free* cells take the struct-of-arrays engine of
    :mod:`repro.simulation.vector` instead, as one work unit per cell:
    signal variates come batched from
    :func:`~repro.simulation.qos_montecarlo.draw_signal_variates` and
    protocol randomness from tapes, both off one generator keyed by
    ``(campaign seed, cell)``.  Their counts are deterministic across
    reruns, ``n_jobs`` and ``batch_size`` and exact against the
    tape-driven scalar oracle.
    """
    plan: FaultPlan = point["plan"]
    scheme: Scheme = point["scheme"]
    variant: MessagingVariant = point["variant"]
    params: EvaluationParams = point["params"]
    capacity: int = point["capacity"]
    seeds: Tuple[int, ...] = point["seeds"]
    geometry = params.constellation.plane_geometry(capacity)
    template = _cell_template(geometry, plan, scheme, variant, params, capacity)
    names = list(template.names)
    single_coverage = geometry.single_coverage_length

    if plan.is_fault_free:
        from repro.simulation.qos_montecarlo import draw_signal_variates

        runs: int = point["runs"]
        rng = np.random.default_rng(
            np.random.SeedSequence(point["cell_entropy"])
        )
        onsets, durations, _ = draw_signal_variates(geometry, params, runs, rng)
        levels, detected_mask = template.sample_levels(rng, onsets, durations)
        counts = np.bincount(levels, minlength=4)
        return {
            "cell": point["cell"],
            "counts": tuple(int(count) for count in counts[:4]),
            "detected": int(np.count_nonzero(detected_mask)),
            "runs": runs,
        }

    counts = [0, 0, 0, 0]
    detected = 0
    for seed in seeds:
        # Signal draws come from a probe generator, exactly as
        # faulty_scenario's probe CenterlineScenario would consume them.
        probe = np.random.default_rng(seed)
        onset = float(probe.uniform(0.0, geometry.l1))
        duration = float(probe.exponential(1.0 / params.mu))
        covered = geometry.overlapping or onset < single_coverage
        failure_times = plan.failure_times(names, "S1" if covered else "S2")
        next_peer = None
        if plan.membership_staleness is not None:
            next_peer = StalePeerView(
                names, failure_times, plan.membership_staleness, template
            )
        outcome = template.replicate(
            seed,
            onset_position=onset,
            signal_duration=duration,
            fail_silent=failure_times,
            next_peer_override=next_peer,
        ).run()
        counts[int(outcome.achieved_level)] += 1
        if outcome.detection_time is not None:
            detected += 1
    return {
        "cell": point["cell"],
        "counts": tuple(counts),
        "detected": detected,
        "runs": len(seeds),
    }


class Campaign:
    """A seeded Monte-Carlo fault-injection campaign.

    Parameters
    ----------
    params / capacity:
        Evaluation parameters and the plane's satellite count ``k``.
    plans:
        The fault plans to evaluate (order preserved in the result).
    schemes:
        Schemes crossed with every plan (default: OAQ and BAQ).
    runs:
        Scenario runs per (plan, scheme) cell.
    seed:
        Campaign master seed; all per-run seeds derive from it.
    batch_size:
        Runs per work unit handed to the engine (smaller batches give
        better load balancing with ``n_jobs > 1``).
    n_jobs:
        Engine fan-out (see :class:`SweepRunner`); results do not
        depend on it.
    journal:
        Optional JSONL checkpoint-journal path: batches are journaled
        as they complete and an interrupted campaign resumes from the
        file, skipping completed work, to the identical result (see
        ``docs/CAMPAIGN.md``).

    The path follows the plan: fault-free cells run on the vector
    engine, one work unit per cell; cells that inject any fault run
    the per-seed scalar path in batches of ``batch_size``.
    """

    def __init__(
        self,
        params: EvaluationParams,
        *,
        capacity: int,
        plans: Sequence[FaultPlan],
        schemes: Sequence[Scheme] = (Scheme.OAQ, Scheme.BAQ),
        variant: MessagingVariant = MessagingVariant.DONE_PROPAGATION,
        runs: int = 200,
        seed: int = 0,
        batch_size: int = 50,
        confidence: float = 0.95,
        n_jobs: int = 1,
        journal: Optional[str] = None,
    ):
        if runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {runs}")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if not plans:
            raise ConfigurationError("a campaign needs at least one fault plan")
        names = [plan.name for plan in plans]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate plan names: {names}")
        self.params = params
        self.capacity = capacity
        self.plans = list(plans)
        self.schemes = list(schemes)
        self.variant = variant
        self.runs = runs
        self.seed = seed
        self.batch_size = batch_size
        self.confidence = confidence
        self.n_jobs = n_jobs
        self.journal = journal

    def _points(self) -> List[Dict[str, object]]:
        points: List[Dict[str, object]] = []
        cell_index = 0
        for plan in self.plans:
            for scheme in self.schemes:
                base = {
                    "cell": cell_index,
                    "plan": plan,
                    "scheme": scheme,
                    "variant": self.variant,
                    "params": self.params,
                    "capacity": self.capacity,
                }
                if plan.is_fault_free:
                    # One work unit per fault-free cell: draws are
                    # keyed by (campaign seed, cell), so the counts are
                    # independent of batch_size / n_jobs, and the
                    # engine is fast enough that batch-level load
                    # balancing buys nothing.
                    points.append(
                        dict(
                            base,
                            seeds=(),
                            runs=self.runs,
                            cell_entropy=(self.seed, cell_index),
                        )
                    )
                else:
                    seeds = _scenario_seeds(self.seed, cell_index, self.runs)
                    for offset in range(0, self.runs, self.batch_size):
                        points.append(
                            dict(
                                base,
                                seeds=seeds[
                                    offset : offset + self.batch_size
                                ],
                            )
                        )
                cell_index += 1
        return points

    def run(self) -> CampaignResult:
        """Execute every cell and aggregate the batches."""
        runner = SweepRunner(n_jobs=self.n_jobs, journal=self.journal)
        result = runner.run(
            experiment_id="fault-campaign",
            title="fault-injection campaign",
            headers=["cell", "counts", "detected", "runs"],
            row_fn=_evaluate_batch,
            points=self._points(),
            affinity=_cell_affinity,
        )
        cells: Dict[int, Dict[str, object]] = {}
        for row in result.rows:
            cell = cells.setdefault(
                row["cell"], {"counts": [0, 0, 0, 0], "detected": 0, "runs": 0}
            )
            for level, count in enumerate(row["counts"]):
                cell["counts"][level] += count
            cell["detected"] += row["detected"]
            cell["runs"] += row["runs"]

        outcomes: List[PlanOutcome] = []
        cell_index = 0
        for plan in self.plans:
            for scheme in self.schemes:
                cell = cells[cell_index]
                outcomes.append(
                    PlanOutcome(
                        plan=plan,
                        scheme=scheme,
                        runs=cell["runs"],
                        detected=cell["detected"],
                        level_counts=tuple(cell["counts"]),
                        confidence=self.confidence,
                    )
                )
                cell_index += 1
        return CampaignResult(
            outcomes=outcomes, seed=self.seed, timings=dict(result.timings)
        )


def degradation_curve(
    params: EvaluationParams,
    *,
    capacity: int,
    scheme: Scheme = Scheme.OAQ,
    loss_rates: Optional[Sequence[float]] = None,
    failure_counts: Optional[Sequence[int]] = None,
    runs: int = 200,
    seed: int = 0,
    n_jobs: int = 1,
) -> List[Dict[str, object]]:
    """Achieved QoS level versus fault severity.

    Exactly one of ``loss_rates`` (crosslink loss sweep) or
    ``failure_counts`` (number of fail-silent successors, failed at
    time 0) must be given.  Returns one row per severity with the
    empirical ``P(Y >= 1)`` / ``P(Y >= 2)``, the level-2 Wilson
    bounds, and the mean achieved level -- the paper's
    graceful-degradation story as data.
    """
    if (loss_rates is None) == (failure_counts is None):
        raise ConfigurationError(
            "exactly one of loss_rates or failure_counts must be given"
        )
    if loss_rates is not None:
        axis = "loss rate"
        plans = [FaultPlan.lossy(rate) for rate in loss_rates]
        severities: Sequence[object] = list(loss_rates)
    else:
        axis = "failed successors"
        plans = []
        for count in failure_counts:
            if count == 0:
                plans.append(FaultPlan(name="successors-fail-0"))
            else:
                plans.append(
                    FaultPlan.successors_fail_silent(
                        0.0, count=count, name=f"successors-fail-{count}"
                    )
                )
        severities = list(failure_counts)

    campaign = Campaign(
        params,
        capacity=capacity,
        plans=plans,
        schemes=(scheme,),
        runs=runs,
        seed=seed,
        n_jobs=n_jobs,
    )
    result = campaign.run()
    rows: List[Dict[str, object]] = []
    for severity, outcome in zip(severities, result.outcomes):
        interval = outcome.wilson(QoSLevel.SEQUENTIAL_DUAL)
        rows.append(
            {
                axis: severity,
                "runs": outcome.runs,
                "P(Y>=1)": outcome.p_at_least(QoSLevel.SINGLE),
                "P(Y>=2)": outcome.p_at_least(QoSLevel.SEQUENTIAL_DUAL),
                "ci low": interval.low,
                "ci high": interval.high,
                "mean level": outcome.mean_level(),
            }
        )
    return rows

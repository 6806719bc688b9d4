"""Seeded Monte-Carlo fault-injection campaigns.

A :class:`Campaign` crosses a battery of
:class:`~repro.faults.plan.FaultPlan` entries with OAQ and BAQ
and runs each combination ``runs`` times through the full protocol
simulation.  Each cell is one work unit on the vector engine
(:meth:`~repro.simulation.batch.ScenarioTemplate.sample_levels` with
the plan as a fault schedule), dispatched through
:class:`~repro.campaign.CampaignRunner`, so ``n_jobs`` fans cells out
over a process pool exactly like the sweep experiments -- and, like
them, the result is independent of ``n_jobs`` and
byte-identical across reruns with the same seed: every cell's draws
are keyed by ``(campaign_seed, cell)``, never by worker identity or
wall-clock.  Cells are seeded independently; plans are not paired
through shared signals.

Each (plan, scheme) cell yields a :class:`PlanOutcome` holding the
achieved-QoS-level counts, the empirical ``P(Y >= y)`` and its Wilson
confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.campaign import CampaignRunner
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError, require_integer
from repro.faults.injector import fault_schedule
from repro.faults.plan import FaultPlan
from repro.faults.stats import WilsonInterval, wilson_interval
from repro.simulation.batch import ScenarioTemplate
from repro.simulation.qos_montecarlo import sample_level_counts

__all__ = ["PlanOutcome", "CampaignResult", "Campaign"]


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


def _cell_affinity(point: Mapping[str, object]) -> int:
    """Campaign affinity key: one chunk per (plan, scheme) cell, so a
    journal checkpoints (and resumes) cell by cell."""
    return point["cell"]


def _evaluate_cell(point: Mapping[str, object]) -> Dict[str, object]:
    """Top-level (picklable) cell evaluator: every run of one (plan,
    scheme) cell on the vector engine, through
    :func:`~repro.simulation.qos_montecarlo.sample_level_counts`.

    Per block of at most
    :data:`~repro.simulation.qos_montecarlo.BLOCK_ROWS` runs, signal
    variates and then protocol tapes come off one generator keyed by
    ``(campaign seed, cell)``; a cell within one block draws exactly
    the one-shot stream.  The plan enters as one
    :class:`~repro.simulation.vector.FaultSchedule`, which the oracle's
    replays of diverged rows read too.
    Counts are deterministic across reruns and ``n_jobs`` and exact
    against the tape-driven scalar oracle.
    """
    plan: FaultPlan = point["plan"]
    params: EvaluationParams = point["params"]
    runs: int = point["runs"]
    geometry = params.constellation.plane_geometry(point["capacity"])
    template = ScenarioTemplate(geometry, params, scheme=point["scheme"])
    rng = np.random.default_rng(np.random.SeedSequence(point["cell_entropy"]))
    counts, detected = sample_level_counts(
        template, runs, rng, fault_schedule(plan, template.names)
    )
    return {
        "cell": point["cell"],
        "counts": counts.tolist(),
        "detected": detected,
        "runs": runs,
    }


class Campaign:
    """A seeded Monte-Carlo fault-injection campaign.

    Parameters
    ----------
    params / capacity:
        Evaluation parameters and the plane's satellite count ``k``.
    plans:
        The fault plans to evaluate (order preserved in the result),
        each crossed with OAQ and BAQ.
    runs:
        Scenario runs per (plan, scheme) cell.
    seed:
        Campaign master seed; every cell's generator is keyed by
        ``(seed, cell index)``.
    confidence:
        Confidence level of every cell's Wilson interval, in (0, 1).
    n_jobs:
        Worker fan-out (see :class:`~repro.campaign.CampaignRunner`);
        results do not depend on it.
    journal:
        Optional JSONL checkpoint-journal path: cells are journaled
        as they complete and an interrupted campaign resumes from the
        file, skipping completed work, to the identical result (see
        ``docs/CAMPAIGN.md``).

    Every cell is one work unit on the vector engine; rows whose
    faults the vector model cannot decide replay on the scalar oracle.
    """

    def __init__(
        self,
        params: EvaluationParams,
        *,
        capacity: int,
        plans: Sequence[FaultPlan],
        runs: int = 200,
        seed: int = 0,
        confidence: float = 0.95,
        n_jobs: int = 1,
        journal: Optional[str] = None,
    ):
        require_integer("runs", runs, 1)
        if not plans:
            raise ConfigurationError("a campaign needs at least one fault plan")
        if not 0.0 < confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        params.constellation.plane_geometry(capacity).require_pairwise_overlap()
        names = [plan.name for plan in plans]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate plan names: {names}")
        self.params = params
        self.capacity = capacity
        self.plans = list(plans)
        self.runs = int(runs)
        self.seed = seed
        self.confidence = confidence
        self.runner = CampaignRunner(n_jobs, journal=journal)

    def _points(self) -> List[Dict[str, object]]:
        points: List[Dict[str, object]] = []
        for plan in self.plans:
            for scheme in (Scheme.OAQ, Scheme.BAQ):
                cell = len(points)
                points.append(
                    {
                        "cell": cell,
                        "plan": plan,
                        "scheme": scheme,
                        "params": self.params,
                        "capacity": self.capacity,
                        "runs": self.runs,
                        "cell_entropy": (self.seed, cell),
                    }
                )
        return points

    def run(self) -> CampaignResult:
        """Execute every cell and collect its counts."""
        points = self._points()
        rows = self.runner.run(_evaluate_cell, points, affinity=_cell_affinity).rows
        cells = {row["cell"]: row for row in rows}
        outcomes = [
            PlanOutcome(
                plan=point["plan"],
                scheme=point["scheme"],
                runs=cells[point["cell"]]["runs"],
                detected=cells[point["cell"]]["detected"],
                level_counts=tuple(cells[point["cell"]]["counts"]),
                confidence=self.confidence,
            )
            for point in points
        ]
        return CampaignResult(outcomes=outcomes, seed=self.seed)


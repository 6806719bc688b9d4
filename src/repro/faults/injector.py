"""Resolve a :class:`~repro.faults.plan.FaultPlan` into the mechanisms
of the replication engine (:mod:`repro.simulation.batch`):

* a time-aware ``link_loss_fn`` for per-link loss and downlink
  blackout windows (:func:`build_link_loss_fn`), the template's loss
  hook;
* the plain-data :class:`~repro.simulation.vector.FaultSchedule` the
  vector engine reads (:func:`fault_schedule`): fail-silent times
  resolved for both possible detectors, the membership-view staleness
  (replayed on the scalar oracle through
  :class:`~repro.simulation.vector.StalePeerView`), the blackout
  windows and the per-link loss table.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from repro.faults.plan import GROUND, FaultPlan
from repro.simulation.vector import FaultSchedule

__all__ = [
    "build_link_loss_fn",
    "fault_schedule",
]


def build_link_loss_fn(
    plan: FaultPlan,
) -> Optional[Callable[[float, str, str], float]]:
    """The network's per-message loss hook for ``plan`` (None when the
    plan has neither per-link loss nor blackout windows, so the fast
    scalar-only path stays in force)."""
    if not plan.link_loss and not plan.downlink_blackouts:
        return None

    def loss_fn(now: float, source: str, destination: str) -> float:
        return plan.link_loss_probability(now, source, destination)

    return loss_fn


def fault_schedule(
    plan: FaultPlan, names: Sequence[str]
) -> Optional[FaultSchedule]:
    """``plan`` as the vector engine's fault schedule for the visit
    order ``names`` (None for a fault-free plan): fail times resolved
    for both possible detectors, the view staleness, the blackout
    windows, and the per-link loss probabilities by ``(source,
    destination)``, the ground station last."""
    if plan.is_fault_free:
        return None
    resolved = [plan.failure_times(names, detector) for detector in ("S1", "S2")]
    link_loss = None
    if plan.link_loss:
        destinations = (*names, GROUND)
        link_loss = np.array(
            [
                [plan.link_probability(source, dest) for dest in destinations]
                for source in names
            ]
        )
    return FaultSchedule(
        fail_times=np.array(
            [[times.get(name, math.inf) for name in names] for times in resolved]
        ),
        staleness=plan.membership_staleness,
        blackouts=plan.downlink_blackouts,
        link_loss=link_loss,
    )

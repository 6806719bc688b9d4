"""Resolve a :class:`~repro.faults.plan.FaultPlan` into the one runtime
form both protocol engines take: the plain-data
:class:`~repro.simulation.vector.FaultSchedule` (:func:`fault_schedule`)
-- fail-silent times resolved for both possible detectors, the
membership-view staleness, the blackout windows, the per-link loss
table and the uniform crosslink loss.  The vector engine reads it row
by row; ``ScenarioTemplate.replicate(faults=...)`` plays it on the
scalar oracle (a stale view through
:class:`~repro.simulation.vector.StalePeerView`, the loss through
:meth:`~repro.simulation.vector.FaultSchedule.loss_hook`).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.faults.plan import GROUND, FaultPlan
from repro.simulation.vector import FaultSchedule

__all__ = ["fault_schedule"]


def fault_schedule(
    plan: FaultPlan, names: Sequence[str]
) -> Optional[FaultSchedule]:
    """``plan`` as the fault schedule both engines take, for the visit
    order ``names`` (None for a fault-free plan): fail times resolved
    for both possible detectors, the view staleness, the blackout
    windows, the per-link loss probabilities by ``(source,
    destination)``, the ground station last, and the uniform crosslink
    loss."""
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
        crosslink_loss=plan.crosslink_loss,
    )

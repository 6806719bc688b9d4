"""The closed form a fault-campaign cell must reproduce.

Two campaign configurations have exact analytic references:

* **fault-free**: the empirical level distribution must match the
  paper's conditional model ``P(Y = y | k)``
  (:func:`repro.analytic.qos_model.conditional_distribution`) for the
  scheme under test;
* **all successors fail-silent** at time 0, nothing else injected, on
  an underlapping plane: every coordination request dies with its
  recipient, the detector's done-timeout fires, and the chain never
  extends -- so OAQ degrades exactly to the BAQ conditional
  distribution (the sequential-dual mass folds into single coverage
  while detection, which is pure geometry, is untouched).  This is the
  paper's graceful-degradation claim in closed form.  On an
  overlapping plane level 3 comes from the detector's own simultaneous
  measurement, which the fail-silent model does not remove, so no
  degraded closed form applies.

:func:`plan_reference` is the one rule deciding which reference, if
any, a ``(plan, scheme)`` cell has; agreement is judged per level with
:meth:`repro.faults.stats.WilsonInterval.contains` on
``PlanOutcome.wilson(level)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSDistribution
from repro.core.schemes import Scheme
from repro.faults.plan import FaultPlan
from repro.geometry.plane import PlaneGeometry

__all__ = ["plan_reference"]


def plan_reference(
    plan: FaultPlan,
    geometry: PlaneGeometry,
    params: EvaluationParams,
    scheme: Scheme,
) -> Optional[QoSDistribution]:
    """Analytic ``P(Y = y | k)`` a campaign cell must reproduce, or
    ``None`` when the plan has no closed form on this plane."""
    if plan.is_fault_free:
        return conditional_distribution(geometry, params, scheme)
    kills_every_successor = (
        plan.fail_successors_at == 0.0
        and plan.fail_successor_count is None
        and replace(plan, fail_successors_at=None).is_fault_free
    )
    if kills_every_successor and not geometry.overlapping:
        return conditional_distribution(geometry, params, Scheme.BAQ)
    return None

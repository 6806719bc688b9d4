"""Fault-injection campaign engine (declarative plans, seeded
Monte-Carlo campaigns, Wilson-interval statistics, and the analytic
reference each plan must reproduce, :func:`plan_reference`).  See
``docs/FAULTS.md`` for the full tour."""

from repro.faults.campaign import Campaign, CampaignResult, PlanOutcome
from repro.faults.plan import ANY, GROUND, FaultPlan
from repro.faults.stats import WilsonInterval, wilson_interval
from repro.faults.validation import plan_reference

__all__ = [
    "ANY",
    "GROUND",
    "FaultPlan",
    "Campaign",
    "CampaignResult",
    "PlanOutcome",
    "WilsonInterval",
    "wilson_interval",
    "plan_reference",
]

"""Fault-injection campaign engine (declarative plans, seeded
Monte-Carlo campaigns, Wilson-interval statistics, and analytic
cross-checks).  See ``docs/FAULTS.md`` for the full tour."""

from repro.faults.campaign import (
    Campaign,
    CampaignResult,
    PlanOutcome,
    degradation_curve,
)
from repro.faults.injector import build_link_loss_fn
from repro.faults.plan import ANY, GROUND, FaultPlan
from repro.faults.stats import WilsonInterval, wilson_interval
from repro.faults.validation import (
    LevelCheck,
    ValidationReport,
    cross_check_fail_silent,
    cross_check_fault_free,
    fail_silent_reference,
    validate_outcome,
)

__all__ = [
    "ANY",
    "GROUND",
    "FaultPlan",
    "Campaign",
    "CampaignResult",
    "PlanOutcome",
    "degradation_curve",
    "build_link_loss_fn",
    "WilsonInterval",
    "wilson_interval",
    "LevelCheck",
    "ValidationReport",
    "fail_silent_reference",
    "validate_outcome",
    "cross_check_fault_free",
    "cross_check_fail_silent",
]

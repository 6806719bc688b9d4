"""Experiment harness: one module per table/figure of the paper's
evaluation plus the reproduction's own validation and ablation studies.

Run everything with ``python -m repro.experiments``; each module also
has its own ``main()``.
"""

# NOTE: corpus_exp and faults_exp are intentionally absent here --
# they import repro.scenarios / repro.faults, which import back into
# repro.experiments (scorer -> report, campaign -> engine), so pulling
# them in at package-import time would be circular.  Import them
# explicitly (``from repro.experiments import corpus_exp``).
from repro.experiments import (
    aging_exp,
    calibration_exp,
    engine,
    fig7,
    fig8,
    fig9,
    geolocation_exp,
    geometry_exp,
    montecarlo_exp,
    multiplane_exp,
    orbits_exp,
    protocol_exp,
    robustness_exp,
    san_ablation,
    scaled_capacity_exp,
    sweeps,
    table1,
    text_results,
)
from repro.experiments.engine import SweepRunner
from repro.experiments.report import ExperimentResult, format_table

__all__ = [
    "ExperimentResult",
    "SweepRunner",
    "aging_exp",
    "calibration_exp",
    "engine",
    "fig7",
    "fig8",
    "fig9",
    "format_table",
    "geolocation_exp",
    "geometry_exp",
    "montecarlo_exp",
    "multiplane_exp",
    "orbits_exp",
    "protocol_exp",
    "robustness_exp",
    "san_ablation",
    "scaled_capacity_exp",
    "sweeps",
    "table1",
    "text_results",
]

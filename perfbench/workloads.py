"""The four benchmark workloads: inputs from a seed, one pass, and the
correctness gate on the pass's outputs.

Every workload drives the system only through public entry points --
``optimize_exp.run``, ``faults_exp.run``,
``montecarlo_exp.run_conditional_validation`` and the
``QUICK_SECTIONS`` callables -- and passes no engine-selection
argument, so a change of default shows in the numbers.  Each is a
closed loop with one client and one pass at a time, sized for a
2-core host.  For the two optimize workloads the seed draws only the
rate axes (failure rate, repair rate, replacement latency, scheduled
period) from fixed ranges; the structural axes are fixed, so the
topology count and cells per topology do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments import faults_exp, montecarlo_exp, optimize_exp
from repro.experiments.__main__ import QUICK_SECTIONS
from repro.faults.stats import wilson_interval
from repro.optimize import evaluate as optimize_evaluate
from repro.optimize.design import design_grid, grid_topology_count

#: Rows of the default tables pinned at 1e-9 (read-only).
GOLDEN_TABLES = os.path.join("tests", "golden", "experiments_golden.json")

#: Confidence of the Wilson intervals the Monte-Carlo gates use: wide
#: enough that ten seeds of a dozen rows do not raise false alarms.
WILSON_CONFIDENCE = 0.9999

#: Slack between protocol MC and the closed form: the protocol model
#: adds the crosslink delay and the computation bound, which the
#: closed form neglects ("agreement within a few percent").
PROTOCOL_SLACK = 0.05

#: Fixed ranges the seed draws the optimize rate axes from.
RATE_RANGES = {
    "failure_rates": (1e-5, 1e-4),
    "repair_rates": (1e-5, 1e-3),
    "latencies": (72.0, 336.0),
    "periods": (4380.0, 17520.0),
}


def _draw_rates(seed: int, counts: Dict[str, int]) -> Dict[str, tuple]:
    """Stratified log-uniform draws for each rate axis: the ``i``-th of
    ``n`` values falls in the ``i``-th of ``n`` equal log-width strata,
    so every seed spans its range alike and the solver work per pass
    varies little with the seed.  Rounded to 4 significant digits so
    the cells print readably."""
    rng = np.random.default_rng(seed)
    axes = {}
    for axis, (low, high) in RATE_RANGES.items():
        n = counts[axis]
        fractions = (np.arange(n) + rng.uniform(size=n)) / n
        values = np.exp(math.log(low) + fractions * math.log(high / low))
        axes[axis] = tuple(float(f"{value:.4g}") for value in values)
    return axes


def _grid_size(cells) -> Dict[str, int]:
    return {"cells": len(cells), "topologies": grid_topology_count(cells)}


def _rows_match(result, expected) -> bool:
    if result is None or result.headers != expected["headers"]:
        return False
    if len(result.rows) != len(expected["rows"]):
        return False
    for row, pinned_row in zip(result.rows, expected["rows"]):
        for header in expected["headers"]:
            value, pinned = row[header], pinned_row[header]
            if isinstance(pinned, float):
                if not abs(value - pinned) <= 1e-9:
                    return False
            elif value != pinned:
                return False
    return True


def _wilson_contains(fraction: float, trials: int, reference: float) -> bool:
    hits = int(round(fraction * trials))
    return wilson_interval(hits, trials, confidence=WILSON_CONFIDENCE).contains(
        reference
    )


class DesignSweep:
    """The default paper tables, then an inline optimize grid at plane
    scale 1: rate-sweep traffic on few topologies, so re-rate plus
    warm-started GMRES dominates.  The only workload on the counted
    ``capacity_distribution`` path and on ``SweepRunner``'s sequential
    n_jobs=1 branch."""

    name = "design-sweep"
    item = "design cells"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        counts = dict.fromkeys(RATE_RANGES, 1) if smoke else {
            "failure_rates": 3, "repair_rates": 3, "latencies": 2, "periods": 2,
        }
        self.cells = design_grid(
            scales=(1,), base_spares=(2,), eta_offsets=(-4,), **_draw_rates(seed, counts)
        )
        self.items = len(self.cells)
        self.size = _grid_size(self.cells)
        # Correctness probe on every cell's P(k): cheap enough to stay
        # on in untraced passes.
        self.pk_sums: List[float] = []
        solve = optimize_evaluate.capacity_distribution_expanded

        def checked(*args, **kwargs):
            pk = solve(*args, **kwargs)
            self.pk_sums.append(math.fsum(pk.values()))
            return pk

        optimize_evaluate.capacity_distribution_expanded = checked

    def run(self, tracer):
        tables = []
        for section in QUICK_SECTIONS:
            module = section.__module__.rsplit(".", 1)[-1]
            with tracer.span(f"tables.{module}.{section.__name__}"):
                tables.append(section())
        return tables, optimize_exp.run(cells=self.cells)

    def check(self, output, root: str):
        tables, result = output
        with open(os.path.join(root, GOLDEN_TABLES), encoding="utf-8") as handle:
            golden = json.load(handle)
        by_id = {table.experiment_id: table for table in tables}
        checks = [_rows_match(by_id.get(name), pinned) for name, pinned in golden.items()]
        checks.extend(abs(total - 1.0) <= 1e-9 for total in self.pk_sums)
        checks.append(len(self.pk_sums) == len(self.cells))
        checks.append(result.metadata["fallback_scorecard"]["unexplained"] == [])
        return checks, None

    @staticmethod
    def stress(layer: Dict[str, float], wall: float) -> float:
        return (layer["san.rerate_s"] + layer["san.solve_s"]) / wall


class ScaledStructure:
    """Plane-scale-2 cells with two rate points per topology, through
    the campaign orchestrator at 2 workers with a fresh journal:
    topology-build traffic, so symmetry refinement dominates.  The only
    workload on pool dispatch, work stealing and the merge."""

    name = "scaled-structure"
    item = "design cells"
    workers = 2

    def __init__(self, seed: int, smoke: bool, workdir: str):
        counts = dict.fromkeys(RATE_RANGES, 1)
        counts["failure_rates"] = 1 if smoke else 2
        self.cells = design_grid(
            scales=(1,) if smoke else (2,),
            base_spares=(0,),
            eta_offsets=(-6,),
            **_draw_rates(seed, counts),
        )
        self.items = len(self.cells)
        self.size = dict(_grid_size(self.cells), workers=self.workers)
        self.journal = os.path.join(workdir, "scaled-structure.jsonl")

    def run(self, tracer):
        return optimize_exp.run(cells=self.cells, n_jobs=self.workers, journal=self.journal)

    def check(self, result, root: str):
        rows = result.metadata["cells"]
        checks = [row["structure_fallbacks"] == 0 for row in rows]
        checks.append(len(rows) == len(self.cells))
        checks.append(result.metadata["solver_stats"]["structure_fallbacks"] == 0)
        canonical = json.dumps(rows, sort_keys=True).encode("utf-8")
        return checks, hashlib.sha256(canonical).hexdigest()

    @staticmethod
    def stress(layer: Dict[str, float], wall: float) -> float:
        busy = layer["campaign.worker_busy_s"]
        return (layer["san.refine_s"] + layer["san.quotient_s"]) / busy if busy else 0.0


class FaultCampaign:
    """The ``plan_battery()`` fault plans x OAQ/BAQ, inline with a
    journal: the scalar discrete-event loop (replicate plus run), with
    no SAN work.  The workload faulty-path vectorization must speed up."""

    name = "fault-campaign"
    item = "protocol replications"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.runs = 20 if smoke else 2000
        self.cells = 2 * len(faults_exp.plan_battery())
        self.items = self.runs * self.cells
        self.size = {"runs_per_cell": self.runs, "cells": self.cells}
        self.journal = os.path.join(workdir, "fault-campaign.jsonl")

    def run(self, tracer):
        return faults_exp.run(runs=self.runs, seed=self.seed, journal=self.journal)

    def check(self, result, root: str):
        checks = [len(result.rows) == self.cells]
        for row in result.rows:
            reference = row["analytic P(Y>=2)"]
            if isinstance(reference, float):
                checks.append(_wilson_contains(row["P(Y>=2)"], row["runs"], reference))
        return checks, None

    @staticmethod
    def stress(layer: Dict[str, float], wall: float) -> float:
        return (layer["mc.replicate_s"] + layer["mc.run_s"]) / wall


class ProtocolMC:
    """mc-validate at 2x10^6 protocol replications per cell for
    k in {9, 10, 12, 14} x OAQ/BAQ: the vector engine with no
    divergence fallback and no DES.  The control for fault-campaign,
    and the largest memory footprint."""

    name = "protocol-mc"
    item = "protocol replications"
    capacities: Sequence[int] = (9, 10, 12, 14)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.samples = 2000 if smoke else 60_000
        self.protocol_samples = 2000 if smoke else 2_000_000
        self.items = self.protocol_samples * 2 * len(self.capacities)
        self.size = {
            "protocol_samples_per_cell": self.protocol_samples,
            "rule_samples_per_cell": self.samples,
            "cells": 2 * len(self.capacities),
        }

    def run(self, tracer):
        return montecarlo_exp.run_conditional_validation(
            capacities=self.capacities,
            samples=self.samples,
            protocol_samples=self.protocol_samples,
            seed=self.seed,
        )

    def check(self, result, root: str):
        checks = []
        for row in result.rows:
            closed = row["closed form"]
            checks.append(_wilson_contains(row["rule-based MC"], self.samples, closed))
            checks.append(abs(row["protocol MC"] - closed) <= PROTOCOL_SLACK)
        return checks, None

    @staticmethod
    def stress(layer: Dict[str, float], wall: float) -> float:
        return layer["mc.vector_s"] / wall


WORKLOADS = {
    workload.name: workload
    for workload in (DesignSweep, ScaledStructure, FaultCampaign, ProtocolMC)
}

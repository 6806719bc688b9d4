"""Benchmark ``vector-batch``: the vectorized-replication acceptance
guard.

The protocol-level QoS sampler -- the struct-of-arrays engine of
:mod:`repro.simulation.vector` behind ``ScenarioTemplate.sample_levels``
-- must be at least **50x faster** than the tape-driven scalar oracle
(``draw_protocol_tapes`` + ``scalar_reference_levels``, one Python
event loop per replication) over every row of the same cells,
aggregated over the four protocol branches (k=9/k=12 x OAQ/BAQ).  Both
sides see identical signal variates and tapes, so the timed runs double
as the exactness pin: every ``(level, detected)`` pair must match the
oracle's.  A 10^6-replication QoS-surface demo cell, run the way
production cells run (``sample_level_counts``, in blocks), must
complete in under 60 s single-core.

The faulty ``plan_battery()`` cells (k=9 x OAQ/BAQ, each plan as a
fault schedule) are pinned the same way: every row exact against the
oracle replaying the same schedule, and the vector engine at least
**50x** the oracle over every faulty cell, the crosslink-loss cells
included.

The per-run numbers (times, aggregate speedup, per-cell times, fallback
fractions, million-replication throughput) are written to
``BENCH_vector_batch.json`` and ``BENCH_vector_batch_faults.json`` at
the repository root so CI can archive them as artifacts.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.schemes import Scheme
from repro.experiments.faults_exp import plan_battery
from repro.faults.injector import fault_schedule
from repro.simulation.batch import ScenarioTemplate
from repro.simulation.qos_montecarlo import (
    draw_signal_variates,
    sample_level_counts,
)
from repro.simulation.vector import (
    draw_protocol_tapes,
    reset_vector_batch_stats,
    scalar_reference_levels,
    vector_batch_stats,
)

#: Replications per (k, scheme) cell for the speedup comparison --
#: enough to amortise the template build on the oracle side without
#: making the oracle dominate the benchmark job.
SAMPLES = 4_000
#: The million-replication demo cell (single template, single core).
MILLION = 1_000_000
SEED = 1337
CELLS = [
    (capacity, scheme)
    for capacity in (9, 12)
    for scheme in (Scheme.OAQ, Scheme.BAQ)
]

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cell_inputs(params, capacity, scheme):
    """The cell's template, signal variates and twin generators: both
    generators stand just past the variates, so the vector engine and
    the oracle draw identical tapes."""
    geometry = params.constellation.plane_geometry(capacity)
    template = ScenarioTemplate(geometry, params, scheme=scheme)
    child = np.random.SeedSequence(SEED)
    rng_vector = np.random.default_rng(child)
    rng_oracle = np.random.default_rng(child)
    onsets, durations, _ = draw_signal_variates(
        geometry, params, SAMPLES, rng_vector
    )
    draw_signal_variates(geometry, params, SAMPLES, rng_oracle)
    return template, onsets, durations, rng_vector, rng_oracle


def test_bench_vector_batch_speedup_vs_scalar_oracle(run_once):
    """Acceptance guard: vector engine >= 50x the tape-driven scalar
    oracle over all four branches, exact against it row for row, and
    10^6 replications of one cell in under 60 s."""
    params = EvaluationParams(signal_termination_rate=0.2)
    inputs = {cell: _cell_inputs(params, *cell) for cell in CELLS}

    oracle = {}
    oracle_seconds = 0.0
    for cell, (template, onsets, durations, _, rng_oracle) in inputs.items():
        start = time.perf_counter()
        tapes = draw_protocol_tapes(template, rng_oracle, SAMPLES)
        oracle[cell] = scalar_reference_levels(
            template, onsets, durations, tapes
        )
        oracle_seconds += time.perf_counter() - start

    reset_vector_batch_stats()

    def vector_sweep():
        results = {}
        cell_seconds = {}
        for cell, (template, onsets, durations, rng_vector, _) in inputs.items():
            start = time.perf_counter()
            results[cell] = template.sample_levels(
                rng_vector, onsets, durations
            )
            cell_seconds[cell] = time.perf_counter() - start
        return results, cell_seconds

    start = time.perf_counter()
    vectored, cell_seconds = run_once(vector_sweep)
    vector_seconds = time.perf_counter() - start
    sweep_stats = vector_batch_stats()

    speedup = oracle_seconds / vector_seconds
    mismatches = {
        cell: int(np.count_nonzero(vectored[cell][0] != oracle[cell][0]))
        + int(np.count_nonzero(vectored[cell][1] != oracle[cell][1]))
        for cell in CELLS
    }

    # The 10^6-replication demo cell: one underlapping OAQ template,
    # single core, on the production path (blocked level counts,
    # variates drawn per block inside the timed call), must come in
    # under a minute.
    geometry = params.constellation.plane_geometry(9)
    template = ScenarioTemplate(geometry, params, scheme=Scheme.OAQ)
    rng = np.random.default_rng(np.random.SeedSequence(SEED))
    reset_vector_batch_stats()
    start = time.perf_counter()
    million_counts, _ = sample_level_counts(template, MILLION, rng)
    million_seconds = time.perf_counter() - start
    million_stats = vector_batch_stats()

    payload = {
        "samples_per_cell": SAMPLES,
        "cells": [f"k={capacity}/{scheme.name}" for capacity, scheme in CELLS],
        "oracle_s": round(oracle_seconds, 4),
        "vector_s": round(vector_seconds, 4),
        "speedup": round(speedup, 2),
        "per_cell_vector_s": {
            f"k={capacity}/{scheme.name}": round(seconds, 4)
            for (capacity, scheme), seconds in cell_seconds.items()
        },
        "exact_mismatches": {
            f"k={capacity}/{scheme.name}": count
            for (capacity, scheme), count in mismatches.items()
        },
        "sweep_fallback_fraction": sweep_stats["fallback_fraction"],
        "million_cell": {
            "replications": MILLION,
            "seconds": round(million_seconds, 4),
            "replications_per_sec": round(MILLION / million_seconds),
            "fallback_fraction": million_stats["fallback_fraction"],
            "level_counts": [int(count) for count in million_counts],
        },
    }
    (REPO_ROOT / "BENCH_vector_batch.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(
        f"\nscalar oracle {oracle_seconds:.2f}s vs vector "
        f"{vector_seconds:.3f}s -> {speedup:.0f}x over "
        f"{len(CELLS)} cells x {SAMPLES} samples; "
        f"1e6 replications in {million_seconds:.2f}s "
        f"({MILLION / million_seconds:,.0f}/s)"
    )

    assert all(count == 0 for count in mismatches.values()), (
        f"vector engine diverged from the scalar oracle: {mismatches}"
    )
    assert speedup >= 50.0, (
        f"vector speedup {speedup:.1f}x below the 50x floor "
        f"(oracle {oracle_seconds:.3f}s, vector {vector_seconds:.3f}s)"
    )
    assert million_seconds < 60.0, (
        f"10^6-replication demo cell took {million_seconds:.1f}s "
        "(floor: under 60 s single-core)"
    )


def test_bench_vector_faulty_cells_vs_scalar_oracle(run_once):
    """Acceptance guard for the fault schedules: every faulty battery
    cell exact against the oracle row for row, and the vector engine
    >= 50x the oracle over all of them, the lossy cells included."""
    params = EvaluationParams(signal_termination_rate=0.2)
    cells = [
        (plan, scheme)
        for plan in plan_battery()
        if not plan.is_fault_free
        for scheme in (Scheme.OAQ, Scheme.BAQ)
    ]
    inputs = {}
    for plan, scheme in cells:
        template, onsets, durations, rng_vector, rng_oracle = _cell_inputs(
            params, 9, scheme
        )
        faults = fault_schedule(plan, template.names)
        inputs[plan.name, scheme] = (
            template, onsets, durations, rng_vector, rng_oracle, faults
        )

    oracle = {}
    oracle_seconds = {}
    for (name, scheme), (template, onsets, durations, _, rng, faults) in inputs.items():
        start = time.perf_counter()
        tapes = draw_protocol_tapes(template, rng, SAMPLES, faults)
        oracle[name, scheme] = scalar_reference_levels(
            template, onsets, durations, tapes, faults=faults
        )
        oracle_seconds[name, scheme] = time.perf_counter() - start

    def vector_sweep():
        results = {}
        seconds = {}
        for key, (template, onsets, durations, rng, _, faults) in inputs.items():
            start = time.perf_counter()
            results[key] = template.sample_levels(rng, onsets, durations, faults)
            seconds[key] = time.perf_counter() - start
        return results, seconds

    reset_vector_batch_stats()
    vectored, vector_seconds = run_once(vector_sweep)
    stats = vector_batch_stats()

    mismatches = {
        f"{name}/{scheme.name}": int(
            np.count_nonzero(vectored[name, scheme][0] != oracle[name, scheme][0])
            + np.count_nonzero(vectored[name, scheme][1] != oracle[name, scheme][1])
        )
        for name, scheme in inputs
    }
    oracle_total = sum(oracle_seconds.values())
    vector_total = sum(vector_seconds.values())
    speedup = oracle_total / vector_total
    payload = {
        "samples_per_cell": SAMPLES,
        "cells": [f"{name}/{scheme.name}" for name, scheme in inputs],
        "oracle_s": round(oracle_total, 4),
        "vector_s": round(vector_total, 4),
        "speedup": round(speedup, 2),
        "per_cell_vector_s": {
            f"{name}/{scheme.name}": round(value, 4)
            for (name, scheme), value in vector_seconds.items()
        },
        "exact_mismatches": mismatches,
        "fallback_fraction": stats["fallback_fraction"],
    }
    (REPO_ROOT / "BENCH_vector_batch_faults.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(
        f"\nfaulty cells: scalar oracle {oracle_total:.2f}s vs vector "
        f"{vector_total:.3f}s -> {speedup:.0f}x over {len(cells)} "
        f"cells x {SAMPLES} samples; fallback fraction "
        f"{stats['fallback_fraction']:.3f}"
    )

    assert all(count == 0 for count in mismatches.values()), (
        f"vector engine diverged from the scalar oracle: {mismatches}"
    )
    assert speedup >= 50.0, (
        f"faulty-cell vector speedup {speedup:.1f}x below the 50x floor "
        f"(oracle {oracle_total:.3f}s, vector {vector_total:.3f}s)"
    )

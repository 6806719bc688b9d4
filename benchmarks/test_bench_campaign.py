"""Benchmark ``campaign``: affinity-sharded orchestrator locality and
parallel-efficiency guard.

Runs the 24-cell optimize smoke grid three ways:

* ``sequential`` -- the legacy in-process loop (baseline wall time and
  the reference rows);
* ``affinity`` -- the campaign orchestrator with topology-group
  affinity chunks (the production scheduling: one chunk per SAN
  topology, chunk-isolated caches, byte-identical merges);
* ``per_point`` -- the orchestrator degraded to one point per chunk,
  measured twice: cache-isolated (what byte-identical scheduling costs
  *without* affinity sharding) and with warm worker caches
  (``isolate=False`` -- the legacy per-point pool's behaviour).

and guards

* correctness: the affinity pass reproduces the sequential rows
  exactly, and the per-point passes agree numerically (their
  warm-start lineage differs -- the divergence affinity chunking is
  there to remove);
* locality: the affinity pass assembles each topology exactly once
  (assemble misses == topology groups), while per-point isolated
  scheduling pays one assembly per *cell* -- the cache-hit evidence
  that affinity sharding, not luck, keeps chunk isolation cheap;
* submissions: the affinity pass submits per chunk, not per point;
* parallel efficiency: on machines with >= 8 CPUs the 8-worker
  affinity pass must beat the sequential baseline by
  :data:`MIN_SPEEDUP_8WORKER`; on smaller runners (CI included) the
  speedup is recorded but not asserted.

The per-run numbers (pass wall times, speedup, parallel efficiency,
chunks stolen, per-cache hit/miss sums for every pass) are written to
``BENCH_campaign.json`` at the repository root so CI can archive them
as an artifact.
"""

import functools
import json
import math
import os
import time
from pathlib import Path

from repro import obs
from repro.analytic.capacity import clear_capacity_caches
from repro.campaign import CampaignRunner
from repro.experiments.engine import SweepRunner
from repro.experiments.optimize_exp import _evaluate, _topology_affinity
from repro.experiments.report import json_safe
from repro.optimize import grid_topology_count, smoke_grid

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Stage depth for the bench grid: deep enough that assembly/refinement
#: dominates rerating (the locality being measured), shallow enough to
#: keep three full passes in benchmark budget.
STAGES = 4

#: Speedup floor for the 8-worker affinity pass over the sequential
#: baseline.  Only asserted when the machine actually has >= 8 CPUs --
#: single-core CI runners record the number without guarding on it.
MIN_SPEEDUP_8WORKER = 5.0

#: Locality floor: per-point isolated scheduling must pay at least this
#: many times the affinity pass's assemble misses (exactly
#: points/topologies == 2.0 on the smoke grid; 1.5 absorbs grid edits).
MIN_LOCALITY_RATIO = 1.5


def _canonical(rows):
    return json.dumps(json_safe(rows), sort_keys=True)


#: Per-cell counters that depend on the solve lineage rather than the
#: model: a cold solve may fall back where a warm-started one does not.
LINEAGE_COLUMNS = {"solver_fallbacks", "structure_fallbacks"}


def _rows_close(left, right, rel_tol=1e-6):
    """Row-by-row numeric agreement: the per-point schedules change the
    iterative solver's warm-start lineage, so their floats can differ
    in the last bits (the very divergence affinity chunking removes)."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if set(a) != set(b):
            return False
        for key in a:
            if key in LINEAGE_COLUMNS:
                continue
            x, y = a[key], b[key]
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=rel_tol, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


def _cache_counts(result):
    """Per-cache hit/miss/eviction totals over every executed chunk."""
    merged = obs.merge(*(chunk.delta for chunk in result.chunks))
    return {
        cache: obs.view(names, merged)
        for cache, names in obs.CAPACITY_CACHES.items()
    }


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_bench_campaign_locality_and_efficiency(run_once):
    """Acceptance guard: affinity chunks assemble each topology once,
    submit per chunk, merge value-identically, and (on >= 8 CPU
    machines) hit the parallel-efficiency bar."""
    points = list(smoke_grid())
    topologies = grid_topology_count(points)
    row_fn = functools.partial(_evaluate, stages=STAGES)
    workers = min(8, os.cpu_count() or 1)

    clear_capacity_caches()
    sequential_rows, sequential_seconds = _timed(
        lambda: SweepRunner(n_jobs=1).map_rows(row_fn, points)
    )
    reference = _canonical(sequential_rows)

    clear_capacity_caches()
    affinity_result, affinity_seconds = run_once(
        _timed,
        lambda: CampaignRunner(workers).run(
            row_fn, points, affinity=_topology_affinity
        ),
    )
    affinity_caches = _cache_counts(affinity_result)

    clear_capacity_caches()
    isolated_result, isolated_seconds = _timed(
        lambda: CampaignRunner(
            workers, max_chunk_size=1, steal=False
        ).run(row_fn, points)
    )
    isolated_caches = _cache_counts(isolated_result)

    clear_capacity_caches()
    legacy_result, legacy_seconds = _timed(
        lambda: CampaignRunner(
            workers, max_chunk_size=1, steal=False, isolate=False
        ).run(row_fn, points)
    )
    legacy_caches = _cache_counts(legacy_result)

    speedup = sequential_seconds / max(affinity_seconds, 1e-9)
    payload = {
        "benchmark": "campaign",
        "grid_cells": len(points),
        "topology_groups": topologies,
        "stages": STAGES,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "seconds": {
            "sequential": sequential_seconds,
            "affinity": affinity_seconds,
            "per_point_isolated": isolated_seconds,
            "per_point_legacy_pool": legacy_seconds,
        },
        "speedup_vs_sequential": speedup,
        "parallel_efficiency": speedup / workers,
        "min_speedup_8worker": MIN_SPEEDUP_8WORKER,
        "speedup_asserted": (os.cpu_count() or 1) >= 8,
        "affinity_stats": affinity_result.stats,
        "chunks_stolen": affinity_result.stats["stolen"],
        "cache_counters": {
            "affinity": affinity_caches,
            "per_point_isolated": isolated_caches,
            "per_point_legacy_pool": legacy_caches,
        },
        "locality_ratio": (
            isolated_caches["assemble"]["misses"]
            / max(affinity_caches["assemble"]["misses"], 1)
        ),
        "min_locality_ratio": MIN_LOCALITY_RATIO,
    }
    (REPO_ROOT / "BENCH_campaign.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # Correctness: the affinity schedule reproduces the sequential
    # values exactly (same per-chunk warm-start lineage); the per-point
    # schedules agree numerically but not bitwise -- the divergence
    # affinity chunking exists to remove.
    assert _canonical(affinity_result.rows) == reference
    assert _rows_close(isolated_result.rows, sequential_rows)
    assert _rows_close(legacy_result.rows, sequential_rows)

    # Submission granularity: chunks, not points (stealing disabled on
    # the per-point passes; the affinity pass may add stolen
    # duplicates, never per-point fan-out).
    assert affinity_result.stats["chunks"] == topologies
    assert affinity_result.stats["submissions"] <= topologies + affinity_result.stats["stolen"]
    assert isolated_result.stats["submissions"] == len(points)

    # Locality: affinity chunks assemble each topology exactly once
    # across the whole campaign; per-point isolation pays per cell.
    assert affinity_caches["assemble"]["misses"] == topologies
    assert isolated_caches["assemble"]["misses"] == len(points)
    assert payload["locality_ratio"] >= MIN_LOCALITY_RATIO
    # The warm legacy pool can never beat the affinity schedule on
    # assembly work -- equal at one worker, worse as workers spread a
    # topology's cells across processes.
    assert legacy_caches["assemble"]["misses"] >= affinity_caches["assemble"]["misses"]

    if (os.cpu_count() or 1) >= 8:
        assert speedup >= MIN_SPEEDUP_8WORKER, (
            f"8-worker affinity campaign speedup {speedup:.2f}x below "
            f"the {MIN_SPEEDUP_8WORKER}x guard"
        )

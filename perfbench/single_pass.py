"""One measured pass of one workload, in a fresh interpreter.

``run.py`` starts this program once per pass, so the capacity LRUs, the
fault campaign's one-slot template cache and ``ru_maxrss`` start empty,
as on every command-line invocation.  It writes one JSON record to
``--out``.  ``--t0`` is the parent's ``time.monotonic()`` taken just
before it started this interpreter; set-up time runs from there to the
moment the workload's inputs are built, so it covers interpreter start,
imports and grid/plan generation.

With ``--trace 1`` the pass also wraps the public layer functions (see
:func:`install_tracing`) and reports the per-layer metrics: deltas of
the layers' own counters (``capacity_stage_timings``,
``capacity_solver_stats``, ``capacity_cache_stats``,
``batch_stage_timings``, ``vector_batch_stats``) plus the pool workers'
deltas that the campaign orchestrator ships home per chunk, and span
sums and percentiles.
"""

from __future__ import annotations

import argparse
import heapq
import json
import multiprocessing
import os
import platform
import resource
import sys
import time


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def install_tracing(tracer):
    """Wrap the public layer functions; returns the lists that collect
    the ``SweepRunner.run`` and ``CampaignRunner.run`` results."""
    from repro.analytic.capacity import capacity_stage_timings
    from repro.campaign import journal, orchestrator
    from repro.experiments import engine, faults_exp, montecarlo_exp, optimize_exp
    from repro.optimize import evaluate
    from repro.simulation import batch

    engine_runs, campaign_runs = [], []
    wrap = tracer.wrap
    wrap(optimize_exp, "run", "optimize.run")
    wrap(
        optimize_exp,
        "evaluate_cell",
        "optimize.cell",
        measure=lambda: sum(capacity_stage_timings().values()),
    )
    wrap(evaluate, "capacity_distribution_expanded", "capacity.distribution_expanded")
    wrap(faults_exp, "run", "faults.run")
    wrap(montecarlo_exp, "run_conditional_validation", "mc_validate.run")
    wrap(montecarlo_exp, "simulate_conditional_distribution", "mc.rule_based")
    wrap(montecarlo_exp, "simulate_conditional_distribution_protocol", "mc.protocol")
    wrap(engine.SweepRunner, "run", "engine.run", keep=engine_runs)
    wrap(orchestrator.CampaignRunner, "run", "campaign.run", keep=campaign_runs)
    wrap(orchestrator, "plan_chunks", "campaign.plan")
    wrap(orchestrator, "grid_fingerprint", "campaign.plan")
    for method in ("open", "lease", "complete", "fail", "close"):
        wrap(journal.CampaignJournal, method, "campaign.journal")
    wrap(batch.ScenarioTemplate, "__init__", "mc.template")
    return engine_runs, campaign_runs


def sample_counters():
    from repro.analytic.capacity import (
        capacity_cache_stats,
        capacity_solver_stats,
        capacity_stage_timings,
    )
    from repro.simulation.batch import batch_stage_timings
    from repro.simulation.vector import vector_batch_stats

    return {
        "stage": capacity_stage_timings(),
        "solver": capacity_solver_stats(),
        "batch": batch_stage_timings(),
        "vector": vector_batch_stats(),
        "cache": {
            name: {"hits": stats.hits, "misses": stats.misses}
            for name, stats in capacity_cache_stats().items()
        },
    }


def _worker_sums(campaign_runs):
    """Counter deltas of chunks that ran in pool workers (inline chunks
    already show in this process's own counters)."""
    sums = {"stage": {}, "solver": {}, "batch": {}, "vector": {}, "cache": {}}

    def add(bucket, values):
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value

    for _, campaign in campaign_runs:
        for outcome in campaign.chunks:
            if not outcome.in_worker:
                continue
            add(sums["stage"], outcome.stage_timings)
            add(sums["solver"], outcome.solver_stats)
            add(sums["batch"], outcome.batch_timings)
            add(sums["vector"], outcome.vector_stats)
            for name, delta in outcome.cache_deltas.items():
                add(sums["cache"].setdefault(name, {}), delta)
    return sums


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload, tracer, before, after, engine_runs, campaign_runs, wall):
    import numpy as np

    from tracing import duration

    worker = _worker_sums(campaign_runs)

    def delta(kind, key):
        return after[kind].get(key, 0) - before[kind].get(key, 0) + worker[kind].get(key, 0)

    def cache(name, key):
        return (
            after["cache"][name][key]
            - before["cache"][name][key]
            + worker["cache"].get(name, {}).get(key, 0)
        )

    def span_sum(name):
        return sum(duration(span) for span in tracer.named(name))

    layer = {f"san.{stage}_s": delta("stage", stage)
             for stage in ("assemble", "refine", "quotient", "rerate", "solve")}
    solves = delta("solver", "direct") + delta("solver", "iterative")
    layer.update({
        "san.solves": solves,
        "san.gmres_per_solve": _ratio(
            delta("solver", "gmres_iterations"), delta("solver", "iterative")
        ),
        "san.warm_start_frac": _ratio(delta("solver", "warm_started"), solves),
        "san.solver_fallbacks": delta("solver", "solver_fallbacks"),
        "san.structure_fallbacks": delta("solver", "structure_fallbacks"),
    })
    for name in ("distribution", "assemble"):
        hits, misses = cache(name, "hits"), cache(name, "misses")
        layer[f"capacity.{name}.hit_rate"] = _ratio(hits, hits + misses)
    layer["capacity.assemble.misses"] = cache("assemble", "misses")
    layer["capacity.unfold.misses"] = cache("unfold", "misses")

    cells = tracer.named("optimize.cell")
    cell_ms = [1000.0 * duration(span) for span in cells] or [0.0]
    layer.update({
        "optimize.cell_p50_ms": float(np.percentile(cell_ms, 50)),
        "optimize.cell_p95_ms": float(np.percentile(cell_ms, 95)),
        "optimize.self_s": sum(duration(span) - span["inner_s"] for span in cells),
    })

    replications = delta("vector", "replications")
    layer.update({
        "mc.vector_s": delta("batch", "vector"),
        "mc.vector.replications": replications,
        "mc.vector.fallback_frac": _ratio(delta("vector", "fallbacks"), replications),
        "mc.vector.fallback_s": delta("batch", "vector_fallback"),
        "mc.template_builds": len(tracer.named("mc.template")),
        "mc.template_s": delta("batch", "template"),
        "mc.replicate_s": delta("batch", "replicate"),
        "mc.run_s": delta("batch", "run"),
    })

    stats = [campaign.stats for _, campaign in campaign_runs]
    busy = idle = 0.0
    for span, campaign in campaign_runs:
        seconds = sum(outcome.seconds for outcome in campaign.chunks)
        busy += seconds
        idle += campaign.stats["workers"] * duration(span) - seconds
    submissions = sum(s["submissions"] for s in stats)
    journal = getattr(workload, "journal", None)
    layer.update({
        "campaign.plan_s": span_sum("campaign.plan"),
        "campaign.chunks": sum(s["chunks"] for s in stats),
        "campaign.submissions": submissions,
        "campaign.useful_frac": _ratio(sum(s["executed"] for s in stats), submissions),
        "campaign.worker_busy_s": busy,
        "campaign.worker_idle_s": idle,
        "campaign.journal_s": span_sum("campaign.journal"),
        "campaign.journal_bytes": (
            os.path.getsize(journal) if journal and os.path.exists(journal) else 0
        ),
    })

    rows = sum(result.timings.get("rows", 0.0) for _, result in engine_runs)
    layer.update({
        "engine.presolve_s": sum(
            result.timings.get("capacity_presolve", 0.0) for _, result in engine_runs
        ),
        "engine.rows_s": rows,
        "engine.post_s": wall - rows,
        "trace.wall_s": wall,
    })
    layer["stress.share"] = workload.stress(layer, wall)
    return layer


def _stop_children():
    """Stop and reap the pool workers the orchestrator left behind, so
    their high-water mark shows in ``RUSAGE_CHILDREN`` and no process
    outlives the pass.  Once the campaign has returned, a live worker
    is idle or finishing a stolen duplicate whose result is discarded."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(30.0)
        if child.is_alive():
            child.kill()
            child.join()


def host_probe():
    """Seconds a fixed interpreter-bound kernel takes right now: heap
    and dict churn, the instruction mix of the workloads' event loops
    and solver bookkeeping.  ``run.py`` scales each pass's times by it,
    which cancels the host's own speed drift (neighbouring load moves
    it by up to 1.7x over minutes); the kernel does not touch the
    package, so a change to the package moves the scaled times fully."""
    start = time.perf_counter()
    heap, table = [], {}
    for value in range(60_000):
        heapq.heappush(heap, ((value * 7919) % 10007, value))
        table[value % 1013] = table.get(value % 1013, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def main(argv=None):
    args = _parse(argv)
    # Importing the workloads imports the package: part of set-up.
    import numpy
    import scipy

    import workloads
    from tracing import NullTracer, Tracer, self_times

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    setup_s = time.monotonic() - args.t0

    tracer = NullTracer()
    if args.trace:
        tracer = Tracer(spill_dir=args.workdir)
        engine_runs, campaign_runs = install_tracing(tracer)
        before = sample_counters()
    probes = [host_probe(), host_probe()]
    start = time.perf_counter()
    output = workload.run(tracer)
    wall = time.perf_counter() - start
    _stop_children()
    probes += [host_probe(), host_probe()]
    probe_s = sum(probes) / len(probes)
    if args.trace:
        after = sample_counters()
    checks, digest = workload.check(output, args.root)

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall,
        "probe_s": probe_s,
        "items": workload.items,
        "item": workload.item,
        "size": workload.size,
        "peak_rss_mb": kib / 1024.0,
        "checks": len(checks),
        "failed": sum(1 for ok in checks if not ok),
        "digest": digest,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.trace:
        tracer.collect_worker_spans()
        record["layer"] = layer_metrics(
            workload, tracer, before, after, engine_runs, campaign_runs, wall
        )
        record["layer"]["host.probe_s"] = probe_s
        record["self_times"] = self_times(tracer.spans)
        record["spans"] = tracer.spans
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

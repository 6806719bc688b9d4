"""Metric names, units and directions, used by ``run.py`` and its
test.  ``METRICS.md`` documents each one; ``BENCHMARK.json``
at the repository root must list the same names."""

#: (name, unit, better, bound): measured with tracing off.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.01),
]

#: (name, unit, better): from the separate traced passes.
PER_LAYER = [
    ("san.assemble_s", "s", "lower"),
    ("san.refine_s", "s", "lower"),
    ("san.quotient_s", "s", "lower"),
    ("san.rerate_s", "s", "lower"),
    ("san.solve_s", "s", "lower"),
    ("san.solves", "count", "lower"),
    ("san.gmres_per_solve", "count", "lower"),
    ("san.warm_start_frac", "ratio", "higher"),
    ("san.solver_fallbacks", "count", "lower"),
    ("san.structure_fallbacks", "count", "lower"),
    ("capacity.distribution.hit_rate", "ratio", "higher"),
    ("capacity.assemble.hit_rate", "ratio", "higher"),
    ("capacity.assemble.misses", "count", "lower"),
    ("capacity.unfold.misses", "count", "lower"),
    ("optimize.cell_p50_ms", "ms", "lower"),
    ("optimize.cell_p95_ms", "ms", "lower"),
    ("optimize.self_s", "s", "lower"),
    ("mc.vector_s", "s", "lower"),
    ("mc.vector.replications", "count", "higher"),
    ("mc.vector.fallback_frac", "ratio", "lower"),
    ("mc.vector.fallback_s", "s", "lower"),
    ("mc.template_builds", "count", "lower"),
    ("mc.template_s", "s", "lower"),
    ("mc.replicate_s", "s", "lower"),
    ("mc.run_s", "s", "lower"),
    ("campaign.plan_s", "s", "lower"),
    ("campaign.chunks", "count", "lower"),
    ("campaign.submissions", "count", "lower"),
    ("campaign.useful_frac", "ratio", "higher"),
    ("campaign.worker_busy_s", "s", "lower"),
    ("campaign.worker_idle_s", "s", "lower"),
    ("campaign.journal_s", "s", "lower"),
    ("campaign.journal_bytes", "bytes", "lower"),
    ("engine.presolve_s", "s", "lower"),
    ("engine.rows_s", "s", "lower"),
    ("engine.post_s", "s", "lower"),
    ("stress.share", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("host.probe_s", "s", "lower"),
]

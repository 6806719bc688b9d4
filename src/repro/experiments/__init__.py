"""Experiment harness: one module per table/figure of the paper's
evaluation plus the reproduction's own validation and ablation studies.

Run everything with ``python -m repro.experiments``; each module also
has its own ``main()``.
"""

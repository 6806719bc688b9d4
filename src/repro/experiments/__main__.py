"""Run every experiment and print the report tables.

Usage::

    python -m repro.experiments            # quick set (analytic only)
    python -m repro.experiments --full     # everything, incl. simulation
    python -m repro.experiments --plots    # + ASCII charts of the figures
    python -m repro.experiments --profile  # + profile_<id>.pstats per run

    python -m repro.experiments corpus generate --cells 210 --out DIR
    python -m repro.experiments corpus run --corpus DIR --scorecard F
    python -m repro.experiments corpus score --scorecard F
    python -m repro.experiments corpus diff --scorecard F [--golden G]

    python -m repro.experiments optimize [--smoke] [--jobs N] [--out F]
    python -m repro.experiments faults [--runs N] [--jobs N]

The ``corpus`` subcommand drives the seeded scenario corpus and its
scored conformance harness (see :mod:`repro.experiments.corpus_exp`
and ``docs/SCENARIOS.md``); ``optimize`` sweeps the spare-policy design
space on the lumped quotient solver and reports the Pareto frontier
(see :mod:`repro.experiments.optimize_exp` and ``docs/OPTIMIZE.md``);
``faults`` runs the fault-injection campaign table (see
:mod:`repro.experiments.faults_exp` and ``docs/FAULTS.md``).  All
three take ``--jobs N`` for the affinity-sharded campaign orchestrator
and ``--resume JOURNAL`` for chunk-granular checkpoint/resume (see
``docs/CAMPAIGN.md``).

Profiles are standard :mod:`cProfile` dumps; inspect them with
``python -m pstats profile_fig7.pstats`` (then ``sort cumtime`` /
``stats 20``) or any pstats viewer such as snakeviz.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from typing import Callable, List, Optional, Sequence

from repro.experiments import (
    aging_exp,
    calibration_exp,
    corpus_exp,
    faults_exp,
    fig7,
    fig8,
    fig9,
    geolocation_exp,
    geometry_exp,
    montecarlo_exp,
    multiplane_exp,
    optimize_exp,
    orbits_exp,
    protocol_exp,
    robustness_exp,
    san_ablation,
    scaled_capacity_exp,
    sweeps,
    table1,
    text_results,
)
from repro.experiments.report import ExperimentResult

#: Experiments of the default (quick, analytic-only) set, in run order.
QUICK_SECTIONS: List[Callable[[], ExperimentResult]] = [
    table1.run,
    geometry_exp.run,
    text_results.run,
    fig7.run,
    fig8.run,
    fig9.run,
    sweeps.run_tau_sweep,
    sweeps.run_mu_sweep,
    robustness_exp.run,
    aging_exp.run,
    multiplane_exp.run,
]

#: Additional experiments run with ``--full`` (simulation-backed).
FULL_SECTIONS: List[Callable[[], ExperimentResult]] = [
    montecarlo_exp.run_conditional_validation,
    montecarlo_exp.run_capacity_validation,
    protocol_exp.run,
    geolocation_exp.run,
    orbits_exp.run_constants,
    orbits_exp.run_latitude_profile,
    san_ablation.run,
    scaled_capacity_exp.run,
    calibration_exp.run,
    faults_exp.run,
    corpus_exp.run,
    optimize_exp.run,
]

#: x-axis header per figure experiment, for ``--plots``.
FIGURE_X_HEADERS = {
    "fig7": "lambda",
    "fig8": "lambda",
    "fig9": "lambda",
    "tau-sweep": "tau",
    "mu-sweep": "mean duration",
}


def _plot(result, x_header: str) -> str:
    """Render an experiment's numeric columns as an ASCII chart."""
    from repro.experiments.ascii_plot import line_chart

    series = {}
    for header in result.headers:
        if header == x_header:
            continue
        points = []
        for row in result.rows:
            try:
                x = float(row[x_header])
                y = float(row[header])
            except (TypeError, ValueError):
                continue
            points.append((x, y))
        if points:
            series[header] = points
    return line_chart(series, title=f"[{result.experiment_id}] {result.title}")


def run_experiment(
    run_fn: Callable[[], ExperimentResult],
    *,
    profile: bool = False,
) -> ExperimentResult:
    """Run one experiment callable, optionally under :mod:`cProfile`.

    With ``profile``, the run happens inside a profiler and the stats
    are dumped to ``profile_<experiment_id>.pstats`` in the current
    directory.  The result is returned either way, so profiling never
    changes what gets printed.
    """
    if not profile:
        return run_fn()
    profiler = cProfile.Profile()
    result = profiler.runcall(run_fn)
    profiler.dump_stats(f"profile_{result.experiment_id}.pstats")
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Subcommand-style dispatch: `corpus ...` has its own CLI.
    if argv and argv[0] == "corpus":
        return corpus_exp.main(argv[1:])
    if argv and argv[0] == "optimize":
        return optimize_exp.main(argv[1:])
    if argv and argv[0] == "faults":
        return faults_exp.main(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="also run the slow simulation-backed experiments",
    )
    parser.add_argument(
        "--plots",
        action="store_true",
        help="render the figure experiments as ASCII charts too",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "profile each experiment with cProfile and dump "
            "profile_<experiment>.pstats (inspect with python -m pstats "
            "or snakeviz)"
        ),
    )
    args = parser.parse_args(argv)

    for run_fn in QUICK_SECTIONS:
        result = run_experiment(run_fn, profile=args.profile)
        print(result.render())
        print()
        if args.plots and result.experiment_id in FIGURE_X_HEADERS:
            print(_plot(result, FIGURE_X_HEADERS[result.experiment_id]))
            print()
    if args.full:
        for run_fn in FULL_SECTIONS:
            result = run_experiment(run_fn, profile=args.profile)
            print(result.render())
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

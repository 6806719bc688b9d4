"""Experiment ``optimize``: the spare-policy design-space sweep.

Two entry points share the machinery:

* :func:`run` -- the registry-style experiment (``--full`` set): sweeps
  the default :func:`~repro.optimize.design.design_grid` (1134 cells /
  42 SAN topologies with the stock axes) through the lumped quotient
  solver and reports the Pareto-efficient cells, with the full per-cell
  table, fallback scorecard and policy recommendation in the metadata.
* :func:`main` -- the subcommand CLI behind
  ``python -m repro.experiments optimize``::

      optimize                          # full default grid
      optimize --smoke                  # the 24-cell golden smoke grid
      optimize --stages 8 --jobs 4      # finer Erlang clock, 4 workers
      optimize --resume build/opt.jsonl # checkpoint / resume the sweep
      optimize --out build/optimize.json

  ``--out`` dumps the complete result (rows, frontier, scorecard,
  recommendation, timings) as strict JSON.  The exit status is 1 when
  the fallback scorecard has *unexplained* entries -- a structure
  fallback on this grid means a lumping/rerate bug, never an expected
  contingency (see ``docs/OPTIMIZE.md``).

Cells are evaluated in topology-grouped order (the grid builders sort
them that way), so each of the grid's SAN topologies is refined and
quotiented once and every subsequent cell in the group takes the
re-rate + warm-started-solve path; the per-stage ``refine`` /
``rerate`` / ``solve`` timing deltas in the result show the split.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Dict, Optional, Sequence

from repro.campaign.planner import json_safe
from repro.experiments.engine import SweepRunner
from repro.experiments.report import ExperimentResult
from repro.optimize.design import (
    DesignPoint,
    design_grid,
    grid_topology_count,
    smoke_grid,
)
from repro.optimize.evaluate import evaluate_cell
from repro.optimize.pareto import (
    DEFAULT_AVAILABILITY_TARGET,
    DEFAULT_QOS_TARGET,
    classify_fallbacks,
    pareto_frontier,
    recommend_policy,
)

__all__ = ["HEADERS", "run", "main"]

#: Column order of the per-cell rows (and the Pareto table).
HEADERS = [
    "scale",
    "full",
    "spares",
    "policy",
    "eta",
    "phi_hours",
    "latency_hours",
    "lambda",
    "rho",
    "k_min",
    "expected_k",
    "availability",
    "qos_alert",
    "cost",
    "structure_fallbacks",
    "solver_fallbacks",
]


def _evaluate(point: DesignPoint, *, stages: int) -> Dict[str, object]:
    """Top-level (hence picklable for the process-pool path) row fn."""
    return evaluate_cell(point, stages=stages)


def _topology_affinity(point: DesignPoint):
    """Campaign affinity key: cells sharing a SAN topology execute
    consecutively on one worker, so each topology is refined and
    quotiented once per chunk and every subsequent cell re-rates it."""
    return point.topology_group()


def run(
    *,
    cells: Optional[Sequence[DesignPoint]] = None,
    stages: int = 6,
    n_jobs: int = 1,
    journal: Optional[str] = None,
    availability_target: float = DEFAULT_AVAILABILITY_TARGET,
    qos_target: float = DEFAULT_QOS_TARGET,
) -> ExperimentResult:
    """Sweep the design grid and report the Pareto frontier.

    The rendered table holds only the Pareto-efficient cells (the
    interesting output); the complete per-cell table, the fallback
    scorecard and the recommendation live in ``metadata`` (``"cells"``,
    ``"fallback_scorecard"``, ``"recommendation"``).  ``journal``
    checkpoints the sweep to the given JSONL path, chunk by chunk, and
    resumes from it (skipping completed topology groups) when the file
    already exists; see ``docs/CAMPAIGN.md``.
    """
    if cells is None:
        cells = design_grid()
    cells = list(cells)
    runner = SweepRunner(n_jobs=n_jobs, journal=journal)
    result = runner.run(
        experiment_id="optimize",
        title=(
            f"Spare-policy design-space optimization "
            f"({len(cells)} cells, {grid_topology_count(cells)} topologies, "
            f"stages={stages})"
        ),
        headers=HEADERS,
        row_fn=functools.partial(_evaluate, stages=stages),
        points=cells,
        affinity=_topology_affinity,
    )
    rows = result.rows
    frontier = pareto_frontier(rows)
    scorecard = classify_fallbacks(rows)
    recommendation = recommend_policy(
        rows,
        availability_target=availability_target,
        qos_target=qos_target,
    )
    result.metadata.update(
        {
            "grid_cells": len(cells),
            "grid_topologies": grid_topology_count(cells),
            "stages": stages,
            "cells": rows,
            "fallback_scorecard": scorecard,
            "recommendation": recommendation,
        }
    )
    rec_cell = recommendation["cell"]
    rec_note = (
        "no cells evaluated"
        if rec_cell is None
        else (
            f"recommended: {rec_cell['policy']} policy, "
            f"{rec_cell['spares']} spares, eta={rec_cell['eta']}, "
            f"cost={rec_cell['cost']:.2f} "
            f"(targets {'met' if recommendation['constraints_met'] else 'NOT met'}: "
            f"availability>={availability_target}, qos>={qos_target})"
        )
    )
    result.rows = frontier
    result.notes = list(result.notes) + [
        f"{len(frontier)} Pareto-efficient cells of {len(rows)} evaluated",
        rec_note,
        f"fallbacks: {len(scorecard['explained'])} explained (solver), "
        f"{len(scorecard['unexplained'])} unexplained (structure)",
    ]
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments optimize",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the 24-cell golden smoke grid instead of the full grid",
    )
    parser.add_argument(
        "--stages",
        type=int,
        default=6,
        help="Erlang stages of the deterministic timers (default 6)",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--resume",
        metavar="JOURNAL",
        default=None,
        help=(
            "checkpoint the sweep to this JSONL journal and resume from "
            "it if it exists (must have been recorded for the same grid)"
        ),
    )
    parser.add_argument(
        "--availability-target",
        type=float,
        default=DEFAULT_AVAILABILITY_TARGET,
    )
    parser.add_argument(
        "--qos-target", type=float, default=DEFAULT_QOS_TARGET
    )
    parser.add_argument(
        "--out", default=None, help="also dump the full result as JSON"
    )
    args = parser.parse_args(argv)

    cells = smoke_grid() if args.smoke else design_grid()
    start = time.perf_counter()
    result = run(
        cells=cells,
        stages=args.stages,
        n_jobs=args.jobs,
        journal=args.resume,
        availability_target=args.availability_target,
        qos_target=args.qos_target,
    )
    elapsed = time.perf_counter() - start
    print(result.render())
    scorecard = result.metadata["fallback_scorecard"]
    print(
        f"\n{scorecard['cells']} cells in {elapsed:.1f}s "
        f"({scorecard['cells'] / elapsed:.1f} cells/sec), "
        f"{scorecard['clean']} clean, "
        f"{len(scorecard['explained'])} explained fallbacks, "
        f"{len(scorecard['unexplained'])} unexplained"
    )
    if args.out:
        payload: Dict[str, object] = json_safe(
            {
                "experiment_id": result.experiment_id,
                "title": result.title,
                "headers": result.headers,
                "frontier": result.rows,
                "notes": result.notes,
                "timings": result.timings,
                "metadata": result.metadata,
            }
        )
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 1 if scorecard["unexplained"] else 0


if __name__ == "__main__":
    sys.exit(main())

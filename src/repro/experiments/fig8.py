"""Experiment ``fig8``: ``P(Y = 3)`` as a function of ``lambda``
(paper Figure 8: ``tau = 5``, ``eta = 12``, ``phi = 30000`` hours,
OAQ vs BAQ at ``mu in {0.2, 0.5}``).

Expected shape: OAQ gains as the mean signal duration grows (``mu``
falls) -- up to ~38% over the lambda domain -- while BAQ is entirely
insensitive to ``mu`` because it never waits for an opportunity.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analytic.framework import OAQFramework
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.experiments.engine import SweepRunner
from repro.experiments.fig7 import DEFAULT_LAMBDA_GRID
from repro.experiments.report import ExperimentResult

__all__ = ["run"]


def _fig8_row(point) -> Dict[str, object]:
    """One lambda's four curve values.  All (scheme, mu) combinations
    share this lambda's capacity config, so the memoized solve runs
    once per row instead of once per framework (4x fewer solves than
    the seed's per-combination rebuild)."""
    row = {"lambda": f"{point['lam']:.0e}"}
    for scheme in (Scheme.OAQ, Scheme.BAQ):
        for mu in point["mus"]:
            params = EvaluationParams(
                deadline_minutes=point["deadline"],
                signal_termination_rate=mu,
                node_failure_rate_per_hour=point["lam"],
                deployment_threshold=point["threshold"],
            )
            framework = OAQFramework(params, capacity_stages=point["stages"])
            value = framework.qos_distribution(scheme)[
                QoSLevel.SIMULTANEOUS_DUAL
            ]
            row[f"{scheme.name} (mu={mu})"] = value
    return row


def run(
    *,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    mus: Sequence[float] = (0.2, 0.5),
    threshold: int = 12,
    deadline: float = 5.0,
    stages: int = 24,
) -> ExperimentResult:
    """Regenerate Figure 8's four curves."""
    headers = ["lambda"]
    for mu in mus:
        headers.append(f"OAQ (mu={mu})")
    for mu in mus:
        headers.append(f"BAQ (mu={mu})")
    points = [
        {
            "lam": lam,
            "mus": tuple(mus),
            "threshold": threshold,
            "deadline": deadline,
            "stages": stages,
        }
        for lam in lambda_grid
    ]
    return SweepRunner().run(
        experiment_id="fig8",
        title=(
            f"P(Y=3) as a function of lambda (tau={deadline}, eta={threshold}, "
            "phi=30000 hrs)"
        ),
        headers=headers,
        row_fn=_fig8_row,
        points=points,
        notes=[
            "Paper shape: OAQ improves as mu decreases (up to ~38% from "
            "mu=0.5 to mu=0.2); BAQ curves for both mu values coincide.",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()

"""Experiment ``fig9``: the QoS measure ``P(Y >= y)`` as a function of
``lambda`` (paper Figure 9: ``tau = 5``, ``mu = 0.2``,
``phi = 30000`` hours; OAQ vs BAQ for ``y in {1, 2, 3}``).

Anchor values from the paper's text: at ``lambda = 1e-5`` OAQ achieves
``P(Y >= 2) = 0.75`` vs BAQ ``0.33``; at ``lambda = 1e-4`` OAQ ``0.41``
vs BAQ ``0.04``; ``P(Y >= 1) = 1`` for both schemes over the whole
domain.  Those anchors are only reproduced with the deployment
threshold at ``eta = 10`` (the paper states ``eta`` explicitly for
Figures 7 and 8 but not 9), which is the default here.
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

_LEVELS = (QoSLevel.SINGLE, QoSLevel.SEQUENTIAL_DUAL, QoSLevel.SIMULTANEOUS_DUAL)


def _fig9_row(point) -> Dict[str, object]:
    """One lambda's six curve values (both schemes, three levels)."""
    params = EvaluationParams(
        deadline_minutes=point["deadline"],
        signal_termination_rate=point["mu"],
        node_failure_rate_per_hour=point["lam"],
        deployment_threshold=point["threshold"],
    )
    framework = OAQFramework(params, capacity_stages=point["stages"])
    row = {"lambda": f"{point['lam']:.0e}"}
    for scheme in (Scheme.OAQ, Scheme.BAQ):
        distribution = framework.qos_distribution(scheme)
        for level in _LEVELS:
            row[f"{scheme.name} P(Y>={int(level)})"] = distribution.at_least(
                level
            )
    return row


def run(
    *,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    mu: float = 0.2,
    deadline: float = 5.0,
    threshold: int = 10,
    stages: int = 24,
) -> ExperimentResult:
    """Regenerate Figure 9's six curves."""
    headers = ["lambda"]
    for scheme in (Scheme.OAQ, Scheme.BAQ):
        for level in _LEVELS:
            headers.append(f"{scheme.name} P(Y>={int(level)})")
    points = [
        {
            "lam": lam,
            "mu": mu,
            "deadline": deadline,
            "threshold": threshold,
            "stages": stages,
        }
        for lam in lambda_grid
    ]
    return SweepRunner().run(
        experiment_id="fig9",
        title=(
            f"P(Y >= y) as a function of lambda (tau={deadline}, mu={mu}, "
            "phi=30000 hrs)"
        ),
        headers=headers,
        row_fn=_fig9_row,
        points=points,
        notes=[
            "Paper anchors: OAQ P(Y>=2): 0.75 @1e-5 -> 0.41 @1e-4; "
            "BAQ: 0.33 -> 0.04; P(Y>=1)=1 for both schemes.",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()

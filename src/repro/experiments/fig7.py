"""Experiment ``fig7``: probability of orbital-plane capacity
``P(K = k)`` as a function of the node-failure rate ``lambda``
(paper Figure 7: ``eta = 10``, ``phi = 30000`` hours).

Expected shape (paper Section 4.3): full capacity ``P(14)`` dominates
at low ``lambda``; as ``lambda`` grows the threshold capacity
``P(10)`` rapidly increases and becomes dominant, while ``P(9)`` stays
small because the threshold-triggered deployment policy prevents the
plane from operating below the threshold.

All grid points share one capacity *topology* (``lambda`` is a rate
parameter), so the first point assembles that structure and every
later point re-rates it and warm-starts its steady-state solve from the
previous point (see ``docs/SAN_ENGINE.md``).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analytic.capacity import CapacityModelConfig, capacity_distribution
from repro.experiments.engine import SweepRunner
from repro.experiments.report import ExperimentResult

__all__ = ["DEFAULT_LAMBDA_GRID", "run"]

#: The figures sweep lambda over [1e-5, 1e-4] per hour.
DEFAULT_LAMBDA_GRID = tuple(i * 1e-5 for i in range(1, 11))


def _capacity_row(point) -> Dict[str, object]:
    """One lambda's ``P(k)`` curve, solved here: each grid point has
    its own config."""
    config = CapacityModelConfig(
        failure_rate_per_hour=point["lam"],
        threshold=point["threshold"],
        scheduled_period_hours=point["phi"],
        replacement_latency_hours=point["latency"],
    )
    distribution = capacity_distribution(config, stages=point["stages"])
    row = {"lambda": f"{point['lam']:.0e}"}
    for k in point["capacities"]:
        row[f"P(K={k})"] = distribution.get(k, 0.0)
    return row


def run(
    *,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    threshold: int = 10,
    scheduled_period_hours: float = 30000.0,
    replacement_latency_hours: float = 168.0,
    stages: int = 24,
    capacities: Sequence[int] = tuple(range(9, 15)),
) -> ExperimentResult:
    """Regenerate Figure 7's curves."""
    headers = ["lambda"] + [f"P(K={k})" for k in capacities]
    points = [
        {
            "lam": lam,
            "threshold": threshold,
            "phi": scheduled_period_hours,
            "latency": replacement_latency_hours,
            "stages": stages,
            "capacities": tuple(capacities),
        }
        for lam in lambda_grid
    ]
    return SweepRunner().run(
        experiment_id="fig7",
        title=(
            "Probability of orbital-plane capacity "
            f"(eta={threshold}, phi={scheduled_period_hours:.0f} hrs)"
        ),
        headers=headers,
        row_fn=_capacity_row,
        points=points,
        notes=[
            "Paper shape: P(14) dominates at lambda=1e-5; P(10) rapidly "
            "increases and dominates as lambda grows; P(9) stays small.",
            f"replacement latency = {replacement_latency_hours} hrs "
            "(calibrated; not published in the paper).",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()

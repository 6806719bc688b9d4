"""Experiment ``multiplane``: how conservative is the paper's
worst-case setting? (extension)

The paper's measure assumes the signal sits where only one plane's
footprints matter.  Off the centre line -- increasingly so at higher
latitudes -- the target is covered by several *independently degrading*
planes, and the constellation delivers the best of their results.
This experiment quantifies the gap: ``P(Y >= y)`` for the worst case
(1 plane) versus 2 and 3 covering planes.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analytic.multiplane import multi_plane_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.experiments.engine import SweepRunner
from repro.experiments.report import ExperimentResult

__all__ = ["run"]


def _multiplane_row(point) -> Dict[str, object]:
    """One (lambda, planes) cell.  Both schemes and all plane counts of
    a lambda share its capacity config; the memoized solve of the
    lambda's first cell serves every later ``multi_plane_distribution``
    call."""
    params = EvaluationParams(
        signal_termination_rate=point["mu"],
        node_failure_rate_per_hour=point["lam"],
    )
    planes = point["planes"]
    stages = point["stages"]
    row = {"lambda": f"{point['lam']:.0e}", "planes": planes}
    oaq = multi_plane_distribution(
        params, Scheme.OAQ, covering_planes=planes, capacity_stages=stages
    )
    baq = multi_plane_distribution(
        params, Scheme.BAQ, covering_planes=planes, capacity_stages=stages
    )
    row["OAQ P(Y>=2)"] = oaq.at_least(QoSLevel.SEQUENTIAL_DUAL)
    row["OAQ P(Y>=3)"] = oaq.at_least(QoSLevel.SIMULTANEOUS_DUAL)
    row["BAQ P(Y>=2)"] = baq.at_least(QoSLevel.SEQUENTIAL_DUAL)
    return row


def run(
    *,
    lambdas: Sequence[float] = (1e-5, 5e-5, 1e-4),
    plane_counts: Sequence[int] = (1, 2, 3),
    mu: float = 0.2,
    stages: int = 16,
) -> ExperimentResult:
    """Tabulate the best-of-planes QoS measure."""
    headers = ["lambda", "planes", "OAQ P(Y>=2)", "OAQ P(Y>=3)", "BAQ P(Y>=2)"]
    points = [
        {"lam": lam, "planes": planes, "mu": mu, "stages": stages}
        for lam in lambdas
        for planes in plane_counts
    ]
    return SweepRunner().run(
        experiment_id="multiplane",
        title="Best-of-planes QoS vs the paper's single-plane worst case",
        headers=headers,
        row_fn=_multiplane_row,
        points=points,
        notes=[
            "Extension: planes degrade independently (no shared spares), so "
            "a target covered by p planes receives max of p i.i.d. results.",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()

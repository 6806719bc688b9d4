"""Experiment ``scaled-capacity``: lumped solves of scaled-up planes.

The paper's orbital plane has 14 satellites; this experiment scales the
plane to 2x--4x (satellites, in-orbit spares and the threshold ``eta``
all multiplied) and solves the **per-satellite expanded** SAN
(:func:`repro.analytic.capacity.build_capacity_san_expanded`) through
the verified symmetry quotient (:mod:`repro.san.lumping`).  The
expanded tangible space grows as :math:`O(2^{\\text{satellites}})` --
about :math:`7.2\\times 10^{16}` markings at 4x, far beyond any direct
solver -- while the orbit quotient stays linear in the satellite count,
which is the whole point of the lumping engine.

Reported per scale: satellite count, orbit representatives vs full
tangible markings (and their ratio), and the resulting steady-state
``P(K >= eta)`` and ``E[K]``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_distribution_expanded,
    expanded_capacity_summary,
)
from repro.experiments.engine import SweepRunner
from repro.experiments.report import ExperimentResult

__all__ = ["scaled_config", "run"]

#: Erlang stages for the two deterministic timers.  The scaled planes
#: are a capacity study, not a timer-accuracy study; 8 stages keeps the
#: 4x quotient solve fast while staying well inside the ablation's
#: acceptable band (see experiment ``ablation-phases``).
_STAGES = 8


def scaled_config(
    scale: int, *, failure_rate_per_hour: float = 1e-5
) -> CapacityModelConfig:
    """The paper's plane with every population multiplied by ``scale``
    (the per-satellite failure rate and the timers are intensive and
    stay fixed)."""
    return CapacityModelConfig(
        full_capacity=14 * scale,
        in_orbit_spares=2 * scale,
        threshold=10 * scale,
        failure_rate_per_hour=failure_rate_per_hour,
    )


def _scaled_row(point) -> Dict[str, object]:
    scale = point["scale"]
    config = scaled_config(
        scale, failure_rate_per_hour=point["failure_rate_per_hour"]
    )
    distribution = capacity_distribution_expanded(
        config, stages=_STAGES, lump=True
    )
    summary = expanded_capacity_summary(config, stages=_STAGES)
    p_at_least_eta = sum(
        p for k, p in distribution.items() if k >= config.threshold
    )
    expected_k = sum(k * p for k, p in distribution.items())
    return {
        "scale": f"{scale}x",
        "satellites": config.full_capacity,
        "orbit reps": summary["orbit_representatives"],
        "full markings": f"{summary['full_tangible_markings']:.3e}",
        "reduction": f"{summary['marking_reduction']:.1f}x",
        "P(K>=eta)": p_at_least_eta,
        "E[K]": expected_k,
    }


def run(
    *,
    scales: Sequence[int] = (1, 2, 3, 4),
    failure_rate_per_hour: float = 1e-5,
) -> ExperimentResult:
    """Solve the expanded plane at each scale through the lumped path."""
    points = [
        {"scale": scale, "failure_rate_per_hour": failure_rate_per_hour}
        for scale in scales
    ]
    headers = [
        "scale",
        "satellites",
        "orbit reps",
        "full markings",
        "reduction",
        "P(K>=eta)",
        "E[K]",
    ]
    return SweepRunner().run(
        experiment_id="scaled-capacity",
        title=(
            "Scaled constellations through the symmetry quotient "
            f"(lambda={failure_rate_per_hour:.0e}, stages={_STAGES})"
        ),
        headers=headers,
        row_fn=_scaled_row,
        points=points,
        notes=[
            "'full markings' counts the tangible states of the "
            "per-satellite expanded SAN that the quotient stands for; "
            "beyond 1x it is far outside direct-solver reach.",
            "The refinement is verified per topology (repro.san.lumping); "
            "P(K) at 1x matches the counted paper model to ~1e-15.",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()

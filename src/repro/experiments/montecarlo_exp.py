"""Experiment ``mc-validate``: Monte-Carlo cross-validation of the
closed-form conditional QoS model and of the SAN capacity model.

Not a figure of the paper -- this is the reproduction's own evidence
that the analytic machinery encodes the intended stochastic processes:

* the rule-based QoS sampler and the *full protocol* simulation are
  compared against the closed forms for representative ``k``;
* the independent plane-degradation DES is compared against the
  phase-type SAN solution of ``P(k)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analytic.capacity import CapacityModelConfig, capacity_distribution
from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.experiments.report import ExperimentResult
from repro.simulation.plane_process import simulate_capacity_distribution
from repro.simulation.qos_montecarlo import (
    simulate_conditional_distribution,
    simulate_conditional_distribution_protocol,
)

__all__ = ["run_conditional_validation", "run_capacity_validation"]


def run_conditional_validation(
    *,
    capacities: Sequence[int] = (9, 10, 12, 14),
    samples: int = 60_000,
    protocol_samples: int = 100_000,
    seed: Optional[int] = 20030622,
) -> ExperimentResult:
    """Compare ``P(Y = y | k)``: closed form vs samplers.

    The protocol column runs on the struct-of-arrays engine of
    :mod:`repro.simulation.vector`, which is what lets the default
    ``protocol_samples`` sit at 100k per cell instead of the ~1.5k a
    per-replication event loop could afford.
    """
    params = EvaluationParams(signal_termination_rate=0.2)
    headers = [
        "k",
        "scheme",
        "level",
        "closed form",
        "rule-based MC",
        "protocol MC",
    ]
    rows = []
    for k in capacities:
        geometry = params.constellation.plane_geometry(k)
        for scheme in (Scheme.OAQ, Scheme.BAQ):
            analytic = conditional_distribution(geometry, params, scheme)
            fast = simulate_conditional_distribution(
                geometry, params, scheme, samples=samples, seed=seed
            )
            protocol = simulate_conditional_distribution_protocol(
                geometry,
                params,
                scheme,
                samples=protocol_samples,
                seed=seed,
            )
            for level in (
                QoSLevel.SIMULTANEOUS_DUAL,
                QoSLevel.SEQUENTIAL_DUAL,
                QoSLevel.SINGLE,
                QoSLevel.MISSED,
            ):
                if analytic[level] == 0.0 and fast[level] == 0.0:
                    continue
                rows.append(
                    {
                        "k": k,
                        "scheme": scheme.name,
                        "level": int(level),
                        "closed form": analytic[level],
                        "rule-based MC": fast[level],
                        "protocol MC": protocol[level],
                    }
                )
    return ExperimentResult(
        experiment_id="mc-validate",
        title="Closed form vs Monte-Carlo vs full-protocol P(Y=y|k)",
        headers=headers,
        rows=rows,
        notes=[
            "Protocol MC includes the crosslink delay delta and the "
            "computation bound Tg, which the analytic model neglects; "
            "agreement within a few percent is expected.",
        ],
    )


def run_capacity_validation(
    *,
    lam: float = 5e-5,
    threshold: int = 10,
    stages: int = 24,
    horizon_hours: float = 2.0e6,
    seed: Optional[int] = 7,
) -> ExperimentResult:
    """Compare ``P(k)``: SAN phase-type solve vs independent DES."""
    config = CapacityModelConfig(
        failure_rate_per_hour=lam, threshold=threshold
    )
    analytic = capacity_distribution(config, stages=stages)
    simulated = simulate_capacity_distribution(
        config, horizon_hours=horizon_hours, seed=seed
    )
    headers = ["k", "SAN (Erlang unfold)", "independent DES"]
    rows = []
    for k in sorted(set(analytic) | set(simulated)):
        if analytic.get(k, 0.0) < 1e-4 and simulated.get(k, 0.0) < 1e-4:
            continue
        rows.append(
            {
                "k": k,
                "SAN (Erlang unfold)": analytic.get(k, 0.0),
                "independent DES": simulated.get(k, 0.0),
            }
        )
    return ExperimentResult(
        experiment_id="mc-validate-capacity",
        title=f"P(k): SAN solution vs independent DES (lambda={lam:.0e})",
        headers=headers,
        rows=rows,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_conditional_validation().render())
    print()
    print(run_capacity_validation().render())


if __name__ == "__main__":  # pragma: no cover
    main()

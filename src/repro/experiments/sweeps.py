"""Experiments ``tau-sweep`` and ``mu-sweep``: the QoS measure as a
function of the deadline and of the mean signal duration.

The paper reports these two studies in prose only (end of Section 4.3):

* sweeping ``tau`` shows OAQ "achieves better QoS by taking full
  advantage of the time allowance";
* sweeping the mean signal duration shows OAQ "responsively treats a
  longer signal duration as the extended opportunity".

BAQ serves as the control: its level-3 probability is independent of
``mu``, and its gain with ``tau`` saturates as soon as the computation
reliably finishes (no waiting ever happens).

Both sweeps run on :class:`~repro.experiments.engine.SweepRunner`: the
capacity distribution ``P(k)`` depends on neither ``tau`` nor ``mu``,
so the whole grid shares **one** capacity solve: the grid is one
chunk, its first point solves through the memoized
:func:`~repro.analytic.capacity.capacity_distribution`, and every later
point reads that answer from the cache.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analytic.framework import OAQFramework
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.experiments.engine import SweepRunner
from repro.experiments.report import ExperimentResult

__all__ = ["run_tau_sweep", "run_mu_sweep"]


def _qos_point_row(point) -> Dict[str, object]:
    """Shared per-point evaluation: both schemes' P(Y>=2) and P(Y>=3)
    at one ``(tau, mu, lambda, eta)`` setting."""
    params = EvaluationParams(
        deadline_minutes=point["tau"],
        signal_termination_rate=point["mu"],
        node_failure_rate_per_hour=point["lam"],
        deployment_threshold=point["threshold"],
    )
    framework = OAQFramework(params, capacity_stages=point["stages"])
    row = dict(point["label"])
    for scheme in (Scheme.OAQ, Scheme.BAQ):
        distribution = framework.qos_distribution(scheme)
        row[f"{scheme.name} P(Y>=2)"] = distribution.at_least(
            QoSLevel.SEQUENTIAL_DUAL
        )
        row[f"{scheme.name} P(Y>=3)"] = distribution.at_least(
            QoSLevel.SIMULTANEOUS_DUAL
        )
    return row


def run_tau_sweep(
    *,
    taus: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
    lam: float = 5e-5,
    mu: float = 0.2,
    threshold: int = 10,
    stages: int = 24,
) -> ExperimentResult:
    """QoS measure vs deadline ``tau``."""
    headers = ["tau", "OAQ P(Y>=2)", "BAQ P(Y>=2)", "OAQ P(Y>=3)", "BAQ P(Y>=3)"]
    points = [
        {
            "label": {"tau": tau},
            "tau": tau,
            "mu": mu,
            "lam": lam,
            "threshold": threshold,
            "stages": stages,
        }
        for tau in taus
    ]
    return SweepRunner().run(
        experiment_id="tau-sweep",
        title=f"QoS measure vs deadline tau (lambda={lam:.0e}, mu={mu})",
        headers=headers,
        row_fn=_qos_point_row,
        points=points,
        notes=[
            "Paper claim: OAQ takes full advantage of the time allowance -- "
            "its curves keep rising with tau while BAQ's saturate.",
        ],
    )


def run_mu_sweep(
    *,
    mean_durations: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0),
    lam: float = 5e-5,
    tau: float = 5.0,
    threshold: int = 10,
    stages: int = 24,
) -> ExperimentResult:
    """QoS measure vs mean signal duration ``1/mu``."""
    headers = [
        "mean duration",
        "mu",
        "OAQ P(Y>=2)",
        "BAQ P(Y>=2)",
        "OAQ P(Y>=3)",
        "BAQ P(Y>=3)",
    ]
    points = [
        {
            "label": {"mean duration": mean, "mu": round(1.0 / mean, 4)},
            "tau": tau,
            "mu": 1.0 / mean,
            "lam": lam,
            "threshold": threshold,
            "stages": stages,
        }
        for mean in mean_durations
    ]
    return SweepRunner().run(
        experiment_id="mu-sweep",
        title=f"QoS measure vs mean signal duration (lambda={lam:.0e}, tau={tau})",
        headers=headers,
        row_fn=_qos_point_row,
        points=points,
        notes=[
            "Paper claim: OAQ treats a longer signal as extended opportunity "
            "(rising curves); BAQ's level-3 probability is mu-invariant.",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_tau_sweep().render())
    print()
    print(run_mu_sweep().render())


if __name__ == "__main__":  # pragma: no cover
    main()

"""Experiment ``text-4.3``: the in-text numerical anchors of
Section 4.3, checked exactly.

* ``P(Y = 3 | k = 12) = 0.44`` under OAQ vs ``0.20`` under BAQ
  (``tau = 5``, ``mu = 0.5``, ``nu = 30``);
* the OAQ level-3 gain from ``mu = 0.5`` to ``mu = 0.2`` reaches
  ~38% over the lambda domain, while BAQ shows no difference;
* the Figure 9 anchor values of ``P(Y >= 2)``.
"""

from __future__ import annotations

from repro.analytic.framework import OAQFramework
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.experiments.report import ExperimentResult

__all__ = ["run"]


def run(*, stages: int = 24) -> ExperimentResult:
    """Evaluate every in-text anchor; the ``paper`` column is the value
    printed in the paper, ``measured`` is ours."""
    rows = []

    # Anchor 1: conditional level-3 probabilities at k=12.
    params = EvaluationParams(
        deadline_minutes=5.0, signal_termination_rate=0.5, computation_rate=30.0
    )
    framework = OAQFramework(params, capacity_stages=stages)
    oaq = framework.conditional_qos(12, Scheme.OAQ)[QoSLevel.SIMULTANEOUS_DUAL]
    baq = framework.conditional_qos(12, Scheme.BAQ)[QoSLevel.SIMULTANEOUS_DUAL]
    rows.append(
        {"anchor": "P(Y=3 | k=12) OAQ (tau=5, mu=0.5)", "paper": 0.44, "measured": oaq}
    )
    rows.append(
        {"anchor": "P(Y=3 | k=12) BAQ (tau=5, mu=0.5)", "paper": 0.20, "measured": baq}
    )

    # Anchor 2: the mu-sensitivity gain of OAQ P(Y=3) (Fig. 8, eta=12).
    max_gain = 0.0
    for lam in (1e-5, 3e-5, 5e-5, 8e-5, 1e-4):
        values = {}
        for mu in (0.2, 0.5):
            p = EvaluationParams(
                deadline_minutes=5.0,
                signal_termination_rate=mu,
                node_failure_rate_per_hour=lam,
                deployment_threshold=12,
            )
            values[mu] = OAQFramework(p, capacity_stages=stages).qos_distribution(
                Scheme.OAQ
            )[QoSLevel.SIMULTANEOUS_DUAL]
        max_gain = max(max_gain, values[0.2] / values[0.5] - 1.0)
    rows.append(
        {
            "anchor": "max OAQ P(Y=3) gain, mu 0.5 -> 0.2 (eta=12)",
            "paper": 0.38,
            "measured": max_gain,
        }
    )

    # Anchor 3: Fig. 9 endpoint values of P(Y >= 2) (eta=10, mu=0.2).
    for lam, oaq_paper, baq_paper in ((1e-5, 0.75, 0.33), (1e-4, 0.41, 0.04)):
        p = EvaluationParams(
            deadline_minutes=5.0,
            signal_termination_rate=0.2,
            node_failure_rate_per_hour=lam,
            deployment_threshold=10,
        )
        fw = OAQFramework(p, capacity_stages=stages)
        rows.append(
            {
                "anchor": f"P(Y>=2) OAQ @ lambda={lam:.0e}",
                "paper": oaq_paper,
                "measured": fw.qos_measure(Scheme.OAQ, QoSLevel.SEQUENTIAL_DUAL),
            }
        )
        rows.append(
            {
                "anchor": f"P(Y>=2) BAQ @ lambda={lam:.0e}",
                "paper": baq_paper,
                "measured": fw.qos_measure(Scheme.BAQ, QoSLevel.SEQUENTIAL_DUAL),
            }
        )
    return ExperimentResult(
        experiment_id="text-4.3",
        title="In-text numerical anchors of Section 4.3",
        headers=["anchor", "paper", "measured"],
        rows=rows,
        notes=[
            "The k=12 conditionals are closed-form and match exactly; the "
            "composed anchors depend on the calibrated replacement latency.",
        ],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()

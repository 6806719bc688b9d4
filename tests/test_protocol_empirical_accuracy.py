"""End-to-end integration: the OAQ protocol driven by the *real*
estimation stack's error distributions."""

import numpy as np
import pytest

from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.protocol import EmpiricalWLSAccuracyModel
from repro.simulation.batch import ScenarioTemplate


@pytest.fixture(scope="module")
def model():
    # Built once: each construction runs the WLS pipeline ~24 times.
    return EmpiricalWLSAccuracyModel(trials=6, seed=314)


class TestEmpiricalModel:
    def test_sampled_errors_positive(self, model):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert model.single_pass_error_km(rng) > 0.0
            assert model.refined_error_km(10.0, 2, rng) > 0.0
            assert model.simultaneous_error_km(rng) > 0.0

    def test_dual_coverage_samples_better_than_single(self, model):
        rng = np.random.default_rng(1)
        singles = [model.single_pass_error_km(rng) for _ in range(40)]
        seq = [model.refined_error_km(10.0, 2, rng) for _ in range(40)]
        assert float(np.median(seq)) < float(np.median(singles))

    def test_protocol_runs_with_empirical_model(self, model):
        """Full stack: real-WLS error samples feed the protocol's TC-1
        and alert payloads."""
        params = EvaluationParams(signal_termination_rate=0.2)
        geometry = params.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, params, accuracy_model=model)
        outcome = template.replicate(
            9, onset_position=8.0, signal_duration=6.0
        ).run()
        assert outcome.achieved_level in (
            QoSLevel.SEQUENTIAL_DUAL,
            QoSLevel.SINGLE,
        )
        assert outcome.official_alert is not None
        assert outcome.official_alert.estimate.error_km > 0.0
        assert outcome.alert_latency <= params.tau + 1e-9

"""Tests for the extension experiments (aging, robustness)."""

import pytest

from repro.core.distributions import Deterministic, Exponential
from repro.experiments import aging_exp, robustness_exp


class TestAging:
    @pytest.fixture(scope="class")
    def result(self):
        return aging_exp.run(
            times_hours=(0.0, 2000.0, 8000.0), stages=10
        )

    def test_rows_are_proper_distributions(self, result):
        for row in result.rows:
            total = sum(
                row[f"P(K={k})"] for k in range(8, 15)
            )
            assert total == pytest.approx(1.0, abs=0.01)

    def test_degradation_over_time(self, result):
        p14 = [row["P(K=14)"] for row in result.rows]
        assert p14[0] == pytest.approx(1.0)
        assert p14 == sorted(p14, reverse=True)
        p10 = [row["P(K=10)"] for row in result.rows]
        assert p10 == sorted(p10)


class TestRobustness:
    @pytest.fixture(scope="class")
    def result(self):
        return robustness_exp.run()

    def test_oaq_dominates_for_every_duration_model(self, result):
        for row in result.rows:
            assert row["OAQ P(Y>=2)"] >= row["BAQ P(Y>=2)"] - 1e-12

    def test_baq_invariant_to_duration_model(self, result):
        """BAQ never waits, so the duration distribution is irrelevant
        to it (given equal means)."""
        for k in (9, 12):
            values = {
                row["BAQ P(Y>=2)"]
                for row in result.rows
                if row["k"] == k
            }
            assert max(values) - min(values) < 1e-9

    def test_deterministic_duration_helps_oaq_most(self, result):
        """A signal that always lasts its full mean feeds every
        opportunity whose wait is below it -- the best case for OAQ."""
        by_model = {
            (row["k"], row["duration model"]): row["OAQ P(Y>=2)"]
            for row in result.rows
        }
        for k in (9, 12):
            assert by_model[(k, "deterministic")] > by_model[(k, "exponential")]

    def test_duration_models_share_mean(self):
        models = robustness_exp.duration_models(5.0)
        for dist in models.values():
            assert dist.mean() == pytest.approx(5.0)

    def test_duration_models_have_documented_cv2(self):
        """The three models are distinguished by their squared
        coefficient of variation: 1 (exponential), 17/9 (the bursty
        hyperexponential -- regression: this was once misdocumented as
        2.12) and 0 (deterministic)."""
        documented = {
            "exponential": 1.0,
            "hyperexponential": robustness_exp.HYPEREXPONENTIAL_CV2,
            "deterministic": 0.0,
        }
        assert robustness_exp.HYPEREXPONENTIAL_CV2 == pytest.approx(17.0 / 9.0)
        for mean in (1.0, 5.0):
            models = robustness_exp.duration_models(mean)
            assert set(models) == set(documented)
            for label, dist in models.items():
                cv2 = _second_moment(dist) / dist.mean() ** 2 - 1.0
                assert cv2 == pytest.approx(documented[label], abs=1e-12), label


def _second_moment(dist):
    """``E[X^2]`` of a duration model, from its parameters."""
    if isinstance(dist, Deterministic):
        return dist.value**2
    if isinstance(dist, Exponential):
        return 2.0 / dist.rate**2
    return sum(2.0 * w / r**2 for r, w in zip(dist.rates, dist.weights))


class TestMultiplane:
    def test_more_planes_monotone_improvement(self):
        from repro.experiments import multiplane_exp

        result = multiplane_exp.run(lambdas=(1e-4,), stages=10)
        oaq = [row["OAQ P(Y>=2)"] for row in result.rows]
        baq = [row["BAQ P(Y>=2)"] for row in result.rows]
        assert oaq == sorted(oaq)
        assert baq == sorted(baq)
        for o, b in zip(oaq, baq):
            assert o >= b


class TestCalibration:
    def test_default_latency_in_flat_optimum(self):
        """The anchor fit is near-flat up to ~170 h; the default 168 h
        must sit inside that region, and long latencies must clearly
        degrade."""
        from repro.experiments import calibration_exp

        result = calibration_exp.run(
            latencies_hours=(24.0, 168.0, 720.0), stages=12
        )
        errors = {row["latency (h)"]: row["max |err|"] for row in result.rows}
        assert errors[168.0] < 0.05
        assert errors[168.0] < errors[720.0]
        assert abs(errors[168.0] - errors[24.0]) < 0.03

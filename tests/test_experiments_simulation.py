"""Tests for the simulation-backed experiment modules (protocol
properties, Monte-Carlo validation, geolocation accuracy, orbits
constants, SAN ablation, fault campaign) with reduced workloads."""

import pytest

from repro.experiments import (
    faults_exp,
    geolocation_exp,
    montecarlo_exp,
    orbits_exp,
    protocol_exp,
    san_ablation,
)


class TestProtocolExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return protocol_exp.run(samples=80, seed=7)

    def test_four_configurations(self, result):
        assert len(result.rows) == 4

    def test_done_propagation_delivers_all_detected(self, result):
        rows = {row["configuration"]: row for row in result.rows}
        healthy = rows["done-propagation, healthy"]
        failed = rows["done-propagation, successor fail-silent"]
        assert healthy["alerts delivered"] == healthy["detected"]
        assert healthy["timely (<= tau)"] == healthy["detected"]
        assert failed["alerts delivered"] == failed["detected"]
        assert failed["timely (<= tau)"] == failed["detected"]

    def test_successor_responsibility_loses_alerts_under_failure(self, result):
        rows = {row["configuration"]: row for row in result.rows}
        failed = rows["successor-responsibility, successor fail-silent"]
        assert failed["alerts delivered"] < failed["detected"]

    def test_successor_responsibility_healthy_delivers_but_late(self, result):
        """The quantified Section 3.2 trade-off: without backward
        messaging every detected signal still gets an alert, but the
        ones whose successor arrives after the deadline are late."""
        rows = {row["configuration"]: row for row in result.rows}
        healthy = rows["successor-responsibility, healthy"]
        assert healthy["alerts delivered"] == healthy["detected"]
        assert healthy["timely (<= tau)"] < healthy["alerts delivered"]

    def test_timely_chain_respects_bound(self, result):
        for row in result.rows:
            assert row["max timely chain"] <= row["chain bound M[k]"]


class TestMonteCarloExperiment:
    def test_conditional_validation_columns_agree(self):
        result = montecarlo_exp.run_conditional_validation(
            capacities=(9, 12), samples=20_000, protocol_samples=400, seed=3
        )
        for row in result.rows:
            assert row["rule-based MC"] == pytest.approx(
                row["closed form"], abs=0.02
            )
            assert row["protocol MC"] == pytest.approx(
                row["closed form"], abs=0.07
            )

    def test_capacity_validation_agrees(self):
        result = montecarlo_exp.run_capacity_validation(
            lam=1e-4, stages=16, horizon_hours=1.0e6, seed=9
        )
        for row in result.rows:
            assert row["independent DES"] == pytest.approx(
                row["SAN (Erlang unfold)"], abs=0.05
            )


class TestGeolocationExperiment:
    def test_dual_coverage_beats_single(self):
        result = geolocation_exp.run(trials=6, seed=21)
        by_level = {row["QoS level"]: row for row in result.rows}
        assert (
            by_level[2]["median error (km)"] < by_level[1]["median error (km)"]
        )
        assert (
            by_level[3]["median error (km)"] < by_level[1]["median error (km)"]
        )


class TestOrbitsExperiment:
    def test_constants_match(self):
        result = orbits_exp.run_constants(capacities=(14, 10))
        for row in result.rows:
            assert row["measured"] == pytest.approx(row["published"], rel=0.05)

    def test_latitude_profile_monotone_trend(self):
        result = orbits_exp.run_latitude_profile(
            latitudes_deg=(0.0, 45.0, 75.0), duration_s=5400.0, step_s=120.0
        )
        overlapped = [row["overlapped fraction"] for row in result.rows]
        covered = [row["covered fraction"] for row in result.rows]
        assert all(c == 1.0 for c in covered)
        assert overlapped[-1] > overlapped[0]


class TestSanAblation:
    def test_error_decreases_with_stages(self):
        result = san_ablation.run(
            stage_grid=(1, 4, 16), simulate=False, lam=5e-5
        )
        by_stage = {row["stages"]: row["TV vs max stages"] for row in result.rows}
        assert by_stage[1] > by_stage[16]
        assert by_stage[16] == 0.0  # 16 is the max of the grid

    def test_exponential_baseline_is_worst(self):
        result = san_ablation.run(
            stage_grid=(4, 16), simulate=False, lam=5e-5
        )
        rows = {str(row["stages"]): row["TV vs max stages"] for row in result.rows}
        assert rows["exp (no det support)"] >= rows["4"] - 1e-12

    def test_exact_des_column(self):
        """The 'TV vs exact DES' column comes from the plane DES, whose
        noise at the default horizon sits well below the exponential
        baseline's gap (measured 0.045 against 0.006)."""
        result = san_ablation.run(stage_grid=(4, 16), lam=5e-5)
        des = {str(row["stages"]): row["TV vs exact DES"] for row in result.rows}
        assert all(isinstance(value, float) for value in des.values())
        assert des["exp (no det support)"] >= 5.0 * des["16"]


class TestFaultsExperiment:
    def test_overlapping_plane_has_no_fail_all_reference(self):
        """On an overlapping plane the detector's simultaneous
        measurement survives a dead chain, so successors-fail-all has
        no closed form: the table shows '-' instead of raising."""
        result = faults_exp.run(runs=20, capacity=12, seed=1)
        analytic = {
            (row["plan"], row["scheme"]): row["analytic P(Y>=2)"]
            for row in result.rows
        }
        for scheme in ("OAQ", "BAQ"):
            assert analytic[("successors-fail-all", scheme)] == "-"
            assert isinstance(analytic[("fault-free", scheme)], float)

"""Tests for the experiment harness: every experiment regenerates its
table/figure with the paper's qualitative shape."""

import pytest

from repro.core.qos import QoSLevel
from repro.experiments import (
    fig7,
    fig8,
    fig9,
    geometry_exp,
    sweeps,
    table1,
    text_results,
)
from repro.experiments.report import ExperimentResult, format_table
from repro.experiments.san_ablation import total_variation


FAST_LAMBDAS = (1e-5, 5e-5, 1e-4)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            "demo", ["a", "b"], [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}]
        )
        assert "demo" in text
        assert "0.5000" in text

    def test_experiment_result_render_and_column(self):
        result = ExperimentResult(
            "x", "title", ["c"], [{"c": 1}, {"c": 2}], notes=["n"]
        )
        assert result.column("c") == [1, 2]
        assert "note: n" in result.render()


class TestTable1:
    def test_matches_paper_structure(self):
        result = table1.run()
        for row in result.rows:
            if row["I[k]"] == 1:
                assert row["Y=3 simultaneous dual"] == "x"
                assert row["Y=2 sequential dual"] == ""
                assert row["Y=0 missing"] == ""
            else:
                assert row["Y=3 simultaneous dual"] == ""
                assert row["Y=2 sequential dual"] == "x"
                assert row["Y=0 missing"] == "x"
            assert row["Y=1 single"] == "x"

    def test_transition_at_k11(self):
        result = table1.run()
        indicator = {row["k"]: row["I[k]"] for row in result.rows}
        assert indicator[10] == 0
        assert indicator[11] == 1


class TestGeometryExperiment:
    def test_m_bound_is_two_at_tau5(self):
        result = geometry_exp.run()
        for row in result.rows:
            if row["I[k]"] == 0 and row["L2[k]"] < 5.0:
                assert row["M[k] (tau=5.0)"] == 2


class TestTextAnchors:
    def test_all_anchors_within_tolerance(self):
        result = text_results.run(stages=16)
        for row in result.rows:
            paper = float(row["paper"])
            measured = float(row["measured"])
            assert measured == pytest.approx(paper, abs=0.04), row["anchor"]


class TestFig7:
    def test_shape(self):
        result = fig7.run(lambda_grid=FAST_LAMBDAS, stages=16)
        first, last = result.rows[0], result.rows[-1]
        # P(14) dominates at 1e-5, P(10) at 1e-4.
        assert first["P(K=14)"] == max(
            first[f"P(K={k})"] for k in range(9, 15)
        )
        assert last["P(K=10)"] == max(
            last[f"P(K={k})"] for k in range(9, 15)
        )
        assert last["P(K=9)"] < 0.2


class TestFig8:
    def test_shape(self):
        result = fig8.run(lambda_grid=FAST_LAMBDAS, stages=16)
        for row in result.rows:
            # BAQ is mu-invariant; OAQ gains when mu falls.
            assert row["BAQ (mu=0.2)"] == pytest.approx(row["BAQ (mu=0.5)"])
            assert row["OAQ (mu=0.2)"] > row["OAQ (mu=0.5)"]
            assert row["OAQ (mu=0.5)"] > row["BAQ (mu=0.5)"]


class TestFig9:
    def test_shape(self):
        result = fig9.run(lambda_grid=FAST_LAMBDAS, stages=16)
        for row in result.rows:
            # P(Y>=1) ~ 1 for both; OAQ dominates BAQ at each level.
            assert row["OAQ P(Y>=1)"] == pytest.approx(1.0, abs=0.005)
            assert row["BAQ P(Y>=1)"] == pytest.approx(1.0, abs=0.005)
            for level in (1, 2, 3):
                assert (
                    row[f"OAQ P(Y>={level})"]
                    >= row[f"BAQ P(Y>={level})"] - 1e-12
                )

    def test_paper_endpoint_anchors(self):
        result = fig9.run(lambda_grid=(1e-5, 1e-4), stages=24)
        low, high = result.rows
        assert low["OAQ P(Y>=2)"] == pytest.approx(0.75, abs=0.03)
        assert low["BAQ P(Y>=2)"] == pytest.approx(0.33, abs=0.03)
        assert high["OAQ P(Y>=2)"] == pytest.approx(0.41, abs=0.04)
        assert high["BAQ P(Y>=2)"] == pytest.approx(0.04, abs=0.02)


class TestSweeps:
    def test_tau_sweep_monotone_for_oaq(self):
        result = sweeps.run_tau_sweep(taus=(1.0, 3.0, 6.0), stages=12)
        oaq = [row["OAQ P(Y>=2)"] for row in result.rows]
        baq = [row["BAQ P(Y>=2)"] for row in result.rows]
        assert oaq == sorted(oaq)
        # BAQ saturates once the computation fits: flat across taus.
        assert max(baq) - min(baq) < 0.01

    def test_mu_sweep_monotone_for_oaq(self):
        result = sweeps.run_mu_sweep(mean_durations=(1.0, 4.0, 10.0), stages=12)
        oaq = [row["OAQ P(Y>=2)"] for row in result.rows]
        baq = [row["BAQ P(Y>=2)"] for row in result.rows]
        assert oaq == sorted(oaq)
        assert max(baq) - min(baq) < 0.01


class TestAblationHelpers:
    def test_total_variation(self):
        assert total_variation({1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}) == 0.0
        assert total_variation({1: 1.0}, {2: 1.0}) == 1.0


class TestScaledCapacity:
    def test_scaled_rows_and_shape(self):
        from repro.experiments import scaled_capacity_exp

        result = scaled_capacity_exp.run(scales=(1, 2))
        assert result.headers[:3] == ["scale", "satellites", "orbit reps"]
        assert [row["satellites"] for row in result.rows] == [14, 28]
        assert [row["orbit reps"] for row in result.rows] == [17, 33]
        for row in result.rows:
            assert 0.0 < row["P(K>=eta)"] <= 1.0
            assert row["E[K]"] <= row["satellites"]
        # Scaling preserves the per-satellite failure process, so the
        # normalised expected capacity stays put.
        normalised = [
            row["E[K]"] / row["satellites"] for row in result.rows
        ]
        assert normalised[1] == pytest.approx(normalised[0], abs=0.01)


class TestProfiledRuns:
    def test_run_experiment_dumps_pstats(self, tmp_path, monkeypatch):
        import pstats

        from repro.experiments import geometry_exp
        from repro.experiments.__main__ import run_experiment

        monkeypatch.chdir(tmp_path)
        result = run_experiment(geometry_exp.run, profile=True)
        assert isinstance(result, ExperimentResult)
        path = tmp_path / f"profile_{result.experiment_id}.pstats"
        assert path.exists()
        assert pstats.Stats(str(path)).total_calls > 0

    def test_run_experiment_without_profile_writes_nothing(self, tmp_path, monkeypatch):
        from repro.experiments import geometry_exp
        from repro.experiments.__main__ import run_experiment

        monkeypatch.chdir(tmp_path)
        run_experiment(geometry_exp.run, profile=False)
        assert list(tmp_path.iterdir()) == []

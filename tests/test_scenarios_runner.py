"""Conformance runner and scorer: per-cell checks, exception taxonomy,
scorecards and the timing-insensitive diff."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.scenarios.runner import run_case, run_corpus
from repro.scenarios.schema import CorpusMetadata, ScenarioCase
from repro.scenarios.scorer import (
    SCORECARD_VERSION,
    diff_scorecards,
    load_scorecard,
    score_run,
    scorecard_to_json,
)


def cheap_case(**overrides):
    """A fast-to-run case: small chain, modest sample count."""
    base = dict(
        case_id="cheap-0000",
        family="unit",
        active_per_plane=6,
        in_orbit_spares=1,
        deployment_threshold=4,
        fault_capacity=5,
        coverage_time_minutes=9.0,
        stages=6,
        traffic_signals_per_hour=10.0,
        observation_hours=300.0,
        mc_seed=42,
    )
    base.update(overrides)
    return ScenarioCase(**base)


class TestRunCase:
    def test_composition_cell_passes(self):
        result = run_case(cheap_case())
        assert result.status == "pass"
        assert {c.name for c in result.checks} == {
            "analytic_vs_mc",
            "alert_deadline",
        }
        assert result.exceptions == {}
        assert set(result.fallbacks) == {
            "solver_fallbacks",
            "structure_fallbacks",
        }
        assert 0.0 < result.metrics["alert_deadline_hit_rate"] <= 1.0
        assert result.metrics["samples"] == 3000

    def test_run_is_deterministic(self):
        first = run_case(cheap_case())
        second = run_case(cheap_case())
        assert first.metrics == second.metrics
        assert [c.details for c in first.checks] == [
            c.details for c in second.checks
        ]

    def test_lumped_checks(self):
        case = cheap_case(
            checks=(
                "lumped_vs_counted",
                "lumped_vs_unlumped",
            )
        )
        result = run_case(case)
        assert result.status == "pass"
        assert result.metrics["lumped_vs_counted_delta"] <= case.lumped_tolerance
        assert (
            result.metrics["lumped_vs_unlumped_delta"] <= case.lumped_tolerance
        )

    def test_fault_campaign_cell(self):
        case = cheap_case(
            checks=("fault_campaign",),
            fault_plan=FaultPlan.successors_fail_silent(0.0),
            fault_runs=40,
        )
        result = run_case(case)
        assert result.status == "pass"
        outcome = result.check("fault_campaign")
        assert outcome.details["plans"] == ["fault-free", "successors-fail-all"]
        assert "fault/fault-free/OAQ/mean_level" in result.metrics

    def test_exception_taxonomy_not_raised(self, monkeypatch):
        import repro.scenarios.runner as runner_mod

        def boom(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(runner_mod, "capacity_distribution", boom)
        result = run_case(cheap_case())
        assert result.status == "error"
        assert result.exceptions == {"ValueError": 2}
        for check in result.checks:
            assert not check.passed
            assert check.details["exception"] == "ValueError"

    def test_missing_check_lookup_raises(self):
        result = run_case(cheap_case())
        with pytest.raises(ConfigurationError, match="no check"):
            result.check("fault_campaign")


class TestRunCorpus:
    def test_progress_callback_and_throughput(self):
        cases = [cheap_case(case_id=f"cheap-{i:04d}") for i in range(2)]
        seen = []
        result = run_corpus(cases, progress=seen.append)
        assert [cell.case_id for cell in seen] == [
            "cheap-0000",
            "cheap-0001",
        ]
        assert result.cells_per_sec > 0.0
        assert result.counts() == {"pass": 2, "fail": 0, "error": 0}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            run_corpus([])


class TestScorer:
    def _scorecard(self):
        cases = [cheap_case(case_id=f"cheap-{i:04d}") for i in range(2)]
        metadata = CorpusMetadata(
            name="unit", seed=0, n_cells=2, families=(("unit", 2),)
        )
        return score_run(run_corpus(cases), metadata=metadata)

    def test_summary_counts(self):
        scorecard = self._scorecard()
        summary = scorecard["summary"]
        assert summary["cells"] == 2
        assert summary["all_passed"] is True
        assert summary["checks_evaluated"] == summary["checks_passed"] == 4
        assert summary["unexplained_fallbacks"] == 0
        assert scorecard["corpus"]["name"] == "unit"

    def test_json_round_trip(self, tmp_path):
        scorecard = self._scorecard()
        path = tmp_path / "scorecard.json"
        path.write_text(scorecard_to_json(scorecard))
        again = load_scorecard(str(path))
        assert again["scorecard_version"] == SCORECARD_VERSION
        assert again["summary"]["cells"] == 2

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "scorecard.json"
        path.write_text('{"scorecard_version": 999}')
        with pytest.raises(ConfigurationError, match="scorecard_version"):
            load_scorecard(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [("{", "not valid JSON"), ("[1]", "JSON object")],
        ids=["truncated", "list"],
    )
    def test_malformed_scorecard_rejected_naming_the_file(
        self, tmp_path, text, message
    ):
        """Regression: invalid JSON escaped as a raw ``JSONDecodeError``
        and a JSON list as ``AttributeError``."""
        path = tmp_path / "scorecard.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=message) as raised:
            load_scorecard(str(path))
        assert str(path) in str(raised.value)

    def test_diff_ignores_timing(self, tmp_path):
        scorecard = self._scorecard()
        import json

        clone = json.loads(scorecard_to_json(scorecard))
        clone["summary"]["total_seconds"] = 1e9
        clone["summary"]["cells_per_sec"] = 0.001
        clone["cells"][0]["seconds"] = 123.0
        assert diff_scorecards(scorecard, clone) == []

    def test_diff_flags_behavioural_change(self):
        scorecard = self._scorecard()
        import json

        clone = json.loads(scorecard_to_json(scorecard))
        clone["cells"][0]["status"] = "fail"
        differences = diff_scorecards(scorecard, clone)
        assert any("status" in line for line in differences)

    def test_diff_flags_missing_cell(self):
        scorecard = self._scorecard()
        import json

        clone = json.loads(scorecard_to_json(scorecard))
        del clone["cells"][0]
        differences = diff_scorecards(scorecard, clone)
        assert any("missing from candidate" in line for line in differences)

    def test_fallback_classification(self):
        result = run_corpus([cheap_case()])
        result.cells[0].fallbacks["solver_fallbacks"] = 2
        passing = score_run(result)["summary"]
        assert passing["explained_fallbacks"] == 2
        assert passing["unexplained_fallbacks"] == 0
        result.cells[0].status = "fail"
        failing = score_run(result)["summary"]
        assert failing["explained_fallbacks"] == 0
        assert failing["unexplained_fallbacks"] == 2

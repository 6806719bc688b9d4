"""Command-line entry point: section registries (and the experiment
ids EXPERIMENTS.md names), the ``--profile`` flag (pstats actually
written), the ``corpus`` subcommand dispatch and the solve-cache
registry surfaced in diagnostics."""

import pstats
import re
from pathlib import Path

import pytest

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_cache_stats,
    capacity_distribution,
)
from repro.analytic.solve_cache import CacheStats
from repro.experiments import __main__ as cli
from repro.experiments import corpus_exp
from repro.experiments.report import ExperimentResult


def tiny_experiment():
    return ExperimentResult(
        experiment_id="tiny",
        title="tiny",
        headers=["x"],
        rows=[{"x": 1}],
    )


class TestSectionRegistries:
    def test_quick_sections_are_callables(self):
        assert cli.QUICK_SECTIONS
        assert all(callable(fn) for fn in cli.QUICK_SECTIONS)

    def test_corpus_registered_in_full_set(self):
        assert corpus_exp.run in cli.FULL_SECTIONS

    def test_experiments_md_names_real_ids(self):
        """Each EXPERIMENTS.md heading's id -- the first backticked word
        of its last parenthesised group -- is an ``experiment_id``."""
        root = Path(__file__).resolve().parents[1]
        sources = "".join(
            path.read_text()
            for path in (root / "src" / "repro" / "experiments").glob("*.py")
        )
        known = set(re.findall(r'experiment_id="([^"]+)"', sources))
        named = []
        for line in (root / "EXPERIMENTS.md").read_text().splitlines():
            groups = re.findall(r"\(([^()]*)\)", line)
            ids = re.findall(r"`([^`]+)`", groups[-1]) if groups else []
            if line.startswith("#") and ids:
                named.append(ids[0])
        assert named
        assert [name for name in named if name not in known] == []


class TestProfileFlag:
    def test_run_experiment_writes_pstats(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = cli.run_experiment(tiny_experiment, profile=True)
        assert result.experiment_id == "tiny"
        path = tmp_path / "profile_tiny.pstats"
        assert path.is_file()
        # The dump must be a loadable cProfile stats file.
        stats = pstats.Stats(str(path))
        assert stats.total_calls >= 1

    def test_profile_off_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cli.run_experiment(tiny_experiment, profile=False)
        assert list(tmp_path.iterdir()) == []

    def test_main_profile_flag(self, tmp_path, monkeypatch, capsys):
        # Shrink the quick set to one cheap experiment and drive the
        # real CLI: --profile must leave profile_<id>.pstats in cwd.
        monkeypatch.setattr(cli, "QUICK_SECTIONS", [tiny_experiment])
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--profile"]) == 0
        out = capsys.readouterr().out
        assert "[tiny]" in out
        assert (tmp_path / "profile_tiny.pstats").is_file()
        stats = pstats.Stats(str(tmp_path / "profile_tiny.pstats"))
        assert stats.total_calls >= 1


class TestCorpusDispatch:
    def test_corpus_generate_and_score(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        code = cli.main(
            [
                "corpus",
                "generate",
                "--cells",
                "2",
                "--seed",
                "5",
                "--families",
                "small-exact",
                "--out",
                str(corpus_dir),
            ]
        )
        assert code == 0
        assert (corpus_dir / "metadata.json").is_file()
        assert len(list((corpus_dir / "cases").iterdir())) == 2
        out = capsys.readouterr().out
        assert "small-exact x2" in out

    def test_corpus_diff_identical(self, tmp_path):
        from repro.scenarios import (
            generate_corpus,
            run_corpus,
            score_run,
            scorecard_to_json,
        )

        metadata, cases = generate_corpus(
            1, seed=5, families=["small-exact"]
        )
        scorecard = score_run(run_corpus(cases), metadata=metadata)
        path = tmp_path / "scorecard.json"
        path.write_text(scorecard_to_json(scorecard))
        assert (
            cli.main(
                [
                    "corpus",
                    "diff",
                    "--scorecard",
                    str(path),
                    "--golden",
                    str(path),
                ]
            )
            == 0
        )

    def test_corpus_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["corpus"])


class TestCacheRegistryDiagnostics:
    def test_capacity_caches_registered(self):
        # Touch the capacity pipeline so its module-level caches have
        # observed lookups, then check the view experiment metadata
        # is built from.
        capacity_distribution(CapacityModelConfig())
        stats = capacity_cache_stats()
        assert list(stats) == ["distribution", "unfold", "assemble"]
        for cache in stats.values():
            assert isinstance(cache, CacheStats)
            assert 0.0 <= cache.hit_rate <= 1.0
        # The distribution cache definitely observed this lookup (the
        # deeper caches are only consulted on a distribution miss).
        assert stats["distribution"].lookups >= 1

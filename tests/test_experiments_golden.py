"""Golden regression tests: the engine refactor must be provably
behavior-preserving.

``tests/golden/experiments_golden.json`` holds the full-precision rows
produced by the seed's per-point re-solve implementation of
``run_tau_sweep`` / ``run_mu_sweep`` / fig7-fig9 (captured before the
engine refactor).  Every numeric cell is pinned to 1e-9 here.
"""

import json
import pathlib

import pytest

from repro.experiments import fig7, fig8, fig9, sweeps

_HERE = pathlib.Path(__file__).parent
_GOLDEN_PATH = _HERE / "golden" / "experiments_golden.json"

_RUNNERS = {
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "tau-sweep": sweeps.run_tau_sweep,
    "mu-sweep": sweeps.run_mu_sweep,
}


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def results():
    """Each experiment regenerated once (module scope: the five tables
    share most of their capacity solves through the memo cache)."""
    return {name: run() for name, run in _RUNNERS.items()}


@pytest.mark.parametrize("name", sorted(_RUNNERS))
def test_experiment_matches_golden_to_1e9(name, golden, results):
    expected = golden[name]
    result = results[name]
    assert result.headers == expected["headers"]
    assert len(result.rows) == len(expected["rows"])
    for index, (row, expected_row) in enumerate(
        zip(result.rows, expected["rows"])
    ):
        for header in expected["headers"]:
            value, pinned = row[header], expected_row[header]
            where = f"{name} row {index} column {header!r}"
            if isinstance(pinned, float):
                assert value == pytest.approx(pinned, abs=1e-9), where
            else:
                assert value == pinned, where


def test_golden_file_covers_all_engine_experiments(golden):
    assert sorted(golden) == sorted(_RUNNERS)
    for name, table in golden.items():
        assert table["rows"], name
        # Golden rows carry real float payloads, not rendered strings.
        numeric = [
            value
            for row in table["rows"]
            for value in row.values()
            if isinstance(value, float)
        ]
        assert numeric, name

"""Machine-readable scorecards for corpus runs.

:func:`score_run` turns a :class:`~repro.scenarios.runner
.CorpusRunResult` into a JSON-serialisable **scorecard**: a per-cell
record (status, declared checks with their outcomes and details,
metrics, fallback and exception taxonomies) plus a corpus-level
summary (pass/fail/error counts, check totals, unexplained-fallback
count, throughput).  Scorecards are what gets checked in as the golden
reference (``tests/golden/corpus/scorecard.json``) and what the
``diff`` subcommand compares against.

Timing fields (``seconds``, ``total_seconds``, ``cells_per_sec``) are
recorded but *never* compared by :func:`diff_scorecards` -- they vary
run to run; everything else in a scorecard is deterministic for a
fixed corpus, so a non-empty diff means behaviour actually changed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.campaign.planner import json_safe
from repro.errors import ConfigurationError
from repro.scenarios.runner import CorpusRunResult
from repro.scenarios.schema import CorpusMetadata, dumps_canonical, load_json_file

__all__ = [
    "SCORECARD_VERSION",
    "score_run",
    "scorecard_to_json",
    "load_scorecard",
    "diff_scorecards",
]

#: Version of the scorecard layout (independent of the case schema).
SCORECARD_VERSION = 1

#: Keys excluded from scorecard diffs: run-to-run timing noise.
_TIMING_KEYS = frozenset({"seconds", "total_seconds", "cells_per_sec"})

#: Absolute tolerance for numeric comparisons in diffs.  Solver floats
#: can wiggle at the last bits across BLAS builds; MC counts and check
#: booleans are exact, so this only pads probability metrics.
_DIFF_TOLERANCE = 1e-9


def score_run(
    result: CorpusRunResult, *, metadata: Optional[CorpusMetadata] = None
) -> Dict[str, object]:
    """Build the scorecard dictionary for one corpus run."""
    cells: List[Dict[str, object]] = []
    checks_evaluated = 0
    checks_passed = 0
    explained_fallbacks = 0
    unexplained_fallbacks = 0
    families: Dict[str, Dict[str, int]] = {}
    for cell in result.cells:
        checks_evaluated += len(cell.checks)
        checks_passed += sum(1 for check in cell.checks if check.passed)
        # An iterative -> direct solver fallback is the capacity
        # solver's designed degradation path (the direct solve is
        # exact); on a cell whose checks all passed it is *explained*.
        # Structure fallbacks should never fire for capacity configs,
        # and any fallback on a failing/erroring cell needs a human.
        solver_fb = cell.fallbacks.get("solver_fallbacks", 0)
        structure_fb = cell.fallbacks.get("structure_fallbacks", 0)
        if cell.status == "pass":
            explained_fallbacks += solver_fb
            unexplained_fallbacks += structure_fb
        else:
            unexplained_fallbacks += solver_fb + structure_fb
        family = families.setdefault(
            cell.family, {"cells": 0, "pass": 0, "fail": 0, "error": 0}
        )
        family["cells"] += 1
        family[cell.status] += 1
        cells.append(
            {
                "case_id": cell.case_id,
                "family": cell.family,
                "status": cell.status,
                "checks": [
                    {
                        "name": check.name,
                        "passed": check.passed,
                        "details": json_safe(check.details),
                    }
                    for check in cell.checks
                ],
                "metrics": json_safe(cell.metrics),
                "fallbacks": dict(cell.fallbacks),
                "exceptions": dict(cell.exceptions),
                "seconds": cell.seconds,
            }
        )
    counts = result.counts()
    summary: Dict[str, object] = {
        "cells": len(result.cells),
        "pass": counts["pass"],
        "fail": counts["fail"],
        "error": counts["error"],
        "all_passed": counts["pass"] == len(result.cells),
        "checks_evaluated": checks_evaluated,
        "checks_passed": checks_passed,
        "explained_fallbacks": explained_fallbacks,
        "unexplained_fallbacks": unexplained_fallbacks,
        "families": families,
        "total_seconds": result.seconds,
        "cells_per_sec": result.cells_per_sec,
    }
    scorecard: Dict[str, object] = {
        "scorecard_version": SCORECARD_VERSION,
        "summary": summary,
        "cells": cells,
    }
    if metadata is not None:
        scorecard["corpus"] = metadata.to_dict()
    return scorecard


def scorecard_to_json(scorecard: Mapping[str, object]) -> str:
    """Canonical JSON text of a scorecard."""
    return dumps_canonical(json_safe(scorecard))


def _scorecard_from_dict(data: object) -> Dict[str, object]:
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"a scorecard must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("scorecard_version")
    if version != SCORECARD_VERSION:
        raise ConfigurationError(
            f"unsupported scorecard_version {version!r}; this build reads "
            f"version {SCORECARD_VERSION}"
        )
    return data


def load_scorecard(path: str) -> Dict[str, object]:
    """Read a scorecard JSON file; invalid JSON, a non-object and a
    wrong version raise a :class:`ConfigurationError` naming the file."""
    return load_json_file(path, _scorecard_from_dict)


def _close(old: object, new: object) -> bool:
    if isinstance(old, bool) or isinstance(new, bool):
        return old is new or old == new
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        return abs(float(old) - float(new)) <= _DIFF_TOLERANCE
    return old == new


def _diff_value(path: str, old: object, new: object, out: List[str]) -> None:
    if isinstance(old, Mapping) and isinstance(new, Mapping):
        for key in sorted(set(old) | set(new)):
            if key in _TIMING_KEYS:
                continue
            if key not in old:
                out.append(f"{path}.{key}: added")
            elif key not in new:
                out.append(f"{path}.{key}: removed")
            else:
                _diff_value(f"{path}.{key}", old[key], new[key], out)
        return
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"{path}: length {len(old)} -> {len(new)}")
            return
        for index, (old_item, new_item) in enumerate(zip(old, new)):
            _diff_value(f"{path}[{index}]", old_item, new_item, out)
        return
    if not _close(old, new):
        out.append(f"{path}: {old!r} -> {new!r}")


def diff_scorecards(
    golden: Mapping[str, object], candidate: Mapping[str, object]
) -> List[str]:
    """Human-readable list of behavioural differences between two
    scorecards (empty means conformant).  Cells are matched by
    ``case_id``; timing fields are ignored; numeric values compare at
    ``1e-9`` absolute tolerance."""
    differences: List[str] = []

    def by_id(scorecard: Mapping[str, object]) -> Dict[str, Mapping[str, object]]:
        return {cell["case_id"]: cell for cell in scorecard.get("cells", [])}

    old_cells, new_cells = by_id(golden), by_id(candidate)
    for case_id in sorted(set(old_cells) | set(new_cells)):
        if case_id not in new_cells:
            differences.append(f"cell {case_id}: missing from candidate")
        elif case_id not in old_cells:
            differences.append(f"cell {case_id}: not in golden")
        else:
            _diff_value(
                f"cell {case_id}", old_cells[case_id], new_cells[case_id],
                differences,
            )
    _diff_value(
        "summary",
        golden.get("summary", {}),
        candidate.get("summary", {}),
        differences,
    )
    return differences

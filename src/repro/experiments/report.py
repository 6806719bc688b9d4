"""Plain-text report rendering for experiment results.

Every experiment module returns an :class:`ExperimentResult` -- a
titled table of rows -- so benchmarks, tests and the command-line
entry points share one representation and EXPERIMENTS.md can quote the
exact program output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["ExperimentResult", "format_table", "json_safe"]


def _json_key(key: object) -> str:
    """Deterministic string form of a mapping key (JSON object keys
    must be strings; numpy scalars stringify via their python value)."""
    if isinstance(key, str):
        return key
    coerced = json_safe(key)
    if isinstance(coerced, str):
        return coerced
    return str(coerced)


def json_safe(value: object) -> object:
    """Recursively coerce ``value`` into plain JSON-serialisable data.

    Experiment rows and metadata routinely hold numpy scalars
    (``np.float64`` / ``np.int64`` from vectorised sweeps), arrays and
    non-finite floats, which ``json.dumps`` either rejects or encodes
    as the non-standard ``NaN`` / ``Infinity`` literals depending on
    flags.  The coercion here is deterministic and strict-JSON clean:

    * numpy scalars become their python equivalents (``.item()``);
    * numpy arrays become (nested) lists;
    * ``nan`` / ``inf`` / ``-inf`` become the strings ``"NaN"`` /
      ``"Infinity"`` / ``"-Infinity"`` (so ``json.dumps(...,
      allow_nan=False)`` always succeeds and output is byte-stable);
    * mappings get string keys, tuples/sets become sorted-or-ordered
      lists, everything else unknown falls back to ``str``.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, np.ndarray):
        return [json_safe(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {_json_key(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json_safe(item) for item in value)
    if hasattr(value, "to_dict"):
        return json_safe(value.to_dict())
    return str(value)


@dataclass
class ExperimentResult:
    """A titled table: ``headers`` name the columns, each row maps
    header -> value.

    ``timings`` holds per-stage wall-clock seconds recorded by the
    experiment engine (e.g. ``capacity_presolve``, ``rows``, ``total``)
    so benchmarks can assert where the time went; it is empty for
    experiments that do not time themselves.

    ``metadata`` carries auxiliary diagnostics that are not part of the
    rendered table -- the engine stores the run's own solve-cache
    counts under ``"cache_stats"`` (name -> :class:`CacheStats`-shaped
    dict) so runs can report how much memoization saved.
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[Dict[str, object]]
    notes: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def column(self, header: str) -> List[object]:
        """All values of one column, in row order."""
        return [row[header] for row in self.rows]

    def render(self) -> str:
        """The table as aligned plain text."""
        return format_table(
            f"[{self.experiment_id}] {self.title}",
            self.headers,
            self.rows,
            notes=self.notes,
        )


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Dict[str, object]],
    *,
    notes: Sequence[str] = (),
) -> str:
    """Render rows as an aligned text table."""
    cells = [[_format_value(row.get(h, "")) for h in headers] for row in rows]
    widths = [
        max(len(h), *(len(line[i]) for line in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(line, widths)))
    for note in notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)

"""Plain-text report rendering for experiment results.

Every experiment module returns an :class:`ExperimentResult` -- a
titled table of rows -- so benchmarks, tests and the command-line
entry points share one representation and EXPERIMENTS.md can quote the
exact program output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["ExperimentResult", "format_table"]


@dataclass
class ExperimentResult:
    """A titled table: ``headers`` name the columns, each row maps
    header -> value.

    ``timings`` holds per-stage wall-clock seconds recorded by the
    experiment engine (e.g. ``rows``, ``total``, ``solve``)
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

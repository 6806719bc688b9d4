"""Pareto frontier, policy recommendation, fallback classification.

The optimizer's output contract (``docs/OPTIMIZE.md``):

* the experiment rows are the **Pareto-efficient** cells of the grid
  under (cost min, availability max, alert QoS max);
* ``metadata["recommendation"]`` is the cheapest cell meeting the
  availability and QoS targets (or the least-bad cell, flagged, when
  no cell meets them);
* ``metadata["fallback_scorecard"]`` classifies every cell that fell
  off the lumped quotient path.  A *solver* fallback (iterative
  steady-state solve degraded to the direct factorisation) is an
  **explained** numerical contingency; a *structure* fallback (the
  quotient construction itself raised ``ModelError`` and the cell was
  silently re-solved on the unlumped chain) is a **bug** by contract
  -- the design grid is built entirely from exactly-lumpable
  symmetric-plane topologies, so the scorecard gates the experiment:
  ``unexplained`` must be empty.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["classify_fallbacks", "pareto_frontier", "recommend_policy"]

#: Default acceptance targets for :func:`recommend_policy` -- the
#: paper-level service floor: the plane holds >= k_min with four nines,
#: and a surge of interest receives dual-coverage alert QoS at least
#: half the time.
DEFAULT_AVAILABILITY_TARGET = 0.9999
DEFAULT_QOS_TARGET = 0.5

#: Objective senses over the row dicts produced by
#: :func:`repro.optimize.evaluate.evaluate_cell`, as ``(key, sign)``
#: with ``sign * value`` larger for a better cell.
_OBJECTIVES = (("cost", -1.0), ("availability", 1.0), ("qos_alert", 1.0))

#: Objectives closer than this are ties (the goldens' tolerance): cells
#: whose objectives are mathematically identical, such as no repair and
#: zero repair, differ only in their last bits and must not dominate
#: one another by rounding.
_TIE_TOLERANCE = 1e-9


def _dominates(a: Mapping[str, object], b: Mapping[str, object]) -> bool:
    """True iff ``a`` is at least as good as ``b`` on every objective
    and better by more than ``_TIE_TOLERANCE`` on at least one."""
    strict = False
    for key, sign in _OBJECTIVES:
        gain = sign * (a[key] - b[key])
        if gain < -_TIE_TOLERANCE:
            return False
        if gain > _TIE_TOLERANCE:
            strict = True
    return strict


def _tie_order(
    rows: Sequence[Mapping[str, object]],
    objectives: Sequence[Tuple[str, float]],
) -> List[Mapping[str, object]]:
    """``rows`` best first on each ``(key, sign)`` of ``objectives`` in
    turn.  Values within ``_TIE_TOLERANCE`` of the best value left count
    as ties, and rows tied on every objective keep their order in
    ``rows`` (grid order), so last-bit noise cannot reorder them."""
    if len(rows) < 2 or not objectives:
        return list(rows)
    (key, sign), rest = objectives[0], objectives[1:]
    order = sorted(range(len(rows)), key=lambda i: -sign * rows[i][key])
    ordered: List[Mapping[str, object]] = []
    start = 0
    while start < len(order):
        best = sign * rows[order[start]][key]
        stop = start + 1
        while (
            stop < len(order)
            and sign * rows[order[stop]][key] >= best - _TIE_TOLERANCE
        ):
            stop += 1
        tied = [rows[i] for i in sorted(order[start:stop])]
        ordered.extend(_tie_order(tied, rest))
        start = stop
    return ordered


def pareto_frontier(
    rows: Sequence[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """The non-dominated subset of ``rows`` under (cost min,
    availability max, qos_alert max), in ascending-cost order (then
    descending availability, then descending QoS, then grid order;
    values within ``_TIE_TOLERANCE`` are ties).

    Plain O(n^2) skyline -- the grids are thousands of cells, not
    millions, and the dominance check is three float comparisons.
    Ties (cells within ``_TIE_TOLERANCE`` on all three objectives) are
    all kept, so equivalent policies remain visible side by side.
    """
    rows = list(rows)
    frontier = [
        candidate
        for candidate in rows
        if not any(
            _dominates(other, candidate)
            for other in rows
            if other is not candidate
        )
    ]
    return [dict(row) for row in _tie_order(frontier, _OBJECTIVES)]


def recommend_policy(
    rows: Sequence[Mapping[str, object]],
    *,
    availability_target: float = DEFAULT_AVAILABILITY_TARGET,
    qos_target: float = DEFAULT_QOS_TARGET,
) -> Dict[str, object]:
    """The cheapest cell meeting both targets, as a recommendation dict.

    Returns ``{"constraints_met": True, "cell": row}`` with the
    minimum-cost feasible cell (ties broken by higher availability,
    then higher QoS, then grid order; values within ``_TIE_TOLERANCE``
    are ties).  When no cell is feasible the closest cell by
    lexicographic (availability, qos_alert, -cost) is returned with
    ``"constraints_met": False`` so callers cannot mistake a best-effort
    answer for a satisfied one.
    """
    rows = list(rows)
    if not rows:
        return {
            "constraints_met": False,
            "cell": None,
            "availability_target": availability_target,
            "qos_target": qos_target,
        }
    feasible = [
        row
        for row in rows
        if row["availability"] >= availability_target
        and row["qos_alert"] >= qos_target
    ]
    if feasible:
        best = _tie_order(feasible, _OBJECTIVES)[0]
        met = True
    else:
        best = _tie_order(rows, _OBJECTIVES[1:] + _OBJECTIVES[:1])[0]
        met = False
    return {
        "constraints_met": met,
        "cell": dict(best),
        "availability_target": availability_target,
        "qos_target": qos_target,
    }


def classify_fallbacks(
    rows: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """Classify per-cell fallback deltas into a scorecard.

    Solver fallbacks (``solver_fallbacks > 0``) are *explained*: the
    quotient chain was built and solved, only the linear-algebra method
    degraded, and the result is still used.  Structure fallbacks
    (``structure_fallbacks > 0``) are *unexplained by contract*: every
    grid topology is an exactly-lumpable symmetric plane, so any cell
    that fell back to the unlumped chain exposes a lumping bug.
    The experiment (and its golden test) assert
    ``scorecard["unexplained"] == []``.
    """
    explained: List[Dict[str, object]] = []
    unexplained: List[Dict[str, object]] = []
    for index, row in enumerate(rows):
        structure = int(row.get("structure_fallbacks", 0))
        solver = int(row.get("solver_fallbacks", 0))
        if structure:
            unexplained.append(
                {
                    "cell": index,
                    "reason": "structure_fallback",
                    "count": structure,
                }
            )
        if solver:
            explained.append(
                {
                    "cell": index,
                    "reason": "solver_fallback",
                    "count": solver,
                }
            )
    return {
        "cells": len(rows),
        "clean": len(rows)
        - len({entry["cell"] for entry in explained + unexplained}),
        "explained": explained,
        "unexplained": unexplained,
    }

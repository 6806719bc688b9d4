"""Affinity-keyed chunk planning and grid fingerprints.

A *chunk* is the scheduling unit of a campaign: a tuple of grid points
that execute consecutively, in grid order, on one worker.  The planner
groups points by an **affinity key** -- a caller-supplied function of
the point whose equal values mark cells that profit from sharing
process-local solver state (an assembled SAN topology, a warm-start
vector, a scenario template).  Grouping is by key equality over the
whole grid (first-occurrence order), not by adjacency, so a grid whose
topology groups are interleaved still lands each group in one chunk.
The plan is a function of the grid and its affinity only -- never of
the worker count -- so a grid without an affinity is one chunk, and the
same grid merges to the same rows at any ``n_jobs``.

Chunk identity is deterministic: the same points and affinity function
always produce the same chunk ids, affinities and index sets, and
:func:`grid_fingerprint` digests that plan (plus a canonical JSON form
of every point) into the fingerprint the checkpoint journal uses to
refuse resuming against a different grid.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Chunk", "grid_fingerprint", "json_safe", "plan_chunks"]

#: Version stamped into fingerprints; bump on incompatible plan changes.
PLAN_VERSION = 2


@dataclass(frozen=True)
class Chunk:
    """One scheduling unit: ``points[i]`` came from grid position
    ``indices[i]``; the merge step writes its rows back to exactly
    those positions, so any execution order reproduces the grid order.
    """

    chunk_id: int
    affinity: str
    indices: Tuple[int, ...]
    points: Tuple[object, ...]


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

    Grid points, experiment rows and metadata routinely hold numpy scalars
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


def _affinity_label(key: object) -> str:
    """Stable display/journal form of an affinity key."""
    safe = json_safe(key)
    if isinstance(safe, str):
        return safe
    return json.dumps(safe, sort_keys=True, separators=(",", ":"))


def plan_chunks(
    points: Sequence[object],
    *,
    affinity: Optional[Callable[[object], object]] = None,
) -> List[Chunk]:
    """Group ``points`` into deterministic affinity chunks.

    Points sharing an ``affinity`` key form one chunk, chunks ordered by
    first occurrence and each preserving grid order internally.  Without
    ``affinity`` the whole grid is one chunk.
    """
    points = list(points)
    groups: Dict[str, List[int]] = {}
    for index, point in enumerate(points):
        label = "grid" if affinity is None else _affinity_label(affinity(point))
        groups.setdefault(label, []).append(index)
    return [
        Chunk(
            chunk_id=chunk_id,
            affinity=label,
            indices=tuple(indices),
            points=tuple(points[i] for i in indices),
        )
        for chunk_id, (label, indices) in enumerate(groups.items())
    ]


def grid_fingerprint(points: Sequence[object], chunks: Sequence[Chunk]) -> str:
    """SHA-256 digest of the campaign's work definition.

    Covers a canonical JSON form of every grid point (via
    :func:`json_safe`, so frozen dataclasses
    fingerprint through their deterministic ``repr``) plus the chunk
    plan (affinity labels and index sets).  The journal refuses to
    resume when the fingerprint of the requested grid differs from the
    recorded one -- resuming a checkpoint against different work would
    silently merge unrelated results.
    """
    payload = {
        "version": PLAN_VERSION,
        "points": [json_safe(point) for point in points],
        "chunks": [
            {
                "chunk": chunk.chunk_id,
                "affinity": chunk.affinity,
                "indices": list(chunk.indices),
            }
            for chunk in chunks
        ],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

"""One process-local registry of named timers and counters.

Every layer records where its time went and which path it took here:
the SAN capacity stages and solve-method counters, the capacity caches'
hits/misses/evictions, the Monte-Carlo replication stages and the
vector engine's fallback counters, the campaign's per-chunk execution
time.  Names are dotted by layer (``san.rerate_s``,
``san.solver.structure_fallbacks``, ``capacity.cache.assemble.misses``,
``mc.replicate_s``, ``mc.vector.fallbacks``); timer names end in
``_s`` and hold seconds, every other name counts events.  The full
table -- name, unit, layer and the public view exposing it -- is in
``docs/OBSERVABILITY.md``.

Values are plain ``{name: number}`` dicts, so a pool worker ships one
home as-is:

* :func:`snapshot` copies the registry;
* :func:`delta` is what moved between two snapshots (default: since one
  snapshot, until now);
* :func:`merge` sums deltas -- the parent's own delta plus each pool
  worker's per-chunk delta gives the run's total, whatever the worker
  count.

The layers' public stats functions (``capacity_stage_timings()``,
``vector_batch_stats()``, ...) are :func:`view` projections of the
registry through the name maps below; a new counter needs no new
snapshot/delta/merge code anywhere.

The hot path is one lock and one dict update per :func:`count`;
per-replication code samples ``time.perf_counter`` itself and counts
the elapsed seconds, so no string is built there.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Mapping, Optional

__all__ = [
    "CAPACITY_CACHES",
    "MC_STAGES",
    "MC_VECTOR",
    "SAN_SOLVER",
    "SAN_STAGES",
    "count",
    "delta",
    "merge",
    "reset",
    "snapshot",
    "timer",
    "view",
]

#: ``{name: value}``: a snapshot, a delta or a merge of deltas.
Values = Dict[str, float]

_LOCK = threading.Lock()
_VALUES: Values = {}

#: Public-view keys -> registry names, one map per stats function.
SAN_STAGES = {
    stage: f"san.{stage}_s"
    for stage in ("assemble", "refine", "quotient", "rerate", "solve")
}
SAN_SOLVER = {
    counter: f"san.solver.{counter}"
    for counter in (
        "direct",
        "iterative",
        "warm_started",
        "gmres_iterations",
        "solver_fallbacks",
        "structure_fallbacks",
    )
}
MC_STAGES = {
    "template": "mc.template_s",
    "replicate": "mc.replicate_s",
    "run": "mc.run_s",
    "vector": "mc.vector_s",
    "vector_fallback": "mc.vector.fallback_s",
}
MC_VECTOR = {
    counter: f"mc.vector.{counter}"
    for counter in ("calls", "replications", "fallbacks")
}
#: ``capacity_cache_stats()`` keys -> that cache's counter map (an
#: ``LRUSolveCache`` named ``capacity.cache.<key>`` counts into them).
CAPACITY_CACHES = {
    cache: {
        counter: f"capacity.cache.{cache}.{counter}"
        for counter in ("hits", "misses", "evictions")
    }
    for cache in ("distribution", "unfold", "assemble")
}


def count(name: str, n: float = 1) -> None:
    """Add ``n`` to ``name`` (seconds for a ``_s`` timer)."""
    with _LOCK:
        _VALUES[name] = _VALUES.get(name, 0) + n


class timer:
    """``with timer("san.solve_s"):`` counts the block's wall-clock
    seconds into the named timer, also when the block raises."""

    __slots__ = ("name", "_start")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> "timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        count(self.name, time.perf_counter() - self._start)


def snapshot() -> Values:
    """A consistent copy of every timer and counter in this process."""
    with _LOCK:
        return dict(_VALUES)


def delta(
    since: Mapping[str, float], until: Optional[Mapping[str, float]] = None
) -> Values:
    """``until - since`` name by name; ``until`` defaults to now.
    Names that did not move are left out."""
    if until is None:
        until = snapshot()
    moved: Values = {}
    for name, value in until.items():
        difference = value - since.get(name, 0)
        if difference:
            moved[name] = difference
    return moved


def merge(*deltas: Mapping[str, float]) -> Values:
    """The name-by-name sum of ``deltas``."""
    total: Values = {}
    for values in deltas:
        for name, value in values.items():
            total[name] = total.get(name, 0) + value
    return total


def reset(*prefixes: str) -> None:
    """Drop every name starting with one of ``prefixes`` (benchmark
    hygiene; no prefix drops everything)."""
    prefixes = prefixes or ("",)
    with _LOCK:
        for name in [n for n in _VALUES if n.startswith(prefixes)]:
            del _VALUES[name]


def view(
    names: Mapping[str, str], values: Optional[Mapping[str, float]] = None
) -> Values:
    """Project ``values`` (default: the live registry) through a
    ``{key: name}`` map; a name never counted reads ``0.0`` for a timer
    and ``0`` for a counter."""
    if values is None:
        values = snapshot()
    return {
        key: values.get(name, 0.0 if name.endswith("_s") else 0)
        for key, name in names.items()
    }

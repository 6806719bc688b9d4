"""Memoized experiment evaluation engine on the campaign orchestrator.

Every sweep/figure experiment is a grid of independent points, and the
expensive part of each point -- the SAN capacity solve -- depends only
on ``(CapacityModelConfig, stages)``.  :class:`SweepRunner` exploits
both facts:

* **Shared solves** come from the memoized
  :func:`~repro.analytic.capacity.capacity_distribution`: a grid
  without ``affinity`` is one chunk, so its first point solves and
  every later point sharing that ``(CapacityModelConfig, stages)``
  reads the cached answer -- a ``tau``/``mu`` sweep performs exactly
  one capacity solve for its whole grid (asserted by the engine tests
  via the cache counters).
* **One execution path**: every grid, at every ``n_jobs``, runs through
  the affinity-sharded campaign orchestrator
  (:class:`repro.campaign.CampaignRunner`).  Points are grouped into
  chunks by an optional ``affinity`` key (no key: the whole grid is one
  chunk); each chunk executes consecutively, in grid order, seeded with
  the parent's solved-distribution cache and state-isolated at its
  boundaries.  ``n_jobs=1`` (the default) runs the chunks inline,
  ``n_jobs > 1`` fans them out over a process pool, and ``n_jobs=-1``
  uses one worker per CPU.  Points sharing a rate-swept topology
  assemble it once, at the first point, and re-rate it with
  warm-started solves after that.
* **Determinism**: rows come back in grid order, the chunk plan is a
  function of the grid and its affinity only, and chunk-level state
  isolation makes every row a pure function of its chunk, so runs at
  any ``n_jobs`` produce identical
  :class:`~repro.experiments.report.ExperimentResult` tables --
  including across checkpoint/resume (pass ``journal=``) and a
  worker-loss pool rebuild.  See ``docs/CAMPAIGN.md``.

Per-stage wall-clock timings (``rows``, ``total``, plus the run's
:mod:`repro.obs` delta of the capacity pipeline's
``assemble``/``refine``/``quotient``/``rerate``/``solve`` timers) are
recorded into ``ExperimentResult.timings`` so the benchmarks can
attribute speedups; the same run-level delta gives
``ExperimentResult.metadata["cache_stats"]`` and
``metadata["solver_stats"]`` (``structure_fallbacks``,
``solver_fallbacks``, solve-method counts).  See
``docs/SAN_ENGINE.md`` for the user guide and
``docs/OBSERVABILITY.md`` for the names.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro import obs
from repro.analytic.capacity import capacity_cache_stats
from repro.campaign import CampaignResult, CampaignRunner
from repro.experiments.report import ExperimentResult

__all__ = ["SweepRunner"]

#: A sweep point is a plain mapping of parameter name -> value; it must
#: be picklable for the process-pool path.
Point = Mapping[str, object]
RowFn = Callable[[Point], Dict[str, object]]


@contextmanager
def _stage(timings: Dict[str, float], name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


class SweepRunner:
    """Evaluate experiment grids with shared solves, through the
    campaign orchestrator.

    Parameters
    ----------
    n_jobs:
        ``1`` runs the grid's chunks inline, in this process; ``> 1``
        fans them out over up to that many worker processes; ``-1``
        means one worker per available CPU.  Validated by
        :class:`~repro.campaign.CampaignRunner`.
    journal:
        Optional path of a chunk-granular JSONL checkpoint journal
        (see :mod:`repro.campaign`); an existing journal must
        fingerprint-match the grid, and its completed chunks are
        replayed instead of re-executed.
    """

    def __init__(self, n_jobs: int = 1, *, journal: Optional[str] = None):
        self.orchestrator = CampaignRunner(n_jobs, journal=journal)
        self.n_jobs = self.orchestrator.n_jobs
        #: The :class:`repro.campaign.CampaignResult` of the last
        #: :meth:`map_rows` call.
        self.last_campaign: Optional[CampaignResult] = None

    # ------------------------------------------------------------------
    # Grid evaluation
    # ------------------------------------------------------------------
    def map_rows(
        self,
        row_fn: RowFn,
        points: Sequence[Point],
        *,
        affinity: Optional[Callable[[Point], object]] = None,
    ) -> List[Dict[str, object]]:
        """``[row_fn(p) for p in points]`` as one campaign, rows in grid
        order at any ``n_jobs``.  Rows come back decoded from their
        canonical JSON (see :mod:`repro.campaign.journal`), so
        ``row_fn`` must return plain JSON data.

        ``affinity`` maps a point to a hashable key; points sharing a
        key form one chunk and execute consecutively on one worker (in
        grid order), so cells sharing a SAN topology take the
        assemble-cache / warm-start / re-rate fast path instead of
        rebuilding per point.  Without it the grid is one chunk.
        """
        campaign = self.orchestrator.run(row_fn, points, affinity=affinity)
        self.last_campaign = campaign
        return campaign.rows

    def run(
        self,
        *,
        experiment_id: str,
        title: str,
        headers: Sequence[str],
        row_fn: RowFn,
        points: Sequence[Point],
        notes: Sequence[str] = (),
        affinity: Optional[Callable[[Point], object]] = None,
    ) -> ExperimentResult:
        """Evaluate the grid and package the rows -- with stage
        timings -- as an :class:`ExperimentResult`.
        ``affinity`` is forwarded to :meth:`map_rows`.

        Everything else is one :mod:`repro.obs` delta of the run: this
        process's delta merged with the delta each pool-worker chunk
        shipped home, so totals hold at any ``n_jobs``.  It is viewed
        as the ``assemble``/``refine``/``quotient``/``rerate``/``solve``
        timings (see
        :func:`repro.analytic.capacity.capacity_stage_timings`), the
        ``batch_template``/``batch_replicate``/``batch_run``/
        ``batch_vector``/``batch_vector_fallback`` timings (see
        :func:`repro.simulation.batch.batch_stage_timings`), and
        ``metadata["solver_stats"]``, ``metadata["vector_stats"]``
        (with the divergence-mask ``fallback_fraction``) and
        ``metadata["cache_stats"]`` (per capacity cache: the run's
        hits/misses/evictions, the current size/maxsize).  The
        orchestrator's scheduling statistics (chunks, submissions,
        executed, resumed, workers, pool restarts) and the grid
        fingerprint are in ``metadata["campaign"]``.
        ``docs/OBSERVABILITY.md`` lists every name.
        """
        timings: Dict[str, float] = {}
        since = obs.snapshot()
        with _stage(timings, "total"):
            with _stage(timings, "rows"):
                rows = self.map_rows(row_fn, points, affinity=affinity)
        campaign = self.last_campaign
        moved = obs.merge(
            obs.delta(since),
            *(outcome.delta for outcome in campaign.chunks if outcome.in_worker),
        )
        timings.update(obs.view(obs.SAN_STAGES, moved))
        for stage, seconds in obs.view(obs.MC_STAGES, moved).items():
            timings[f"batch_{stage}"] = seconds
        cache_stats: Dict[str, object] = {}
        for name, live in capacity_cache_stats().items():
            # Counts are the run's; size and maxsize are current.
            stats = replace(live, **obs.view(obs.CAPACITY_CACHES[name], moved))
            cache_stats[f"capacity-{name}"] = {
                **asdict(stats),
                "hit_rate": stats.hit_rate,
            }
        vector_stats = obs.view(obs.MC_VECTOR, moved)
        replications = vector_stats["replications"]
        vector_stats["fallback_fraction"] = (
            vector_stats["fallbacks"] / replications if replications else 0.0
        )
        metadata: Dict[str, object] = {
            "solver_stats": obs.view(obs.SAN_SOLVER, moved),
            "cache_stats": cache_stats,
            "vector_stats": vector_stats,
            "campaign": {**campaign.stats, "fingerprint": campaign.fingerprint},
        }
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            headers=list(headers),
            rows=rows,
            notes=list(notes),
            timings=timings,
            metadata=metadata,
        )


"""Chunk-sharded campaign execution with state isolation.

:class:`CampaignRunner` executes a planned campaign -- see
:func:`repro.campaign.planner.plan_chunks` -- inline or over a process
pool.  It is the one place that decides how a grid runs: the
experiment engine, fault campaigns and corpus runs all go through it,
at every worker count.  The determinism contract rests on one
mechanism, **chunk-level state isolation**: before a chunk executes
(inline or on any worker), the process-local capacity caches are
cleared and re-seeded with the snapshot taken when the campaign
started.  Each chunk's rows are therefore a pure function of
``(snapshot, chunk points, in-chunk order)``, and the plan depends on
the grid and its affinity only, so worker count, worker-loss recovery
and checkpoint/resume all merge to byte-identical results.

A chunk's rows cross every boundary -- pool worker to parent, parent
to journal, journal to resume -- as one canonical JSON text (see
:func:`~repro.campaign.journal.encode_rows`), so every merged row is a
decoded JSON value whichever path produced it.

Failure handling:

* **Checkpointing**: with a :class:`~repro.campaign.journal.
  CampaignJournal`, every completed chunk is journaled with its rows
  and the SHA-256 digest of their canonical JSON; a rerun against the
  same grid skips completed chunks and replays their recorded rows.
* **Worker loss**: a ``BrokenProcessPool`` (worker killed by the OS,
  segfault, OOM) rebuilds the pool and resubmits every incomplete
  chunk, up to :data:`POOL_RESTARTS` times.
* **Evaluator errors**: chunks are deterministic, so a chunk whose
  evaluator raised would raise again; the failure is journaled and the
  original exception propagates.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.analytic.capacity import (
    capacity_cache_snapshot,
    clear_capacity_caches,
    seed_capacity_cache,
)
from repro.campaign.journal import (
    CampaignJournal,
    decode_rows,
    encode_rows,
    rows_digest,
)
from repro.campaign.planner import Chunk, grid_fingerprint, plan_chunks
from repro.errors import CampaignError, ConfigurationError, require_integer

__all__ = ["CampaignResult", "CampaignRunner", "ChunkOutcome"]

#: ``BrokenProcessPool`` recoveries before a campaign gives up.
POOL_RESTARTS = 3


@dataclass
class ChunkOutcome:
    """What happened to one chunk: its merged-in rows, the digest of
    their canonical JSON, and the :mod:`repro.obs` delta of the process
    that executed it -- every timer and counter that moved, including
    ``campaign.chunk_s``, the chunk's execution seconds.  ``in_worker``
    marks a delta recorded in a pool worker, which the parent's own
    registry never saw; an inline chunk's delta is already in the
    parent's registry (adding it again would double count).  A resumed
    chunk has an empty delta."""

    chunk_id: int
    affinity: str
    rows: List[object]
    digest: str
    source: str  # "executed" | "resumed"
    in_worker: bool
    delta: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.delta.get("campaign.chunk_s", 0.0)

    @property
    def stage_timings(self) -> Dict[str, float]:
        return obs.view(obs.SAN_STAGES, self.delta)

    @property
    def batch_timings(self) -> Dict[str, float]:
        return obs.view(obs.MC_STAGES, self.delta)

    @property
    def solver_stats(self) -> Dict[str, float]:
        return obs.view(obs.SAN_SOLVER, self.delta)

    @property
    def vector_stats(self) -> Dict[str, float]:
        return obs.view(obs.MC_VECTOR, self.delta)

    @property
    def cache_deltas(self) -> Dict[str, Dict[str, float]]:
        return {
            cache: obs.view(names, self.delta)
            for cache, names in obs.CAPACITY_CACHES.items()
        }


@dataclass
class CampaignResult:
    """Merged campaign output: ``rows[i]`` is the evaluator's result
    for ``points[i]`` (grid order, independent of execution order)."""

    rows: List[object]
    chunks: List[ChunkOutcome]
    fingerprint: str
    stats: Dict[str, object]


# ----------------------------------------------------------------------
# Worker-side machinery (module level: must be picklable by reference)
# ----------------------------------------------------------------------

_WORKER_SNAPSHOT: Optional[object] = None


def _campaign_worker_init(entries) -> None:
    """Pool initializer: remember the campaign's cache snapshot."""
    global _WORKER_SNAPSHOT
    _WORKER_SNAPSHOT = entries


def _reset_to_snapshot(entries) -> None:
    """The isolation step: forget everything this process accumulated
    and restore the campaign's initial cache contents."""
    clear_capacity_caches()
    seed_capacity_cache(entries)


def _execute_chunk(row_fn, chunk_points: Sequence[object]):
    """Evaluate one chunk's points consecutively, in grid order."""
    with obs.timer("campaign.chunk_s"):
        return [row_fn(point) for point in chunk_points]


def _pool_chunk_task(task):
    """Top-level (hence picklable) per-chunk pool task.

    Resets the worker to the campaign snapshot, runs the chunk, and
    returns the rows' canonical JSON text -- the parent digests exactly
    this text -- plus the worker's :mod:`repro.obs` delta for the chunk.
    """
    row_fn, chunk_id, chunk_points = task
    _reset_to_snapshot(_WORKER_SNAPSHOT)
    since = obs.snapshot()
    rows = _execute_chunk(row_fn, chunk_points)
    return encode_rows(rows, chunk_id), obs.delta(since)


class CampaignRunner:
    """Execute a grid of independent points as affinity-keyed chunks.

    Parameters
    ----------
    n_jobs:
        ``1`` executes chunks inline (no pool; still chunked,
        state-isolated and journalable); ``> 1`` fans chunks out over
        up to that many worker processes; ``-1`` uses one worker per
        CPU.  A plan of one pending chunk always runs inline.
    journal:
        Path of the JSONL checkpoint journal.  If the file exists it
        must fingerprint-match the requested grid (else
        :class:`~repro.errors.ConfigurationError`); completed chunks
        are replayed from it instead of re-executed.
    """

    def __init__(self, n_jobs: int = 1, *, journal: Optional[str] = None):
        if require_integer("n_jobs", n_jobs) < 1 and n_jobs != -1:
            raise ConfigurationError(
                f"n_jobs must be a positive integer or -1, got {n_jobs!r}"
            )
        self.n_jobs = (os.cpu_count() or 1) if n_jobs == -1 else n_jobs
        self.journal_path = journal

    # ------------------------------------------------------------------
    def run(
        self,
        row_fn: Callable[[object], object],
        points: Sequence[object],
        *,
        affinity: Optional[Callable[[object], object]] = None,
        on_chunk: Optional[Callable[[ChunkOutcome], None]] = None,
    ) -> CampaignResult:
        """Plan, execute and merge the campaign.

        ``on_chunk`` is invoked in the parent after each chunk lands
        (journal record already durable), in completion order -- a
        progress hook, and the test suite's crash-injection point.
        """
        points = list(points)
        chunks = plan_chunks(points, affinity=affinity)
        fingerprint = grid_fingerprint(points, chunks)
        stats: Dict[str, object] = {
            "chunks": len(chunks),
            "points": len(points),
            "workers": 1,
            "submissions": 0,
            "executed": 0,
            "resumed": 0,
            "pool_restarts": 0,
        }
        journal: Optional[CampaignJournal] = None
        outcomes: Dict[int, ChunkOutcome] = {}
        try:
            if self.journal_path is not None:
                journal = CampaignJournal(self.journal_path)
                resumed = journal.open(fingerprint, chunks)
                for chunk_id, entry in resumed.items():
                    outcomes[chunk_id] = ChunkOutcome(
                        chunk_id=chunk_id,
                        affinity=chunks[chunk_id].affinity,
                        rows=entry.rows,
                        digest=entry.digest,
                        source="resumed",
                        in_worker=False,
                    )
                stats["resumed"] = len(outcomes)
            pending = [c for c in chunks if c.chunk_id not in outcomes]
            run_pending = (
                self._run_inline
                if self.n_jobs == 1 or len(pending) <= 1
                else self._run_pool
            )
            run_pending(row_fn, pending, outcomes, stats, journal, on_chunk)
        finally:
            if journal is not None:
                journal.close()

        rows: List[object] = [None] * len(points)
        for chunk in chunks:
            outcome = outcomes[chunk.chunk_id]
            for position, index in enumerate(chunk.indices):
                rows[index] = outcome.rows[position]
        return CampaignResult(
            rows=rows,
            chunks=[outcomes[c.chunk_id] for c in chunks],
            fingerprint=fingerprint,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _run_inline(
        self,
        row_fn,
        pending: List[Chunk],
        outcomes: Dict[int, ChunkOutcome],
        stats: Dict[str, object],
        journal: Optional[CampaignJournal],
        on_chunk,
    ) -> None:
        snapshot = capacity_cache_snapshot()
        for chunk in pending:
            if journal is not None:
                journal.lease(chunk.chunk_id, 1)
            stats["submissions"] += 1
            _reset_to_snapshot(snapshot)
            since = obs.snapshot()
            try:
                rows_text = encode_rows(
                    _execute_chunk(row_fn, chunk.points), chunk.chunk_id
                )
            except Exception as error:
                if journal is not None:
                    journal.fail(chunk.chunk_id, 1, repr(error))
                raise
            self._record(
                chunk,
                rows_text,
                obs.delta(since),
                in_worker=False,
                outcomes=outcomes,
                stats=stats,
                journal=journal,
                on_chunk=on_chunk,
            )

    # ------------------------------------------------------------------
    def _run_pool(
        self,
        row_fn,
        pending: List[Chunk],
        outcomes: Dict[int, ChunkOutcome],
        stats: Dict[str, object],
        journal: Optional[CampaignJournal],
        on_chunk,
    ) -> None:
        snapshot = capacity_cache_snapshot()
        workers = min(self.n_jobs, len(pending))
        stats["workers"] = workers
        attempts: Dict[int, int] = {chunk.chunk_id: 0 for chunk in pending}

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_campaign_worker_init,
                initargs=(snapshot,),
            )

        def submit_incomplete(pool) -> Dict[Future, Chunk]:
            inflight = {}
            for chunk in pending:
                if chunk.chunk_id in outcomes:
                    continue
                attempts[chunk.chunk_id] += 1
                if journal is not None:
                    journal.lease(chunk.chunk_id, attempts[chunk.chunk_id])
                stats["submissions"] += 1
                future = pool.submit(
                    _pool_chunk_task, (row_fn, chunk.chunk_id, chunk.points)
                )
                inflight[future] = chunk
            return inflight

        pool = make_pool()
        inflight: Dict[Future, Chunk] = {}
        try:
            inflight = submit_incomplete(pool)
            while inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    chunk = inflight.pop(future)
                    try:
                        rows_text, delta = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as error:
                        if journal is not None:
                            journal.fail(
                                chunk.chunk_id,
                                attempts[chunk.chunk_id],
                                repr(error),
                            )
                        raise
                    self._record(
                        chunk,
                        rows_text,
                        delta,
                        in_worker=True,
                        outcomes=outcomes,
                        stats=stats,
                        journal=journal,
                        on_chunk=on_chunk,
                    )
                if broken:
                    # A worker died (kill -9, OOM, segfault): every
                    # in-flight future is poisoned.  Rebuild the pool and
                    # resubmit whatever has not completed.
                    stats["pool_restarts"] += 1
                    if stats["pool_restarts"] > POOL_RESTARTS:
                        raise CampaignError(
                            f"campaign worker pool broke "
                            f"{stats['pool_restarts']} times (limit "
                            f"{POOL_RESTARTS}); giving up"
                        )
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = make_pool()
                    inflight = submit_incomplete(pool)
        finally:
            # Join the idle workers of a finished campaign: a pool left
            # to interpreter exit can race its own wakeup pipe shut.
            pool.shutdown(wait=not inflight, cancel_futures=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _record(
        chunk: Chunk,
        rows_text: str,
        delta: Dict[str, float],
        *,
        in_worker: bool,
        outcomes: Dict[int, ChunkOutcome],
        stats: Dict[str, object],
        journal: Optional[CampaignJournal],
        on_chunk,
    ) -> None:
        outcome = ChunkOutcome(
            chunk_id=chunk.chunk_id,
            affinity=chunk.affinity,
            rows=decode_rows(rows_text),
            digest=rows_digest(rows_text),
            source="executed",
            in_worker=in_worker,
            delta=delta,
        )
        outcomes[chunk.chunk_id] = outcome
        stats["executed"] += 1
        if journal is not None:
            journal.complete(chunk.chunk_id, rows_text, seconds=outcome.seconds)
        if on_chunk is not None:
            on_chunk(outcome)

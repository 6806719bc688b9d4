"""Affinity-sharded, checkpointable campaign orchestration.

The experiment workloads -- the 1134-cell spare-policy optimize grid,
seeded scenario corpora, Monte-Carlo fault campaigns -- are grids of
independent points whose *values* are fully determined by the point,
but whose *cost* depends heavily on process-local solver state:
consecutive cells sharing a SAN topology re-rate one assembled quotient
and warm-start each steady-state solve, while scattered cells rebuild
everything from scratch.  The legacy pool submitted one pickled future
per point, destroying exactly that locality.

:mod:`repro.campaign` replaces per-point fan-out with deterministic,
affinity-keyed **chunk** scheduling:

* :func:`~repro.campaign.planner.plan_chunks` groups grid points by an
  affinity key (``DesignPoint.topology_group()`` for the optimize grid,
  the capacity-topology key for corpus cells, the campaign cell for
  fault batches) so every group executes consecutively -- in grid
  order -- on one worker and takes the assemble-cache / re-rate /
  warm-start fast path, whichever worker runs it;
* :class:`~repro.campaign.orchestrator.CampaignRunner` executes the
  chunks inline or over a process pool with chunk-granular **state
  isolation** (solver caches reset to the campaign's seeded snapshot at
  every chunk boundary), which makes each chunk's result a pure
  function of ``(snapshot, chunk points, in-chunk order)``.  The plan
  depends on the grid and its affinity only (no affinity: one chunk),
  so results are byte-identical at any worker count, across a
  worker-loss pool rebuild, and across checkpoint/resume.  Every grid
  in the repository -- experiment sweeps, fault campaigns, corpus
  runs -- goes through it, at every ``n_jobs``;
* :mod:`~repro.campaign.journal` owns the one encoding of chunk rows
  -- canonical JSON, from the pool worker through the merge to the
  journal and back -- and :class:`~repro.campaign.journal.
  CampaignJournal` records a chunk-granular JSONL checkpoint journal
  (planned -> leased -> completed with the rows and the SHA-256 digest
  of their canonical JSON) that :meth:`CampaignRunner.run` resumes
  from, skipping completed chunks and replaying an interrupted
  campaign to the identical final artifact.  A journal is plain,
  readable JSON; loading one never executes anything.

See ``docs/CAMPAIGN.md`` for the user guide and the determinism
contract.
"""

from repro.campaign.journal import CampaignJournal, load_journal
from repro.campaign.orchestrator import (
    CampaignResult,
    CampaignRunner,
    ChunkOutcome,
)
from repro.campaign.planner import Chunk, grid_fingerprint, plan_chunks

__all__ = [
    "CampaignJournal",
    "CampaignResult",
    "CampaignRunner",
    "Chunk",
    "ChunkOutcome",
    "grid_fingerprint",
    "load_journal",
    "plan_chunks",
]

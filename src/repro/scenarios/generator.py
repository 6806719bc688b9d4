"""Seeded scenario-corpus generation.

Each **family** is a sampler that turns a per-case random generator
into one :class:`~repro.scenarios.schema.ScenarioCase`; a corpus is a
fixed-seed sample over the registered families.  Determinism contract
(pinned by the tests):

* every case draws from ``np.random.default_rng(SeedSequence((seed,
  family_index, case_index)))`` -- its stream depends only on the
  corpus seed and its own position, never on other cases, iteration
  order, worker identity or wall-clock;
* consequently :func:`generate_corpus` is **byte-identical** across
  reruns;
* the recorded :class:`~repro.scenarios.schema.CorpusMetadata` (seed +
  cell count + family allocation) is sufficient to regenerate the
  corpus exactly, which is how the golden corpus under
  ``tests/golden/corpus/`` is pinned.

Families (see ``docs/SCENARIOS.md`` for how to add one):

``walker-reference``
    Perturbations of the paper's 14+2 reference plane: failure rate,
    deployment threshold, deadline, signal/computation rates, scheme.
``walker-scale``
    Diverse Walker-style designs: 4-24 active satellites per plane,
    1-8 planes, varied orbit period and footprint dwell, both
    overlapping and underlapping geometries.
``spare-policy``
    Spare-strategy design points (after PAPERS.md's Markov
    spare-strategy study): in-orbit spare count, threshold, scheduled
    period and replacement latency swept aggressively.
``duration-models``
    Non-exponential signal durations (bursty hyperexponential and
    deterministic) scored against the general-integrator analytic
    pipeline.
``small-exact``
    Tiny constellations where the *unlumped* per-satellite expanded
    chain is still solvable, enabling the strictest cross-solver check
    (lumped vs unlumped vs counted).
``fault-mix``
    Protocol-level fault-injection cells (fail-silent successors,
    crosslink loss, downlink blackouts, membership staleness) run
    through the batched Monte-Carlo campaign engine.
"""

from __future__ import annotations

import subprocess
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.scenarios.schema import CorpusMetadata, ScenarioCase

__all__ = ["FAMILIES", "generate_corpus", "generate_from_metadata"]

FamilySampler = Callable[[np.random.Generator, str], ScenarioCase]


def _log_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(low), np.log10(high)))


def _mc_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _traffic(rng: np.random.Generator) -> Dict[str, float]:
    """Traffic intensity: expected signals/hour and observation window.
    The product (clamped) sets the cell's Monte-Carlo sample count, so
    heavier traffic buys tighter Wilson bounds."""
    return {
        "traffic_signals_per_hour": float(rng.uniform(5.0, 120.0)),
        "observation_hours": float(rng.uniform(200.0, 2000.0)),
    }


def _sample_walker_reference(
    rng: np.random.Generator, case_id: str
) -> ScenarioCase:
    return ScenarioCase(
        case_id=case_id,
        family="walker-reference",
        failure_rate_per_hour=_log_uniform(rng, 1e-6, 3e-4),
        deployment_threshold=int(rng.choice([10, 12])),
        deadline_minutes=float(rng.uniform(2.0, 12.0)),
        signal_termination_rate=float(rng.uniform(0.08, 0.8)),
        computation_rate=float(rng.uniform(10.0, 50.0)),
        scheme=str(rng.choice(["OAQ", "BAQ"])),
        checks=("analytic_vs_mc", "alert_deadline", "lumped_vs_counted"),
        mc_seed=_mc_seed(rng),
        **_traffic(rng),
    )


def _sample_walker_scale(rng: np.random.Generator, case_id: str) -> ScenarioCase:
    active = int(rng.integers(4, 25))
    orbit_period = float(rng.uniform(60.0, 240.0))
    # Dwell fraction capped so the fully-populated plane stays within
    # the model's pairwise-overlap domain (Tc <= 2 theta / k).
    coverage = orbit_period * float(
        rng.uniform(0.03, min(0.45, 1.9 / active))
    )
    return ScenarioCase(
        case_id=case_id,
        family="walker-scale",
        planes=int(rng.integers(1, 9)),
        active_per_plane=active,
        in_orbit_spares=int(rng.integers(0, 4)),
        orbit_period_minutes=orbit_period,
        coverage_time_minutes=coverage,
        deployment_threshold=int(rng.integers(max(2, active - 5), active + 1)),
        fault_capacity=min(9, active),
        failure_rate_per_hour=_log_uniform(rng, 1e-6, 3e-4),
        scheduled_deployment_hours=float(rng.uniform(5000.0, 60000.0)),
        replacement_latency_hours=float(rng.uniform(24.0, 500.0)),
        deadline_minutes=float(rng.uniform(1.0, 15.0)),
        signal_termination_rate=float(rng.uniform(0.05, 1.0)),
        computation_rate=float(rng.uniform(5.0, 60.0)),
        scheme=str(rng.choice(["OAQ", "BAQ"])),
        checks=("analytic_vs_mc", "alert_deadline", "lumped_vs_counted"),
        mc_seed=_mc_seed(rng),
        **_traffic(rng),
    )


def _sample_spare_policy(rng: np.random.Generator, case_id: str) -> ScenarioCase:
    active = int(rng.integers(10, 17))
    return ScenarioCase(
        case_id=case_id,
        family="spare-policy",
        active_per_plane=active,
        in_orbit_spares=int(rng.integers(0, 5)),
        deployment_threshold=int(rng.integers(max(2, active - 6), active + 1)),
        failure_rate_per_hour=_log_uniform(rng, 3e-6, 1e-3),
        scheduled_deployment_hours=float(rng.uniform(2000.0, 60000.0)),
        replacement_latency_hours=float(rng.uniform(12.0, 1000.0)),
        deadline_minutes=float(rng.uniform(2.0, 10.0)),
        signal_termination_rate=float(rng.uniform(0.1, 0.6)),
        scheme=str(rng.choice(["OAQ", "BAQ"])),
        checks=("analytic_vs_mc", "alert_deadline", "lumped_vs_counted"),
        mc_seed=_mc_seed(rng),
        **_traffic(rng),
    )


def _sample_duration_models(
    rng: np.random.Generator, case_id: str
) -> ScenarioCase:
    return ScenarioCase(
        case_id=case_id,
        family="duration-models",
        active_per_plane=int(rng.integers(8, 17)),
        deployment_threshold=int(rng.integers(6, 9)),
        fault_capacity=8,
        duration_model=str(rng.choice(["hyperexponential", "deterministic"])),
        deadline_minutes=float(rng.uniform(2.0, 10.0)),
        signal_termination_rate=float(rng.uniform(0.1, 0.6)),
        computation_rate=float(rng.uniform(10.0, 50.0)),
        failure_rate_per_hour=_log_uniform(rng, 1e-6, 1e-4),
        scheme=str(rng.choice(["OAQ", "BAQ"])),
        checks=("analytic_vs_mc", "alert_deadline"),
        mc_seed=_mc_seed(rng),
        **_traffic(rng),
    )


def _sample_small_exact(rng: np.random.Generator, case_id: str) -> ScenarioCase:
    active = int(rng.integers(3, 7))
    orbit_period = float(rng.uniform(60.0, 180.0))
    coverage = orbit_period * float(
        rng.uniform(0.05, min(0.4, 1.9 / active))
    )
    return ScenarioCase(
        case_id=case_id,
        family="small-exact",
        planes=int(rng.integers(1, 4)),
        active_per_plane=active,
        in_orbit_spares=int(rng.integers(0, 2)),
        orbit_period_minutes=orbit_period,
        coverage_time_minutes=coverage,
        deployment_threshold=int(rng.integers(2, active + 1)),
        fault_capacity=min(9, active),
        failure_rate_per_hour=_log_uniform(rng, 1e-5, 1e-3),
        scheduled_deployment_hours=float(rng.uniform(2000.0, 30000.0)),
        replacement_latency_hours=float(rng.uniform(24.0, 500.0)),
        deadline_minutes=float(rng.uniform(2.0, 12.0)),
        signal_termination_rate=float(rng.uniform(0.1, 0.6)),
        scheme=str(rng.choice(["OAQ", "BAQ"])),
        stages=6,
        checks=(
            "analytic_vs_mc",
            "alert_deadline",
            "lumped_vs_counted",
            "lumped_vs_unlumped",
        ),
        mc_seed=_mc_seed(rng),
        **_traffic(rng),
    )


def _sample_fault_mix(rng: np.random.Generator, case_id: str) -> ScenarioCase:
    kind = str(
        rng.choice(
            [
                "fault-free",
                "successors-fail-all",
                "next-fails",
                "crosslink-loss",
                "blackout",
                "stale-view",
            ]
        )
    )
    if kind == "fault-free":
        plan = FaultPlan.fault_free()
    elif kind == "successors-fail-all":
        plan = FaultPlan.successors_fail_silent(0.0)
    elif kind == "next-fails":
        plan = FaultPlan.successors_fail_silent(0.0, count=1, name="next-fails")
    elif kind == "crosslink-loss":
        plan = FaultPlan.lossy(float(rng.uniform(0.05, 0.4)))
    elif kind == "blackout":
        plan = FaultPlan.downlink_blackout(0.0, float(rng.uniform(20.0, 120.0)))
    else:
        plan = FaultPlan(
            name="stale-view",
            fail_successors_at=0.0,
            fail_successor_count=1,
            membership_staleness=float(rng.choice([0.0, 1e9])),
        )
    return ScenarioCase(
        case_id=case_id,
        family="fault-mix",
        signal_termination_rate=float(rng.uniform(0.1, 0.4)),
        deadline_minutes=float(rng.uniform(4.0, 8.0)),
        fault_plan=plan,
        fault_runs=int(rng.integers(60, 121)),
        fault_capacity=int(rng.choice([8, 9, 10])),
        scheme="OAQ",
        checks=("fault_campaign",),
        mc_seed=_mc_seed(rng),
        **_traffic(rng),
    )


#: Declaration-ordered family registry; the allocation of cells to
#: families follows this order (earliest families absorb the remainder
#: of an uneven split).
FAMILIES: Dict[str, FamilySampler] = {
    "walker-reference": _sample_walker_reference,
    "walker-scale": _sample_walker_scale,
    "spare-policy": _sample_spare_policy,
    "duration-models": _sample_duration_models,
    "small-exact": _sample_small_exact,
    "fault-mix": _sample_fault_mix,
}


def _allocate(
    n_cells: int, families: Sequence[str]
) -> List[Tuple[str, int]]:
    """Even deterministic split of ``n_cells`` over ``families`` in
    declaration order; the first ``n_cells % len(families)`` families
    get one extra cell."""
    base, extra = divmod(n_cells, len(families))
    return [
        (family, base + (1 if index < extra else 0))
        for index, family in enumerate(families)
    ]


def _build_case(spec: Tuple[int, str, int, int]) -> ScenarioCase:
    """Build one case from its pure-data spec ``(seed, family,
    family_index, case_index)``."""
    seed, family, family_index, case_index = spec
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, family_index, case_index))
    )
    case_id = f"{family}-{case_index:04d}"
    return FAMILIES[family](rng, case_id)


def _git_describe() -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    if result.returncode != 0:  # pragma: no cover - no repo / no git
        return None
    return result.stdout.strip() or None


def generate_corpus(
    n_cells: int,
    seed: int,
    *,
    name: str = "scenario-corpus",
    families: Optional[Sequence[str]] = None,
    describe_git: bool = False,
) -> Tuple[CorpusMetadata, List[ScenarioCase]]:
    """Generate a seeded corpus: ``(metadata, cases)``.

    Every case's stream is keyed by its position (see the module
    docstring).  ``describe_git``
    stamps ``git describe`` output into the metadata -- leave it off
    for corpora whose regeneration must be byte-identical from the
    metadata alone (the golden corpus).
    """
    if n_cells < 1:
        raise ConfigurationError(f"n_cells must be >= 1, got {n_cells}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    chosen = list(families) if families is not None else list(FAMILIES)
    if not chosen:
        raise ConfigurationError("at least one family is required")
    unknown = set(chosen) - set(FAMILIES)
    if unknown:
        raise ConfigurationError(
            f"unknown families {sorted(unknown)}; registered: {list(FAMILIES)}"
        )
    if len(set(chosen)) != len(chosen):
        raise ConfigurationError(f"duplicate families: {chosen}")

    allocation = _allocate(n_cells, chosen)
    # Family indices are positions in the *global* registry, so a
    # family's cases do not depend on which other families were chosen.
    registry_index = {family: i for i, family in enumerate(FAMILIES)}
    specs = [
        (seed, family, registry_index[family], case_index)
        for family, count in allocation
        for case_index in range(count)
    ]
    cases = [_build_case(spec) for spec in specs]
    metadata = CorpusMetadata(
        name=name,
        seed=seed,
        n_cells=n_cells,
        families=tuple(
            (family, count) for family, count in allocation if count > 0
        ),
        package_version=repro.__version__,
        git_describe=_git_describe() if describe_git else None,
    )
    return metadata, cases


def generate_from_metadata(
    metadata: CorpusMetadata,
) -> Tuple[CorpusMetadata, List[ScenarioCase]]:
    """Regenerate a corpus from its recorded metadata (same seed, cell
    count and family selection).  Used by the byte-identity pin on the
    golden corpus and the ``diff`` subcommand."""
    return generate_corpus(
        metadata.n_cells,
        metadata.seed,
        name=metadata.name,
        families=[family for family, _ in metadata.families],
    )

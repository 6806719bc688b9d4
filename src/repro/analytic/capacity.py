"""Orbital-plane capacity model ``P(k)`` (paper Section 4.2.2, Fig. 7).

The paper computes the steady-state probability that an orbital plane
has ``k`` active operational satellites with an UltraSAN model of the
plane's degradation and spare-deployment behaviour.  Steady-state
analysis is justified because signal occurrence is Poisson (PASTA).
We rebuild that model on :mod:`repro.san`:

* the plane starts with 14 active satellites and 2 in-orbit spares;
* each active satellite fails independently at rate ``lambda`` (the
  exponential ``failure`` activity has the marking-dependent rate
  ``k * lambda``);
* an in-orbit spare replaces a failed satellite immediately while
  spares remain (instantaneous ``deploy_in_orbit_spare``);
* the **threshold-triggered ground-spare deployment policy** keeps the
  plane from operating below the threshold ``eta``: when the capacity
  would drop below ``eta`` (spares exhausted), a replacement ground
  spare is launched, arriving after a deterministic
  ``replacement latency``.  The paper motivates this reading -- "the
  threshold-triggered ground-spare deployment policy prevents the
  scenario in which the plane's capacity drops below the threshold from
  happening" (Section 4.3) -- and it is the only policy structure we
  found that reproduces Fig. 7's shape (``P(eta)`` dominant at high
  ``lambda``, ``P(eta - 1)`` small but reachable) *and* Fig. 9's
  OAQ/BAQ anchor values simultaneously;
* the **scheduled ground-spare deployment policy** restores the plane
  to its original capacity (14 active + 2 in-orbit spares) every
  ``phi`` hours (deterministic clock).

The paper does not publish the replacement latency; the default
(168 hours) is our calibration -- see EXPERIMENTS.md for the
sensitivity study.

Solution paths:

* :func:`capacity_distribution` -- numerical: reachability graph,
  Erlang phase-type unfolding of the two deterministic timers,
  sparse steady-state solve;
* :func:`capacity_transient` -- uniformisation on the same chain;
* :func:`capacity_distribution_expanded` -- the per-satellite SAN,
  solved on its verified orbit quotient (or unlumped);
* :func:`capacity_distribution_exponential` -- all-exponential variant
  (timers replaced by exponentials of equal mean), the crudest
  approximation, used in the ablation benchmark; it has no timer to
  unfold, and solves through the same ``assemble`` -> ``rerate`` ->
  ``steady_state`` -> ``marking_marginals`` path as every other
  ``P(k)``.

The exact-timer oracle for every Erlang path is the plane DES
:func:`repro.simulation.plane_process.simulate_capacity_distribution`,
a hand-written simulation of the same process that shares no code with
:mod:`repro.san` (so it checks this module's SAN encoding as well as
the unfolding).  The exponential variant has an exact oracle that
shares no code with :mod:`repro.san` either: the counted chain written
as a dense generator over ``(active, spares, pending)``
(``tests/test_analytic_capacity_oracle.py``).

Every numerical path solves one way, through the **topology/rate
split** (:mod:`repro.san.assembled`): the expensive reachability +
unfolding structure is assembled once per *topology* and cached
(:func:`assemble_capacity_topology`), and each parameter point re-rates
its arrays in microseconds.  The topology key
(:func:`capacity_topology_key`) is derived from the field tags of
:class:`CapacityModelConfig` -- structural fields enter it, rate fields
do not -- so every point of a rate sweep shares one structure.  Rates
are data: a topology is assembled from the unit-rate copy of its
config, so its slot rates are coefficients, and a point's slot rates
are one numpy expression over its rate fields (``_ACTIVITY_RATE_FIELDS``
next to the two builders) -- no model is built or walked per point.
Each point is solved by :meth:`~repro.san.ctmc.CTMC.steady_state_solve`:
a chain below ``_ITERATIVE_MIN_STATES`` (~3,000 states) is one sparse-LU
solve; a larger one carries its topology's warm start, so the first
point is a cold ILU-preconditioned GMRES solve and later points start
from the previous point's ``pi`` and preconditioner (falling back to
the direct factorisation on any failure); under
:func:`capacity_caches_disabled` every point is a direct
:meth:`~repro.san.ctmc.CTMC.steady_state` solve.

``P(k)`` itself is **memoized** on ``(config, stages)``, so repeated
figure regenerations and sweeps over ``tau`` / ``mu`` reuse one solve
per distinct key.  Both caches are module-level
:class:`~repro.analytic.solve_cache.LRUSolveCache` instances;
:func:`capacity_cache_stats` exposes their hit/miss counters,
:func:`capacity_caches_disabled` restores the solve-per-call behaviour
for baseline measurements, and :func:`capacity_stage_timings` /
:func:`capacity_solver_stats` expose the per-stage costs and
solve-method counters.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.analytic.solve_cache import CacheStats, LRUSolveCache
from repro.core.config import EvaluationParams
from repro.core.distributions import Deterministic, Exponential
from repro.errors import (
    ConfigurationError,
    ModelError,
    check_fields,
    require_finite,
    require_integer,
)
from repro.san import (
    AssembledChain,
    Case,
    InputGate,
    InstantaneousActivity,
    LumpedStateSpace,
    OutputGate,
    Place,
    SANModel,
    SteadyStateSolution,
    SteadyStateWarmStart,
    TimedActivity,
    assemble,
    generate,
    lumped_state_space,
)

__all__ = [
    "CapacityModelConfig",
    "assemble_capacity_topology",
    "build_capacity_san",
    "build_capacity_san_expanded",
    "capacity_distribution",
    "capacity_distribution_expanded",
    "capacity_distribution_exponential",
    "capacity_transient",
    "capacity_cross_check",
    "capacity_cache_stats",
    "capacity_cache_snapshot",
    "capacity_caches_disabled",
    "capacity_solver_stats",
    "capacity_stage_timings",
    "capacity_topology_key",
    "clear_capacity_caches",
    "expanded_capacity_summary",
    "seed_capacity_cache",
]


#: Valid ``deployment_policy`` values: which ground-spare deployment
#: machinery the SAN contains (a structural choice, see the topology
#: key).
_DEPLOYMENT_POLICIES = frozenset({"combined", "threshold", "scheduled"})


def _tagged(role: str, default):
    """A config field carrying its role in the topology/rate split
    (read by :func:`capacity_topology_key`)."""
    return field(default=default, metadata={"role": role})


@dataclass(frozen=True)
class CapacityModelConfig:
    """Parameters of the orbital-plane capacity model.

    Every field is tagged (``dataclasses.fields(...)[i].metadata
    ["role"]``) with its part in the topology/rate split: a
    ``"structural"`` field changes the SAN's reachable markings or its
    activities, a ``"rate"`` field only scales transitions, and
    ``"presence"`` (repair) is structural through ``is not None`` and a
    rate through its value.  :func:`capacity_topology_key` is derived
    from these tags, so a new field cannot be left out of the cache key.

    Attributes
    ----------
    full_capacity:
        Active satellites when the plane is at its original capacity
        (14).
    in_orbit_spares:
        In-orbit spares available for immediate replacement (2).
    failure_rate_per_hour:
        Per-satellite failure rate ``lambda``.
    threshold:
        ``eta`` -- the plane is sustained at this capacity by the
        threshold-triggered ground-spare deployment policy.
    scheduled_period_hours:
        ``phi`` -- period of the scheduled full restore.
    replacement_latency_hours:
        Launch-to-arrival latency of a threshold-triggered replacement
        ground spare (not published in the paper; calibrated).
    deployment_policy:
        Which ground-spare deployment machinery the plane runs --
        ``"combined"`` (the paper's model: both policies active, the
        default), ``"threshold"`` (no scheduled restore clock) or
        ``"scheduled"`` (no threshold trigger).  This is a *structural*
        choice: it adds or removes activities, so it is part of the
        topology key and two policies never share an assembled chain.
    repair_rate_per_hour:
        Optional on-orbit repair/servicing: each failed satellite is
        independently restored to service at this exponential rate.
        ``None`` (the default) omits the repair activity entirely
        (structural absence); a float -- **including exactly 0.0** --
        keeps the activity in the topology at that rate, so a design
        sweep crossing zero stays on one assembled structure and
        re-rates in place (zero-rate transitions are dropped by the
        CTMC, never by the topology).
    """

    full_capacity: int = _tagged("structural", 14)
    in_orbit_spares: int = _tagged("structural", 2)
    failure_rate_per_hour: float = _tagged("rate", 1e-5)
    threshold: int = _tagged("structural", 10)
    scheduled_period_hours: float = _tagged("rate", 30000.0)
    replacement_latency_hours: float = _tagged("rate", 168.0)
    deployment_policy: str = _tagged("structural", "combined")
    repair_rate_per_hour: Optional[float] = _tagged("presence", None)

    def __post_init__(self) -> None:
        check_fields(self)
        for name, minimum in (
            ("full_capacity", 1),
            ("in_orbit_spares", 0),
            ("threshold", 1),
        ):
            require_integer(name, getattr(self, name), minimum)
        if self.threshold > self.full_capacity:
            raise ConfigurationError(
                f"threshold must be in [1, {self.full_capacity}], got "
                f"{self.threshold}"
            )
        if self.deployment_policy not in _DEPLOYMENT_POLICIES:
            raise ConfigurationError(
                f"deployment_policy must be one of "
                f"{sorted(_DEPLOYMENT_POLICIES)}, got "
                f"{self.deployment_policy!r}"
            )
        for spec in fields(self):
            role = spec.metadata["role"]
            value = getattr(self, spec.name)
            if role != "structural" and value is not None:
                # Rates must be positive; a present repair rate may be 0.0.
                require_finite(spec.name, value, 0, strict=role == "rate")

    @classmethod
    def from_params(cls, params: EvaluationParams) -> "CapacityModelConfig":
        """Build from an :class:`EvaluationParams` (Fig. 7-9 sweeps)."""
        return cls(
            full_capacity=params.constellation.active_per_plane,
            in_orbit_spares=params.constellation.in_orbit_spares_per_plane,
            failure_rate_per_hour=params.lam,
            threshold=params.eta,
            scheduled_period_hours=params.phi,
            replacement_latency_hours=params.replacement_latency_hours,
        )


def build_capacity_san(
    config: CapacityModelConfig, *, exponential_timers: bool = False
) -> SANModel:
    """Construct the orbital-plane SAN.

    Places: ``active`` (operational satellites in service), ``spares``
    (in-orbit spares), ``pending`` (threshold-triggered replacement
    launches in flight).

    Setting ``exponential_timers`` replaces the deterministic scheduled
    clock and replacement latency with exponentials of the same mean
    (used by the ablation study).

    ``config.deployment_policy`` selects the ground-spare machinery:
    ``"threshold"`` drops the scheduled clock, ``"scheduled"`` drops
    the threshold trigger, ``"combined"`` (default) keeps both.  A
    non-``None`` ``config.repair_rate_per_hour`` adds an on-orbit
    ``repair`` activity restoring failed satellites to service at
    ``rho * (full - active)``.
    """
    full = config.full_capacity
    eta = config.threshold
    policy = config.deployment_policy

    places = [
        Place("active", full),
        Place("spares", config.in_orbit_spares),
        Place("pending", 0),
    ]

    failure = TimedActivity.exponential(
        "failure",
        lambda m: config.failure_rate_per_hour * m["active"],
        input_arcs={"active": 1},
    )

    def restore_full(m) -> None:
        m["active"] = full
        m["spares"] = config.in_orbit_spares
        m["pending"] = 0

    if exponential_timers:
        scheduled_dist = Exponential(1.0 / config.scheduled_period_hours)
        replacement_dist = Exponential(1.0 / config.replacement_latency_hours)
    else:
        scheduled_dist = Deterministic(config.scheduled_period_hours)
        replacement_dist = Deterministic(config.replacement_latency_hours)

    scheduled = TimedActivity(
        "scheduled_deployment",
        scheduled_dist,
        input_gates=[
            # Always enabled: the launch schedule is a free-running clock.
            InputGate("always", predicate=lambda m: True),
        ],
        cases=[
            # Restore to original capacity; in-flight replacements are
            # superseded by the full restore.
            Case(
                output_gates=[OutputGate("restore_full", restore_full)]
            )
        ],
    )

    if config.repair_rate_per_hour is None:
        arrival_cases = [Case(output_arcs={"active": 1})]
    else:
        # With on-orbit repair the failed satellite may already be back
        # in service when the replacement arrives; the late spare is
        # then discarded (the launch was wasted).  Unreachable without
        # repair, so the plain-arc case above keeps the no-repair
        # topology identical to the paper's model.
        def arrive_or_discard(m) -> None:
            if m["active"] < full:
                m["active"] += 1

        arrival_cases = [
            Case(output_gates=[OutputGate("arrive_or_discard", arrive_or_discard)])
        ]

    replacement_arrival = TimedActivity(
        "replacement_arrival",
        replacement_dist,
        input_arcs={"pending": 1},
        cases=arrival_cases,
    )

    deploy_spare = InstantaneousActivity(
        "deploy_in_orbit_spare",
        priority=2,
        input_arcs={"spares": 1},
        input_gates=[
            InputGate("slot_open", predicate=lambda m: m["active"] < full)
        ],
        cases=[
            Case(
                output_arcs={"active": 1}
            )
        ],
    )

    threshold_trigger = InstantaneousActivity(
        "threshold_trigger",
        priority=1,
        input_gates=[
            InputGate(
                "below_threshold",
                predicate=lambda m: (
                    m["spares"] == 0 and m["active"] + m["pending"] < eta
                ),
            )
        ],
        cases=[
            Case(
                output_arcs={"pending": 1}
            )
        ],
    )

    timed = [failure]
    if policy in ("combined", "scheduled"):
        timed.append(scheduled)
    timed.append(replacement_arrival)
    if config.repair_rate_per_hour is not None:
        timed.append(
            TimedActivity.exponential(
                "repair",
                lambda m: config.repair_rate_per_hour * (full - m["active"]),
                input_gates=[
                    InputGate(
                        "repairable", predicate=lambda m: m["active"] < full
                    )
                ],
                cases=[Case(output_arcs={"active": 1})],
            )
        )
    instantaneous = [deploy_spare]
    if policy in ("combined", "threshold"):
        instantaneous.append(threshold_trigger)
    return SANModel(
        places,
        timed_activities=timed,
        instantaneous_activities=instantaneous,
        name="orbital-plane-capacity",
    )


def _satellite_names(full: int) -> Tuple[str, ...]:
    return tuple(f"sat_{i}" for i in range(1, full + 1))


def build_capacity_san_expanded(config: CapacityModelConfig) -> SANModel:
    """The *per-satellite* formulation of the orbital-plane SAN.

    Instead of one counter place ``active``, every satellite gets its
    own binary place ``sat_i`` -- the natural formulation when
    satellites carry identity (per-satellite rewards or failure
    rates) and the stress test for state lumping: the tangible
    state space is exponential in the satellite count
    (:math:`2^{\\text{full}} + \\text{spares}` markings versus the
    counted model's handful), but every permutation of the identical
    satellites is a symmetry, declared via ``exchangeable_groups`` and
    collapsed exactly by :mod:`repro.san.lumping`.  The quotient is the
    counted model's chain, so ``P(k)`` matches
    :func:`capacity_distribution` to solver precision.

    Repairs (spare deployment, replacement arrival) pick the satellite
    to restore *uniformly among the failed ones* -- the choice is
    probabilistically irrelevant for identical satellites, and the
    uniform tie-break is what keeps the model exactly symmetric (a
    deterministic "lowest index first" rule would break exact
    lumpability: low-index satellites would accumulate more uptime).

    Honours ``config.deployment_policy`` and
    ``config.repair_rate_per_hour`` exactly like
    :func:`build_capacity_san`; the per-satellite ``repair`` activity
    fires at ``rho * down_count`` and picks the restored satellite
    uniformly among the failed ones (same symmetry argument as the
    other repairs), so the quotient stays the counted model's chain.

    The failed-satellite count behind every repair case, the discard
    case, the ``slot_open``/``below_threshold``/``repairable`` gates
    and the repair rate is one :meth:`MarkingView.total` read over the
    ``sat_i`` places (positions resolved once per place index), so a
    repair activity's n case probabilities cost n name-keyed reads,
    not n(n+1).
    """
    full = config.full_capacity
    eta = config.threshold
    policy = config.deployment_policy
    sats = _satellite_names(full)

    places = [Place(s, 1) for s in sats] + [
        Place("spares", config.in_orbit_spares),
        Place("pending", 0),
    ]

    failures = [
        TimedActivity.exponential(
            f"failure_{i}",
            config.failure_rate_per_hour,
            input_arcs={s: 1},
        )
        for i, s in enumerate(sats, 1)
    ]

    def down_count(m) -> int:
        return full - m.total(sats)

    def repair_case(s: str) -> Case:
        def probability(m) -> float:
            down = down_count(m)
            return (1 - m[s]) / down if down else 0.0

        return Case(probability=probability, output_arcs={s: 1})

    def restore_full(m) -> None:
        for s in sats:
            m[s] = 1
        m["spares"] = config.in_orbit_spares
        m["pending"] = 0

    scheduled = TimedActivity(
        "scheduled_deployment",
        Deterministic(config.scheduled_period_hours),
        input_gates=[InputGate("always", predicate=lambda m: True)],
        cases=[Case(output_gates=[OutputGate("restore_full", restore_full)])],
    )

    if config.repair_rate_per_hour is None:
        arrival_cases = [repair_case(s) for s in sats]
    else:
        # Mirror of the counted model's arrive-or-discard: with repair,
        # a replacement can arrive at a fully-healthy plane (down == 0)
        # and is discarded.  The discard probability is symmetric under
        # satellite permutation, so the exact lumpability is preserved.
        def discard_probability(m) -> float:
            return 1.0 if down_count(m) == 0 else 0.0

        arrival_cases = [repair_case(s) for s in sats] + [
            Case(probability=discard_probability)
        ]

    replacement_arrival = TimedActivity(
        "replacement_arrival",
        Deterministic(config.replacement_latency_hours),
        input_arcs={"pending": 1},
        cases=arrival_cases,
    )

    deploy_spare = InstantaneousActivity(
        "deploy_in_orbit_spare",
        priority=2,
        input_arcs={"spares": 1},
        input_gates=[
            InputGate("slot_open", predicate=lambda m: down_count(m) > 0)
        ],
        cases=[repair_case(s) for s in sats],
    )

    threshold_trigger = InstantaneousActivity(
        "threshold_trigger",
        priority=1,
        input_gates=[
            InputGate(
                "below_threshold",
                predicate=lambda m: (
                    m["spares"] == 0
                    and (full - down_count(m)) + m["pending"] < eta
                ),
            )
        ],
        cases=[Case(output_arcs={"pending": 1})],
    )

    timed = [*failures]
    if policy in ("combined", "scheduled"):
        timed.append(scheduled)
    timed.append(replacement_arrival)
    if config.repair_rate_per_hour is not None:
        timed.append(
            TimedActivity.exponential(
                "repair",
                lambda m: config.repair_rate_per_hour * down_count(m),
                input_gates=[
                    InputGate(
                        "repairable", predicate=lambda m: down_count(m) > 0
                    )
                ],
                cases=[repair_case(s) for s in sats],
            )
        )
    instantaneous = [deploy_spare]
    if policy in ("combined", "threshold"):
        instantaneous.append(threshold_trigger)
    return SANModel(
        places,
        timed_activities=timed,
        instantaneous_activities=instantaneous,
        name="orbital-plane-capacity-expanded",
        exchangeable_groups=[sats],
    )


#: The config field behind every slot rate of both builders' activities,
#: and whether the slot's unit-rate coefficient is divided by it (a mean
#: time: ``stages / phi``, ``1 / latency``) or multiplied (a rate:
#: ``k * lambda``, ``down * rho``).  Dividing, not multiplying by the
#: reciprocal, keeps ``stages / phi`` the bits the builders' own
#: distributions give.  The per-satellite ``failure_i`` reads
#: ``lambda`` like the counted ``failure``.
_ACTIVITY_RATE_FIELDS: Dict[str, Tuple[str, bool]] = {
    "failure": ("failure_rate_per_hour", False),
    "repair": ("repair_rate_per_hour", False),
    "scheduled_deployment": ("scheduled_period_hours", True),
    "replacement_arrival": ("replacement_latency_hours", True),
}

#: The fields a parameter point supplies rates from: every field not
#: tagged ``"structural"``, in declaration order.
_RATE_FIELDS = tuple(
    spec.name
    for spec in fields(CapacityModelConfig)
    if spec.metadata["role"] != "structural"
)


def _rate_field(activity: str) -> Tuple[int, bool]:
    """Index into ``_RATE_FIELDS`` and divide-flag of ``activity``'s
    slots."""
    name, divided = _ACTIVITY_RATE_FIELDS[
        "failure" if activity.startswith("failure_") else activity
    ]
    return _RATE_FIELDS.index(name), divided


def _unit_rate_config(config: CapacityModelConfig) -> CapacityModelConfig:
    """``config`` with every present rate field set to 1 (``lambda =
    phi = latency = 1``, ``rho = 1`` when repair is present): its
    model's slot rates are the coefficients."""
    return replace(
        config,
        **{
            name: 1.0
            for name in _RATE_FIELDS
            if getattr(config, name) is not None
        },
    )


# ----------------------------------------------------------------------
# Memoization layer
# ----------------------------------------------------------------------
# Final P(k) dictionaries are tiny; assembled chains are not, so the
# structure cache is kept small.  Distribution keys are
# (config, stages, variant); assemble keys are capacity_topology_key,
# so every rate point of a sweep shares one structure.
_DISTRIBUTION_CACHE = LRUSolveCache(
    maxsize=256, name="capacity.cache.distribution"
)
_ASSEMBLE_CACHE = LRUSolveCache(maxsize=8, name="capacity.cache.assemble")
_CACHING_ENABLED = True


def capacity_stage_timings() -> Dict[str, float]:
    """Cumulative seconds this process spent in the solver stages:
    ``assemble`` (reachability + array-native unfolding), ``refine``
    (symmetry verification: canonical-orbit reachability of the
    expanded model), ``quotient`` (assembling the reduced chain from
    the verified orbit space), ``rerate`` (slot-rate product + CSR
    build) and ``solve`` (steady-state linear algebra).  ``refine`` and
    ``quotient`` accrue once per lumped topology however many rate
    points are swept on it -- the composition the lumping tests pin.
    A view of the ``san.*_s`` timers in :mod:`repro.obs`."""
    return obs.view(obs.SAN_STAGES)


def capacity_solver_stats() -> Dict[str, int]:
    """Counters of how capacity steady states were obtained.

    ``direct`` / ``iterative`` count solve methods, ``warm_started``
    the solves seeded from a previous point, ``gmres_iterations`` the
    total inner iterations, ``solver_fallbacks`` iterative attempts
    that fell back to direct, and ``structure_fallbacks`` lumped builds
    rejected by symmetry verification (solved unlumped).
    A view of the ``san.solver.*`` counters in :mod:`repro.obs`.
    """
    return obs.view(obs.SAN_SOLVER)


def _note_solution(solution) -> None:
    if solution.method == "gmres":
        obs.count("san.solver.iterative")
    else:
        obs.count("san.solver.direct")
    if solution.warm_started:
        obs.count("san.solver.warm_started")
    obs.count("san.solver.gmres_iterations", solution.iterations)
    if solution.fallback is not None:
        obs.count("san.solver.solver_fallbacks")


def capacity_cache_stats() -> Dict[str, CacheStats]:
    """Hit/miss/eviction counters of the capacity caches.

    ``distribution`` misses count actual steady-state solves, the
    quantity the experiment engine's tests pin down ("a 9-point tau
    sweep performs exactly one capacity solve"); ``assemble`` misses
    count structure builds -- one per distinct topology, however many
    rate points are solved on it.
    """
    return {
        "distribution": _DISTRIBUTION_CACHE.stats(),
        # Always zero; kept because perfbench/single_pass.py reads it.
        "unfold": CacheStats(hits=0, misses=0, evictions=0, size=0, maxsize=0),
        "assemble": _ASSEMBLE_CACHE.stats(),
    }


def clear_capacity_caches(*, reset_stats: bool = False) -> None:
    """Drop all cached solves, including assembled topologies and their
    warm-start state (counters survive unless asked not to; resetting
    also zeroes the ``san.*`` stage timers and solver counters)."""
    _DISTRIBUTION_CACHE.clear(reset_stats=reset_stats)
    _ASSEMBLE_CACHE.clear(reset_stats=reset_stats)
    if reset_stats:
        obs.reset("san.")


def capacity_cache_snapshot():
    """The distribution cache's ``(key, P(k))`` entries -- what the
    parallel sweep runner ships to worker processes so a shared solve
    is not repeated per worker."""
    return _DISTRIBUTION_CACHE.snapshot()


def seed_capacity_cache(entries) -> None:
    """Install precomputed distribution entries (worker-side)."""
    _DISTRIBUTION_CACHE.seed(entries)


@contextmanager
def capacity_caches_disabled() -> Iterator[None]:
    """Temporarily restore solve-per-call behaviour (benchmark
    baselines).  Not safe under concurrent use from other threads."""
    global _CACHING_ENABLED
    previous = _CACHING_ENABLED
    _CACHING_ENABLED = False
    try:
        yield
    finally:
        _CACHING_ENABLED = previous


def _memoized(cache: LRUSolveCache, key, factory):
    if not _CACHING_ENABLED:
        return factory()
    return cache.get_or_compute(key, factory)


# ----------------------------------------------------------------------
# Topology/rate split
# ----------------------------------------------------------------------
def capacity_topology_key(config: CapacityModelConfig, stages: int) -> Tuple:
    """The hashable key under which ``(config, stages)`` shares an
    assembled structure (and its warm-start state) with every other
    rate point on the same topology.

    Derived from the field tags of :class:`CapacityModelConfig`: each
    ``"structural"`` value, ``is not None`` of each ``"presence"``
    field, then ``stages``; ``"rate"`` fields are left out.  The
    campaign orchestrator uses it as an affinity key so cells that
    share a topology execute consecutively on one worker."""
    return tuple(
        getattr(config, spec.name) is not None
        if spec.metadata["role"] == "presence"
        else getattr(config, spec.name)
        for spec in fields(config)
        if spec.metadata["role"] != "rate"
    ) + (stages,)


class _AssembledTopology:
    """One cached topology: the chain assembled from the unit-rate copy
    of its config (so ``chain.rates`` are the slot coefficients), each
    slot's rate field, and the warm-start state threaded between
    successive solves on it."""

    __slots__ = ("chain", "field", "divided", "lock", "warm_start")

    def __init__(self, chain: AssembledChain):
        self.chain = chain
        tags = [_rate_field(slot.activity) for slot in chain.slots]
        self.field = np.array([index for index, _ in tags], dtype=np.intp)
        self.divided = np.array([divided for _, divided in tags], dtype=bool)
        self.lock = threading.Lock()
        self.warm_start: Optional[SteadyStateWarmStart] = None

    def rates(self, config: CapacityModelConfig) -> np.ndarray:
        """The slot rates at ``config``: each coefficient times, or
        divided by, its field's value.  An absent repair rate reads as
        NaN, which no slot of a repair-free topology reads."""
        values = np.array(
            [getattr(config, name) for name in _RATE_FIELDS], dtype=float
        )[self.field]
        coefficients = self.chain.rates
        return np.divide(
            coefficients, values, out=coefficients * values, where=self.divided
        )


def _build_topology(
    config: CapacityModelConfig, stages: int, formulation: str
) -> _AssembledTopology:
    """Assemble the unit-rate copy of ``config``'s chain, uncached, in
    one formulation: ``"counted"`` (:func:`build_capacity_san`),
    ``"exponential"`` (its exponential-timer variant), ``"lumped"``
    (the verified orbit quotient of :func:`build_capacity_san_expanded`)
    or ``"expanded"`` (that model unlumped)."""
    unit = _unit_rate_config(config)
    if formulation == "lumped":
        # Refine once per topology: the canonical-orbit reachability
        # (symmetry verification included) and the quotient assembly
        # are cached with the chain, so a rate sweep pays them once and
        # re-rates per point, exactly like the counted path.
        model = build_capacity_san_expanded(unit)
        with obs.timer("san.refine_s"):
            space = lumped_state_space(model)
        with obs.timer("san.quotient_s"):
            chain = assemble(space, stages=stages)
    else:
        if formulation == "expanded":
            model = build_capacity_san_expanded(unit)
        else:
            model = build_capacity_san(
                unit, exponential_timers=formulation == "exponential"
            )
        with obs.timer("san.assemble_s"):
            chain = assemble(generate(model), stages=stages)
    return _AssembledTopology(chain)


def _topology(
    config: CapacityModelConfig, stages: int, formulation: str = "counted"
) -> _AssembledTopology:
    # The counted key carries no formulation tag: it is also the
    # campaign affinity label, which journal fingerprints digest.
    key = capacity_topology_key(config, stages)
    if formulation != "counted":
        key = (formulation,) + key
    return _memoized(
        _ASSEMBLE_CACHE,
        key,
        lambda: _build_topology(config, stages, formulation),
    )


def assemble_capacity_topology(
    config: CapacityModelConfig, *, stages: int = 24
) -> AssembledChain:
    """The re-ratable assembled chain for ``config``'s topology.

    Cached on :func:`capacity_topology_key`; sweeps varying a rate
    reuse one structure: the first point assembles it, later points
    re-rate it.  The chain is assembled from the unit-rate copy of
    ``config``, so its ``rates`` are the slot coefficients, not
    ``config``'s rates."""
    return _topology(config, stages).chain


def _capacity_of(chain: AssembledChain, pi) -> Dict[int, float]:
    """``P(k)`` from a distribution ``pi`` over ``chain``'s states:
    ``k`` counts the tokens of the counted model's ``active`` place or
    of the expanded model's ``sat_i`` places."""
    positions = [
        position
        for position, name in enumerate(chain.space.model.place_index.names)
        if name == "active" or name.startswith("sat_")
    ]
    result: Dict[int, float] = {}
    marginals = chain.marking_marginals(pi).tolist()
    for marking, probability in zip(chain.space.markings, marginals):
        k = sum(marking[p] for p in positions)
        result[k] = result.get(k, 0.0) + probability
    return {k: result[k] for k in sorted(result)}


def _solve_pk(
    entry: _AssembledTopology, config: CapacityModelConfig
) -> Dict[int, float]:
    """Re-rate ``entry``'s chain to ``config``, solve (warm-started) and
    project onto ``P(k)``."""
    with obs.timer("san.rerate_s"):
        ctmc = entry.chain.rerate(entry.rates(config))
    with obs.timer("san.solve_s"):
        if _CACHING_ENABLED:
            with entry.lock:
                solution = ctmc.steady_state_solve(entry.warm_start)
                entry.warm_start = solution.warm_start
        else:
            # The solve-per-call baseline: always the direct factorisation.
            solution = SteadyStateSolution(ctmc.steady_state(), "direct")
        _note_solution(solution)
    return _capacity_of(entry.chain, solution.pi)


def capacity_distribution(
    config: CapacityModelConfig, *, stages: int = 24
) -> Dict[int, float]:
    """Steady-state ``P(k)`` by phase-type unfolding of the SAN.

    ``stages`` controls the Erlang approximation of the two
    deterministic timers; 24 keeps the error well under simulation
    noise for the paper's parameter ranges (see the ablation
    benchmark).

    Memoized on ``(config, stages)``: repeated calls return the cached
    distribution without re-running the SAN pipeline.  Distinct configs
    sharing a topology (rate sweeps) share one assembled structure and
    only re-rate (one product of the topology's slot coefficients and
    ``config``'s rate fields) + solve per point; successive solves on a
    topology warm-start from the previous stationary vector
    (:meth:`repro.san.ctmc.CTMC.steady_state_solve`).
    """

    def solve() -> Dict[int, float]:
        return _solve_pk(_topology(config, stages), config)

    result = _memoized(_DISTRIBUTION_CACHE, (config, stages, "erlang"), solve)
    return dict(result)


# ----------------------------------------------------------------------
# Expanded (per-satellite) model: the lumping showcase
# ----------------------------------------------------------------------
def capacity_distribution_expanded(
    config: CapacityModelConfig, *, stages: int = 24, lump: bool = True
) -> Dict[int, float]:
    """Steady-state ``P(k)`` of the per-satellite expanded plane model
    (:func:`build_capacity_san_expanded`).

    With ``lump`` (the default) the chain is built on the verified
    orbit quotient (:func:`repro.san.lumping.lumped_state_space`):
    state count collapses from :math:`O(2^{\\text{satellites}})` to the
    counted model's handful, which is what makes scaled constellations
    (:mod:`repro.experiments.scaled_capacity_exp`) solvable at all.
    A lumped build that symmetry verification rejects (a
    :class:`ModelError`: a non-lumpable model variant, a broken
    symmetry) falls back to the unlumped expanded chain (counted in
    ``structure_fallbacks``).

    Memoized and topology-split like :func:`capacity_distribution`:
    rate sweeps refine/assemble once per topology, re-rate per point
    and warm-start successive solves.
    """

    def solve() -> Dict[int, float]:
        if lump:
            try:
                entry = _topology(config, stages, "lumped")
            except ModelError:
                obs.count("san.solver.structure_fallbacks")
            else:
                return _solve_pk(entry, config)
        return _solve_pk(_topology(config, stages, "expanded"), config)

    variant = "expanded-lumped" if lump else "expanded-full"
    result = _memoized(_DISTRIBUTION_CACHE, (config, stages, variant), solve)
    return dict(result)


def expanded_capacity_summary(
    config: CapacityModelConfig, *, stages: int = 24
) -> Dict[str, object]:
    """Size accounting of the lumped expanded topology: how many orbit
    representatives stand for how many tangible markings, and the
    unfolded quotient's dimensions.  Builds (and caches) the lumped
    topology as a side effect."""
    chain = _topology(config, stages, "lumped").chain
    space = chain.space
    assert isinstance(space, LumpedStateSpace)
    return {
        "orbit_representatives": len(space),
        "full_tangible_markings": space.full_state_count,
        "marking_reduction": space.full_state_count / len(space),
        "quotient_states": chain.num_states,
        "quotient_transitions": chain.num_transitions,
    }


def capacity_cross_check(
    config: CapacityModelConfig,
    *,
    stages: int = 24,
    include_unlumped: bool = False,
) -> Dict[str, object]:
    """Cross-solver agreement report for one capacity configuration.

    Solves ``P(k)`` through the counted chain
    (:func:`capacity_distribution`) and the symmetry-lumped expanded
    chain (:func:`capacity_distribution_expanded`), optionally also the
    *unlumped* expanded chain (exponential state space -- only feasible
    for small ``full_capacity``), and reports the maximum pointwise
    deltas.  The scenario-corpus conformance harness
    (:mod:`repro.scenarios.runner`) scores these deltas per cell."""
    counted = capacity_distribution(config, stages=stages)
    lumped = capacity_distribution_expanded(config, stages=stages, lump=True)
    ks = sorted(set(counted) | set(lumped))
    report: Dict[str, object] = {
        "counted": counted,
        "lumped": lumped,
        "lumped_vs_counted_delta": max(
            abs(counted.get(k, 0.0) - lumped.get(k, 0.0)) for k in ks
        ),
    }
    if include_unlumped:
        unlumped = capacity_distribution_expanded(
            config, stages=stages, lump=False
        )
        ks = sorted(set(lumped) | set(unlumped))
        report["unlumped"] = unlumped
        report["lumped_vs_unlumped_delta"] = max(
            abs(lumped.get(k, 0.0) - unlumped.get(k, 0.0)) for k in ks
        )
    return report


def capacity_distribution_exponential(
    config: CapacityModelConfig,
) -> Dict[int, float]:
    """Steady-state ``P(k)`` with all timers exponentialised (ablation
    baseline: what you get without deterministic-activity support).
    Memoized like :func:`capacity_distribution`, and re-rated the same
    way from a unit-rate assembly (uncached: one direct solve)."""

    def solve() -> Dict[int, float]:
        entry = _build_topology(config, 1, "exponential")
        return _capacity_of(
            entry.chain, entry.chain.rerate(entry.rates(config)).steady_state()
        )

    result = _memoized(
        _DISTRIBUTION_CACHE, (config, None, "exponential"), solve
    )
    return dict(result)


#: Uniformisation truncation tolerance for transient solves.  Tight
#: enough that the incremental (advance-from-previous-point) and
#: from-scratch evaluation orders agree to well below 1e-12 even after
#: accumulating truncation error across many time points.
_TRANSIENT_TOLERANCE = 1e-14


def capacity_transient(
    config: CapacityModelConfig,
    times,
    *,
    stages: int = 16,
    incremental: bool = True,
) -> "Dict[float, Dict[int, float]]":
    """Time-dependent capacity distribution ``P(k at t)`` (hours),
    starting from a freshly deployed plane (14 active + 2 spares).

    An extension beyond the paper's steady-state evaluation (PASTA
    justified steady state there): useful for questions like "how
    degraded is the constellation likely to be halfway through a
    scheduled-deployment period?".  Solved by uniformisation on the
    cached assembled topology of :func:`capacity_distribution`,
    re-rated to ``config`` (evaluating more time points, or another
    rate point, later reuses the structural work).

    With ``incremental`` (the default) the time points are evaluated in
    sorted order and each solve advances the state vector from the
    previous point over ``t - t_prev`` instead of restarting the
    Poisson sum from ``t = 0`` -- the total uniformisation work is one
    pass over ``max(times)`` rather than ``sum(times)``.  The Markov
    property makes the two orders mathematically identical; the shared
    truncation tolerance keeps them numerically identical to well
    below 1e-12.
    """
    entry = _topology(config, stages)
    with obs.timer("san.rerate_s"):
        ctmc = entry.chain.rerate(entry.rates(config))
    unique_times = sorted({float(t) for t in times})
    by_time: Dict[float, Dict[int, float]] = {}
    if incremental:
        previous_time = 0.0
        vector = None
        for t in unique_times:
            vector = ctmc.transient(
                t - previous_time,
                initial=vector,
                tolerance=_TRANSIENT_TOLERANCE,
            )
            previous_time = t
            by_time[t] = _capacity_of(entry.chain, vector)
    else:
        for t in unique_times:
            by_time[t] = _capacity_of(
                entry.chain, ctmc.transient(t, tolerance=_TRANSIENT_TOLERANCE)
            )
    # Preserve the caller's key set / iteration order (duplicates
    # collapse onto the same float key exactly as before).
    return {float(t): by_time[float(t)] for t in times}

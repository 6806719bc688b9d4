"""Phase-type unfolding of a SAN into an array-native, re-ratable chain.

The paper's capacity model relies on UltraSAN's support for
**deterministic activity times** (the scheduled-deployment period
``phi`` and the launch delay).  We solve such models numerically by
replacing each deterministic delay ``d`` with an Erlang distribution of
``n`` stages and rate ``n/d`` -- same mean, squared coefficient of
variation ``1/n`` -- and expanding the state space with per-activity
stage counters.  As ``n`` grows the unfolded chain converges to the
Markov-regenerative behaviour of the deterministic model; the plane
DES (:mod:`repro.simulation.plane_process`), which handles
deterministic delays exactly, is the cross-check.  Unfolding semantics match the
engine's execution rules: an activity keeps its accumulated stages
while it remains enabled across other completions (preemptive-resume)
and loses them when it becomes disabled (preemptive-restart).

This module is also the *structure phase* of the topology/rate split.  The
expensive part of solving a SAN at many parameter points is not the
linear algebra -- it is rebuilding the Python object graph (tangible
reachability BFS + Erlang unfolding) for every point even when only the
*rates* change.  :func:`assemble` runs the unfolding BFS once per
topology and emits an :class:`AssembledChain`:

* augmented states encoded as integers
  ``marking_index * stage_span + sum(stage_a * stride_a)`` (a
  mixed-radix code over the global stage capacities of the general
  activities);
* transitions as flat ``(source, target, slot, weight)`` COO-style
  arrays, where ``slot`` indexes a small per-topology table of
  :class:`RateSlot` records -- one per ``(tangible marking, activity)``
  pair -- and ``weight`` carries the structural case / stabilisation
  probability.

``assemble`` also evaluates every slot's rate once, from the state
space's own model, into :attr:`AssembledChain.rates`.  The *rate
phase* is then :meth:`AssembledChain.rerate`: given one rate per slot
-- the assembled rates, or any other vector the caller computes for a
topology-identical parameter point -- it sums ``rates[slot] * weight``
into the chain's CSR pattern, computed once per topology (sorted
unique off-diagonal ``(source, target)`` pairs and each transition's
position among them), with one ``np.bincount``.  Re-rating a
10k-state chain costs about a millisecond of numpy instead of a fresh
BFS and a sort.  The chain walks no model to re-rate: which rate
vectors describe the same topology is the caller's knowledge (the
capacity layer scales unit-rate coefficients by its config's rate
fields, see :mod:`repro.analytic.capacity`).

A solve is ``assemble`` -> ``rerate(rates)`` -> ``steady_state`` (or
``transient``) -> :meth:`AssembledChain.marking_marginals`, which
aggregates the stage-augmented distribution back onto the tangible
markings.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
)
from repro.errors import ModelError, StateSpaceExplosionError
from repro.san.ctmc import CTMC, _state_indices
from repro.san.model import TimedActivity
from repro.san.reachability import StateSpace

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["RateSlot", "AssembledChain", "assemble"]

@dataclass(frozen=True)
class RateSlot:
    """One rateable ``(tangible marking, activity)`` pair.

    ``kind`` is ``"exponential"`` for markovian activities and
    ``"phase"`` for unfolded general (Deterministic/Erlang) ones;
    ``stages`` is 1 for exponential slots and the Erlang stage count
    otherwise.  ``case_probabilities`` snapshots the activity's case
    distribution in the marking (structural: folded into the
    transition weights).
    """

    marking_index: int
    activity: str
    kind: str
    stages: int
    case_probabilities: Tuple[float, ...]


def _phase(
    activity: str, distribution: Distribution, stages: int
) -> Tuple[int, float]:
    """Erlang stage count and per-stage rate of one general activity:
    ``stages`` stages at ``stages / d`` for a Deterministic delay
    ``d``, an explicit Erlang's own shape and rate."""
    if isinstance(distribution, Deterministic):
        if distribution.value <= 0:
            raise ModelError(
                f"activity {activity!r} has zero deterministic "
                "delay; model it as instantaneous instead"
            )
        return stages, stages / distribution.value
    if isinstance(distribution, Erlang):
        return distribution.shape, distribution.rate
    if isinstance(distribution, Exponential):  # pragma: no cover - defensive
        raise ModelError(
            f"activity {activity!r} is exponential; it should "
            "appear among the markovian transitions"
        )
    raise ModelError(
        f"activity {activity!r} has unsupported distribution "
        f"{distribution!r}; phase-type unfolding handles Deterministic and "
        "Erlang activities"
    )


def _checked_rates(rates, slots: Sequence[RateSlot]) -> np.ndarray:
    """``rates`` as a float array of one rate per slot, each finite and
    >= 0 (NaN fails both comparisons, so it is caught with +-inf)."""
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (len(slots),):
        raise ModelError(
            f"rate vector has shape {rates.shape}, expected ({len(slots)},)"
        )
    invalid = np.flatnonzero(~(np.isfinite(rates) & (rates >= 0.0)))
    if invalid.size:
        slot = slots[int(invalid[0])]
        raise ModelError(
            f"activity {slot.activity!r} has rate {rates[invalid[0]]} in "
            f"marking {slot.marking_index}; rates must be finite and >= 0"
        )
    return rates


class _CSRPattern:
    """The CSR sparsity pattern of an assembled chain's rate matrix.

    Built once per topology: the sorted unique off-diagonal ``(source,
    target)`` pairs as ``indptr``/``indices`` and, for every
    off-diagonal transition, its ``position`` in that pattern.  The
    endpoints and weights are checked here, once; self-loops are left
    out, as :meth:`CTMC.from_arrays` drops them.
    """

    def __init__(
        self,
        num_states: int,
        source: np.ndarray,
        target: np.ndarray,
        slot: np.ndarray,
        weight: np.ndarray,
    ):
        # The first scipy import of a process costs ~0.1 s; taking it
        # here, while the topology is assembled, keeps it out of the
        # first re-rate's ``san.rerate_s``.
        from scipy import sparse  # noqa: F401

        source, target = _state_indices(num_states, source, target)
        invalid = np.flatnonzero(~(np.isfinite(weight) & (weight >= 0.0)))
        if invalid.size:
            i = invalid[0]
            raise ModelError(
                f"weight {weight[i]} on transition {source[i]}->{target[i]} "
                "must be finite and >= 0"
            )
        off_diagonal = source != target
        pairs, self.position = np.unique(
            source[off_diagonal] * num_states + target[off_diagonal],
            return_inverse=True,
        )
        index_type = np.int32 if max(num_states, pairs.size) < 2**31 else np.int64
        self.indices = (pairs % num_states).astype(index_type)
        self.indptr = np.zeros(num_states + 1, dtype=index_type)
        np.cumsum(
            np.bincount(pairs // num_states, minlength=num_states),
            out=self.indptr[1:],
        )
        self.slot = slot[off_diagonal]
        self.weight = weight[off_diagonal]
        self.num_states = num_states

    def rate_matrix(self, rates: np.ndarray) -> sparse.csr_matrix:
        """The canonical CSR rate matrix at ``rates`` (one rate per
        slot, finite and >= 0), without explicit zeros."""
        from scipy import sparse

        data = np.bincount(
            self.position,
            weights=rates[self.slot] * self.weight,
            minlength=self.indices.size,
        )
        shape = (self.num_states, self.num_states)
        if data.all():
            matrix = sparse.csr_matrix(
                (data, self.indices, self.indptr), shape=shape, copy=False
            )
            matrix.has_canonical_format = True
            return matrix
        # Zero-rate pairs leave the pattern, so no consumer sees an
        # edge without rate; the shared index arrays stay untouched.
        matrix = sparse.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=shape
        )
        matrix.eliminate_zeros()
        return matrix


class AssembledChain:
    """The re-ratable, array-native form of an unfolded SAN.

    Built by :func:`assemble`; pure array data, plus the state space it
    was unfolded from.  ``rates`` holds the slot rates of that state
    space's own model.
    """

    def __init__(
        self,
        *,
        space: StateSpace,
        stages: int,
        general_names: Tuple[str, ...],
        stage_capacities: Tuple[int, ...],
        stage_strides: Tuple[int, ...],
        stage_span: int,
        codes: np.ndarray,
        marking_of_state: np.ndarray,
        transition_source: np.ndarray,
        transition_target: np.ndarray,
        transition_slot: np.ndarray,
        transition_weight: np.ndarray,
        slots: Tuple[RateSlot, ...],
        rates: np.ndarray,
        initial_distribution: Tuple[Tuple[float, int], ...],
    ):
        self.space = space
        self.stages = stages
        #: Sorted names of the general (phase-unfolded) activities.
        self.general_names = general_names
        #: Mixed-radix digit capacity per general activity (max stages).
        self.stage_capacities = stage_capacities
        self.stage_strides = stage_strides
        self.stage_span = stage_span
        #: Integer code of each augmented state, in discovery order.
        self.codes = codes
        #: Tangible-marking index of each augmented state (codes // span).
        self.marking_of_state = marking_of_state
        self.transition_source = transition_source
        self.transition_target = transition_target
        self.transition_slot = transition_slot
        self.transition_weight = transition_weight
        self.slots = slots
        #: One rate per slot, evaluated from ``space.model`` at assembly.
        self.rates = rates
        self.initial_distribution = initial_distribution
        self._pattern = _CSRPattern(
            self.num_states,
            transition_source,
            transition_target,
            transition_slot,
            transition_weight,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return int(self.codes.shape[0])

    @property
    def num_transitions(self) -> int:
        return int(self.transition_source.shape[0])

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        return (
            f"AssembledChain({self.space.model.name}: {self.num_states} "
            f"states, {self.num_transitions} transitions, "
            f"{len(self.slots)} rate slots, stages={self.stages})"
        )

    # ------------------------------------------------------------------
    # Rate phase
    # ------------------------------------------------------------------
    def rerate(self, rates) -> CTMC:
        """The CTMC at ``rates`` (one finite, non-negative rate per
        slot; ``self.rates`` for the assembled model's own point): one
        ``bincount`` into the chain's CSR pattern, the rate matrix
        :meth:`CTMC.from_arrays` builds from the transition arrays."""
        return CTMC._from_rate_matrix(
            self._pattern.rate_matrix(_checked_rates(rates, self.slots)),
            self.initial_distribution,
        )

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def marking_marginals(self, pi: np.ndarray) -> np.ndarray:
        """Marginalise a distribution over augmented states onto the
        tangible markings (length ``len(self.space)`` array)."""
        return np.bincount(
            self.marking_of_state,
            weights=np.asarray(pi, dtype=float),
            minlength=len(self.space),
        )


def assemble(
    space: StateSpace,
    *,
    stages: int = 24,
    max_states: int = 2_000_000,
) -> AssembledChain:
    """Unfold ``space`` into an array-native, re-ratable chain.

    A FIFO breadth-first search over integer state codes, which factors
    every transition rate into ``rates[slot] * weight`` so the chain can
    be re-rated without regeneration; every slot's rate is evaluated
    once from ``space.model`` (finite and >= 0, else
    :class:`~repro.errors.ModelError`).  ``space`` may mix exponential
    and general transitions; ``stages`` is the Erlang stage count used
    for Deterministic activities (explicit Erlangs keep their own shape,
    other distributions raise :class:`~repro.errors.ModelError`).
    """
    # numbers.Integral admits numpy ints; bool is Integral too but never
    # a stage count.
    if (
        isinstance(stages, bool)
        or not isinstance(stages, numbers.Integral)
        or stages < 1
    ):
        raise ModelError(f"stages must be an integer >= 1, got {stages!r}")

    model = space.model
    activities: Dict[str, TimedActivity] = {
        a.name: a for a in model.timed_activities
    }

    general_by_source = space.general_by_source()
    # Stage count, per-stage rate and structural targets per (source
    # marking, activity).
    spec_stages: Dict[Tuple[int, str], int] = {}
    spec_rates: Dict[Tuple[int, str], float] = {}
    spec_targets: Dict[Tuple[int, str], Tuple[Tuple[float, int], ...]] = {}
    for source, transitions in general_by_source.items():
        for transition in transitions:
            key = (source, transition.activity)
            spec_stages[key], spec_rates[key] = _phase(
                transition.activity, transition.distribution, stages
            )
            spec_targets[key] = transition.targets

    markovian_by_source: Dict[int, List] = {}
    for transition in space.markovian:
        markovian_by_source.setdefault(transition.source, []).append(transition)

    # Mixed-radix layout: one digit per general activity, capacity = the
    # activity's largest stage count over all source markings.
    general_names = tuple(sorted({t.activity for t in space.general}))
    positions = {name: i for i, name in enumerate(general_names)}
    capacities = [1] * len(general_names)
    for (_, name), count in spec_stages.items():
        capacities[positions[name]] = max(capacities[positions[name]], count)
    strides = [1] * len(general_names)
    for i in range(1, len(general_names)):
        strides[i] = strides[i - 1] * capacities[i - 1]
    stage_span = strides[-1] * capacities[-1] if general_names else 1

    enabled_general: List[Tuple[str, ...]] = [
        tuple(sorted(t.activity for t in general_by_source.get(m, ())))
        for m in range(len(space))
    ]

    # Rate slots, in deterministic first-use order (markovian
    # transitions first, then general), with their rates.
    slot_index: Dict[Tuple[int, str], int] = {}
    slots: List[RateSlot] = []
    rates: List[float] = []

    def slot_for(marking_index: int, name: str, kind: str) -> None:
        key = (marking_index, name)
        if key in slot_index:
            return
        view = model.view(space.markings[marking_index])
        if kind == "exponential":
            count, rate = 1, activities[name].distribution_at(view).rate
        else:
            count, rate = spec_stages[key], spec_rates[key]
        slot_index[key] = len(slots)
        slots.append(
            RateSlot(
                marking_index=marking_index,
                activity=name,
                kind=kind,
                stages=count,
                case_probabilities=tuple(
                    activities[name].case_probabilities_at(view)
                ),
            )
        )
        rates.append(rate)

    for transition in space.markovian:
        slot_for(transition.source, transition.activity, "exponential")
    for transition in space.general:
        slot_for(transition.source, transition.activity, "phase")
    rates_array = _checked_rates(rates, slots)

    # Integer-coded BFS.  States are processed in discovery order (a
    # FIFO frontier), so state numbering is deterministic.
    code_index: Dict[int, int] = {}
    codes: List[int] = []

    def intern(code: int) -> int:
        state = code_index.get(code)
        if state is None:
            if len(codes) >= max_states:
                raise StateSpaceExplosionError(
                    max_states,
                    marking=space.marking_dict(code // stage_span),
                )
            state = len(codes)
            code_index[code] = state
            codes.append(code)
        return state

    initial_distribution: List[Tuple[float, int]] = []
    for probability, marking_index in space.initial_distribution:
        initial_distribution.append(
            (probability, intern(marking_index * stage_span))
        )

    source_list: List[int] = []
    target_list: List[int] = []
    slot_list: List[int] = []
    weight_list: List[float] = []

    def emit(
        source_state: int, target_code: int, slot: int, weight: float
    ) -> None:
        source_list.append(source_state)
        target_list.append(intern(target_code))
        slot_list.append(slot)
        weight_list.append(weight)

    state = 0
    while state < len(codes):
        code = codes[state]
        marking_index, remainder = divmod(code, stage_span)
        enabled = enabled_general[marking_index]
        # Current stage of every running general activity.
        running = {
            name: (remainder // strides[positions[name]])
            % capacities[positions[name]]
            for name in enabled
        }

        def target_code_for(target_marking: int, carried: Dict[str, int]) -> int:
            # Stages enabled in the target marking: kept if previously
            # running (preemptive-resume), zero if newly enabled
            # (preemptive-restart); stages of disabled activities drop.
            base = target_marking * stage_span
            for name in enabled_general[target_marking]:
                stage = carried.get(name, 0)
                if stage:
                    base += stage * strides[positions[name]]
            return base

        # Exponential completions carry the running stages over.
        for transition in markovian_by_source.get(marking_index, ()):
            emit(
                state,
                target_code_for(transition.target, running),
                slot_index[(marking_index, transition.activity)],
                transition.probability,
            )

        # Stage advances / completions of each running general activity.
        for name in enabled:
            stage = running[name]
            key = (marking_index, name)
            slot = slot_index[key]
            if stage < spec_stages[key] - 1:
                advanced = dict(running)
                advanced[name] = stage + 1
                emit(state, target_code_for(marking_index, advanced), slot, 1.0)
            else:
                carried = {k: v for k, v in running.items() if k != name}
                for probability, target_marking in spec_targets[key]:
                    if probability == 0.0:
                        continue
                    emit(
                        state,
                        target_code_for(target_marking, carried),
                        slot,
                        probability,
                    )
        state += 1

    codes_array = np.asarray(codes, dtype=np.int64)
    return AssembledChain(
        space=space,
        stages=stages,
        general_names=general_names,
        stage_capacities=tuple(capacities),
        stage_strides=tuple(strides),
        stage_span=stage_span,
        codes=codes_array,
        marking_of_state=(codes_array // stage_span).astype(np.int64),
        transition_source=np.asarray(source_list, dtype=np.int64),
        transition_target=np.asarray(target_list, dtype=np.int64),
        transition_slot=np.asarray(slot_list, dtype=np.int64),
        transition_weight=np.asarray(weight_list, dtype=float),
        slots=tuple(slots),
        rates=rates_array,
        initial_distribution=tuple(initial_distribution),
    )

"""Tangible reachability-graph generation for SAN models.

A marking is *tangible* when no instantaneous activity is enabled in
it, and *vanishing* otherwise.  Generation starts from the initial
marking, eliminates vanishing markings on the fly (following
instantaneous completions, branching over their cases), and explores
every timed-activity completion from each tangible marking.

The result is a :class:`StateSpace` whose transitions are split into

* ``markovian`` -- completions of exponential activities, stored as
  ``(source, activity, rate, target)`` with the rate already weighted
  by case and stabilisation probabilities; and
* ``general`` -- completions of non-exponential activities
  (deterministic, Erlang, ...), stored with their distribution and the
  probability-weighted target list, for consumption by the phase-type
  unfolding (:mod:`repro.san.assembled`).

One breadth-first search (``_explore``) walks every model: plain
generation interns each tangible marking, and the symmetry-lumped
quotient (:func:`repro.san.lumping.lumped_state_space`) runs the same
search over canonical orbit representatives, with its symmetry check
at every explored representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.distributions import Distribution, Exponential
from repro.errors import ModelError, StateSpaceExplosionError
from repro.san.marking import Marking, PlaceIndex
from repro.san.model import InstantaneousActivity, SANModel, TimedActivity

__all__ = ["MarkovianTransition", "GeneralTransition", "StateSpace", "generate"]

#: Safety bound on chained instantaneous completions from one marking.
_MAX_STABILISATION_DEPTH = 1000


@dataclass(frozen=True)
class MarkovianTransition:
    """An exponential completion: ``source -> target`` at ``rate``.

    ``rate`` folds the activity's base exponential rate with
    ``probability`` -- the combined case / vanishing-elimination weight
    of reaching ``target``.  The probability is kept separately so the
    topology/rate split (:mod:`repro.san.assembled`) can re-rate the
    transition from a new base rate without regenerating the graph.
    """

    source: int
    activity: str
    rate: float
    target: int
    probability: float = 1.0


@dataclass(frozen=True)
class GeneralTransition:
    """A non-exponential completion from ``source``.

    ``targets`` lists ``(probability, target_state)`` pairs combining
    case probabilities and vanishing-marking elimination.
    """

    source: int
    activity: str
    distribution: Distribution
    targets: Tuple[Tuple[float, int], ...]


class StateSpace:
    """The tangible reachability graph of a SAN."""

    def __init__(
        self,
        model: SANModel,
        markings: List[Marking],
        initial_distribution: List[Tuple[float, int]],
        markovian: List[MarkovianTransition],
        general: List[GeneralTransition],
    ):
        self.model = model
        self.markings = markings
        self.index: Dict[Marking, int] = {m: i for i, m in enumerate(markings)}
        self.initial_distribution = initial_distribution
        self.markovian = markovian
        self.general = general

    def __len__(self) -> int:
        return len(self.markings)

    def marking_dict(self, state: int) -> Dict[str, int]:
        """Name-keyed marking of ``state``."""
        return self.model.marking_dict(self.markings[state])

    def general_by_source(self) -> Dict[int, List[GeneralTransition]]:
        """General transitions grouped by source state."""
        grouped: Dict[int, List[GeneralTransition]] = {}
        for transition in self.general:
            grouped.setdefault(transition.source, []).append(transition)
        return grouped

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        return (
            f"StateSpace({self.model.name}: {len(self.markings)} tangible "
            f"markings, {len(self.markovian)} markovian + "
            f"{len(self.general)} general transitions)"
        )


def _fire(
    activity: Union[TimedActivity, InstantaneousActivity],
    places: PlaceIndex,
    marking: Marking,
    case_index: int,
) -> Marking:
    """``activity.fire``, with a bad gate or arc write (a place driven
    negative, say) reported against the activity and case that made
    it."""
    try:
        return activity.fire(places, marking, case_index)
    except ModelError as error:
        raise ModelError(
            f"activity {activity.name!r} case {case_index}: {error}"
        ) from error


def _stabilise(model: SANModel, marking: Marking) -> List[Tuple[float, Marking]]:
    """Eliminate vanishing markings reachable from ``marking``.

    Returns the probability distribution over tangible markings reached
    by exhaustively firing enabled instantaneous activities (highest
    priority first).  Equal-priority conflicts and instantaneous cycles
    are modelling errors.
    """
    results: Dict[Marking, float] = {}
    # Work list of (probability, marking, depth).
    stack: List[Tuple[float, Marking, int]] = [(1.0, marking, 0)]
    while stack:
        prob, current, depth = stack.pop()
        if depth > _MAX_STABILISATION_DEPTH:
            raise ModelError(
                f"model {model.name!r}: more than {_MAX_STABILISATION_DEPTH} "
                "chained instantaneous completions -- instantaneous cycle?"
            )
        view = model.view(current)
        enabled = model.enabled_instantaneous(view)
        if not enabled:
            results[current] = results.get(current, 0.0) + prob
            continue
        top = max(a.priority for a in enabled)
        candidates = [a for a in enabled if a.priority == top]
        if len(candidates) > 1:
            names = sorted(a.name for a in candidates)
            raise ModelError(
                f"model {model.name!r}: instantaneous activities {names} are "
                "simultaneously enabled at equal priority; assign priorities "
                "to make the choice deterministic"
            )
        activity = candidates[0]
        case_probs = activity.case_probabilities_at(view)
        for case_index, case_prob in enumerate(case_probs):
            if case_prob == 0.0:
                continue
            successor = _fire(activity, model.place_index, current, case_index)
            stack.append((prob * case_prob, successor, depth + 1))
    return [(p, m) for m, p in results.items()]


#: One tangible marking's outcome pass: per enabled timed activity, in
#: firing order, the activity, its distribution there and its
#: stabilised ``{target marking: probability}`` outcomes.
_Outcomes = List[Tuple[TimedActivity, Distribution, Dict[Marking, float]]]

#: The orbit representative of a tangible marking (see
#: :mod:`repro.san.lumping`), or ``None`` to keep every marking.
_Canonical = Optional[Callable[[Marking], Marking]]


def _outcomes(model: SANModel, marking: Marking, canonical: _Canonical) -> _Outcomes:
    """Fire every enabled timed activity of a tangible marking once,
    stabilise each case and map the tangible results through
    ``canonical`` (when given)."""
    places = model.place_index
    view = model.view(marking)
    entries: _Outcomes = []
    for activity in model.enabled_timed(view):
        distribution = activity.distribution_at(view)
        case_probs = activity.case_probabilities_at(view)
        targets: Dict[Marking, float] = {}
        for case_index, case_prob in enumerate(case_probs):
            if case_prob == 0.0:
                continue
            fired = _fire(activity, places, marking, case_index)
            for stab_prob, tangible in _stabilise(model, fired):
                if canonical is not None:
                    tangible = canonical(tangible)
                targets[tangible] = targets.get(tangible, 0.0) + case_prob * stab_prob
        entries.append((activity, distribution, targets))
    return entries


def _explore(
    model: SANModel,
    *,
    max_states: int,
    canonical: _Canonical = None,
    check: Optional[Callable[[Marking, _Outcomes], None]] = None,
) -> Tuple[
    List[Marking],
    List[Tuple[float, int]],
    List[MarkovianTransition],
    List[GeneralTransition],
]:
    """The one tangible-reachability search behind :func:`generate` and
    :func:`repro.san.lumping.lumped_state_space`.

    Breadth-first from the stabilised initial marking: every tangible
    marking (its ``canonical`` form, when given) is interned on first
    sight and explored in interning order, with one outcome pass that
    ``check`` (when given) inspects before the marking's transitions
    are emitted.  Targets are interned in firing order and emitted in
    state order; targets that coincide (after ``canonical``) merge with
    summed probabilities.  Returns the markings, the initial
    distribution and the markovian and general transitions.
    """
    markings: List[Marking] = []
    index: Dict[Marking, int] = {}

    def intern(marking: Marking) -> int:
        state = index.get(marking)
        if state is None:
            if len(markings) >= max_states:
                raise StateSpaceExplosionError(
                    max_states, marking=model.marking_dict(marking)
                )
            state = len(markings)
            index[marking] = state
            markings.append(marking)
        return state

    initial: Dict[int, float] = {}
    for probability, marking in _stabilise(model, model.initial_marking()):
        if canonical is not None:
            marking = canonical(marking)
        state = intern(marking)
        initial[state] = initial.get(state, 0.0) + probability
    initial_distribution = [(p, s) for s, p in sorted(initial.items())]

    markovian: List[MarkovianTransition] = []
    general: List[GeneralTransition] = []
    state = 0
    while state < len(markings):
        marking = markings[state]
        entries = _outcomes(model, marking, canonical)
        if check is not None:
            check(marking, entries)
        for activity, distribution, targets in entries:
            transitions = sorted(
                [(intern(target), prob) for target, prob in targets.items()]
            )
            if isinstance(distribution, Exponential):
                for target, prob in transitions:
                    markovian.append(
                        MarkovianTransition(
                            source=state,
                            activity=activity.name,
                            rate=distribution.rate * prob,
                            target=target,
                            probability=prob,
                        )
                    )
            else:
                general.append(
                    GeneralTransition(
                        source=state,
                        activity=activity.name,
                        distribution=distribution,
                        targets=tuple(
                            (prob, target) for target, prob in transitions
                        ),
                    )
                )
        state += 1
    return markings, initial_distribution, markovian, general


def generate(model: SANModel, *, max_states: int = 200_000) -> StateSpace:
    """Generate the tangible reachability graph of ``model``.

    Raises :class:`StateSpaceExplosionError` when more than
    ``max_states`` tangible markings are found.
    """
    return StateSpace(model, *_explore(model, max_states=max_states))

"""Exact symmetry lumping of SAN state spaces.

The paper's capacity model is a pool of *interchangeable* satellites:
permuting the identities of two satellites in the same role produces a
marking with identical stochastic behaviour.  Exact Markov-chain
lumping collapses such permutation orbits before the linear solve --
the classic trick that makes large-constellation CTMC analyses
tractable (Buchholz 1994; Derisavi et al. 2003) -- without changing a
single probability.  UltraSAN reaches the same quotient by
construction, through its Rep/Join reduced base model (Sanders &
Meyer, IEEE JSAC 9(1), 1991).

:func:`lumped_state_space` lumps symbolically at reachability time.
It runs the one tangible-reachability search of
:mod:`repro.san.reachability` over **canonical representatives** of
the orbits induced by the model's declared
:attr:`~repro.san.model.SANModel.exchangeable_groups`, so the quotient
is built without ever materialising the full state space -- the only
route at scales where the full space is astronomically large (a
56-satellite plane has :math:`2^{56}`-ish markings; its quotient has a
few dozen).  This module supplies what the search needs on top of
:func:`~repro.san.reachability.generate`: the group action (resolved
to flat place positions once per call), the orbit sizes, the
initial-invariance check and the per-representative symmetry check.
Every explored representative is checked against the group's
generators: the generator image (fired in its own outcome pass) must
be tangible and have the same activity signature (distribution
fingerprints and canonicalised targets with their case-weighted
probabilities), and the initial distribution must be invariant under
the group.  A failed check raises
:class:`~repro.errors.ModelError`, which the capacity pipeline counts
as a structure fallback and answers from the unlumped chain.  The
unlumped chain (:func:`repro.san.reachability.generate` +
:func:`repro.san.assembled.assemble`) runs the same search without
canonical forms; the test suite compares every quotient against it,
which checks the group action and the symmetry verification.  The
checks that share no code with this module are the counted capacity
model (it counts satellites in one place, so it needs no canonical
form) and, sharing no code with :mod:`repro.san` at all, the plane DES
and the hand-built exponential chain of the capacity oracle tests.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import chain
from typing import List, Sequence, Tuple

from repro.core.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
)
from repro.errors import ModelError
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.reachability import (
    StateSpace,
    _explore,
    _outcomes,
    _Outcomes,
    _stabilise,
)

__all__ = [
    "LumpedStateSpace",
    "canonical_marking",
    "lumped_state_space",
    "orbit_size",
]


# ----------------------------------------------------------------------
# Group action on markings
# ----------------------------------------------------------------------
#: Per exchangeable group: the member place positions, flattened in
#: declaration order, and the member arity (places per member).
_Groups = List[Tuple[Tuple[int, ...], int]]


def _resolve_groups(model: SANModel) -> _Groups:
    """Resolve the declared groups to flat place positions, once per
    caller: the canonicalisation below runs for every fired marking."""
    if not model.exchangeable_groups:
        raise ModelError(
            f"model {model.name!r} declares no exchangeable groups; "
            "nothing to lump"
        )
    return [
        (
            tuple(
                model.place_index.position(place)
                for member in group
                for place in member
            ),
            len(group[0]),
        )
        for group in model.exchangeable_groups
    ]


def _members(values: Sequence[int], positions: Tuple[int, ...], arity: int):
    """The member sub-markings of one group, as ``arity``-tuples."""
    return zip(*[iter([values[p] for p in positions])] * arity)


def _canonical(groups: _Groups, marking: Marking) -> Marking:
    values = list(marking)
    for positions, arity in groups:
        ordered = chain.from_iterable(sorted(_members(values, positions, arity)))
        for position, value in zip(positions, ordered):
            values[position] = value
    return tuple(values)


def _orbit_size(groups: _Groups, marking: Marking) -> int:
    size = 1
    for positions, arity in groups:
        multiplicities = Counter(_members(marking, positions, arity))
        size *= math.factorial(len(positions) // arity)
        for count in multiplicities.values():
            size //= math.factorial(count)
    return size


def canonical_marking(model: SANModel, marking: Marking) -> Marking:
    """The orbit representative of ``marking``: within every declared
    exchangeable group, member sub-markings are sorted ascending."""
    return _canonical(_resolve_groups(model), marking)


def orbit_size(model: SANModel, marking: Marking) -> int:
    """Number of distinct markings in the orbit of ``marking`` under
    the declared group (the full symmetric group of each exchangeable
    group, acting independently)."""
    return _orbit_size(_resolve_groups(model), marking)


def _generators(groups: _Groups) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Adjacent-member transpositions: each swaps two member position
    tuples.  They generate the full symmetric group of every
    exchangeable group."""
    swaps = []
    for positions, arity in groups:
        for start in range(0, len(positions) - arity, arity):
            swaps.append(
                (
                    positions[start : start + arity],
                    positions[start + arity : start + 2 * arity],
                )
            )
    return swaps


def _apply_swap(
    marking: Marking, swap: Tuple[Tuple[int, ...], Tuple[int, ...]]
) -> Marking:
    left, right = swap
    values = list(marking)
    for a, b in zip(left, right):
        values[a], values[b] = values[b], values[a]
    return tuple(values)


def _fingerprint(distribution: Distribution):
    """Hashable identity of a completion-time distribution, used to
    compare activities across symmetric markings without relying on
    activity names (which the symmetry permutes)."""
    if isinstance(distribution, Exponential):
        return ("exponential", distribution.rate)
    if isinstance(distribution, Deterministic):
        return ("deterministic", distribution.value)
    if isinstance(distribution, Erlang):
        return ("erlang", distribution.shape, distribution.rate)
    return (type(distribution).__name__, repr(distribution))


# ----------------------------------------------------------------------
# Symbolic lumping: canonical-representative reachability
# ----------------------------------------------------------------------
class LumpedStateSpace(StateSpace):
    """A quotient reachability graph over canonical orbit
    representatives.

    Drop-in :class:`~repro.san.reachability.StateSpace`: the markings
    are the representatives and the transitions carry orbit-aggregated
    probabilities, so :func:`~repro.san.assembled.assemble` and the
    solvers work unchanged.  ``class_sizes[i]`` is the orbit size of marking ``i``
    (how many full-space markings it stands for).
    """

    def __init__(self, *args, class_sizes: List[int], **kwargs):
        super().__init__(*args, **kwargs)
        self.class_sizes = class_sizes

    @property
    def full_state_count(self) -> int:
        """Tangible markings of the unlumped space (sum of orbit
        sizes -- exact because the reachable set is closed under the
        verified group action)."""
        return sum(self.class_sizes)

    def describe(self) -> str:
        return (
            f"LumpedStateSpace({self.model.name}: {len(self.markings)} "
            f"orbit representatives for {self.full_state_count} tangible "
            f"markings, {len(self.markovian)} markovian + "
            f"{len(self.general)} general transitions)"
        )


def _signature(outcomes: _Outcomes) -> Tuple[Tuple[object, ...], ...]:
    """Name-agnostic outgoing signature of a tangible marking: per
    enabled timed activity, the distribution fingerprint and the
    stabilised (canonical target, probability) outcomes.  Symmetric
    markings must produce identical signatures."""
    return tuple(
        sorted(
            (_fingerprint(distribution), tuple(sorted(targets.items())))
            for _, distribution, targets in outcomes
        )
    )


def lumped_state_space(
    model: SANModel,
    *,
    max_states: int = 200_000,
) -> LumpedStateSpace:
    """Generate the quotient tangible reachability graph of ``model``
    under its declared exchangeable groups.

    The search is :func:`repro.san.reachability.generate`'s, run over
    the *canonical form* of every tangible marking, so only one
    representative per orbit is explored, in interning order;
    transitions whose full-space targets fall into one orbit merge with
    summed probabilities.  The groups are resolved to place positions
    once per call, and each representative's timed activities are
    fired once: that one outcome pass yields both its transitions and,
    when a generator image is checked, its activity signature.  Cost is
    proportional to the quotient size times (1 + the non-identity
    generator images per representative) outcome passes -- independent
    of the (possibly astronomical) full state count.

    The declared symmetry is checked at every explored representative:
    each group generator must map it to a tangible marking with an
    identical activity signature (:class:`~repro.errors.ModelError`
    otherwise), and the initial marking's stabilised distribution must
    be invariant under every generator.  This certifies the quotient's
    block-level dynamics at every state the quotient is built from.
    """
    groups = _resolve_groups(model)
    swaps = _generators(groups)
    canonical = partial(_canonical, groups)

    # The orbit sizes double as expansion weights, which is exact only
    # when the reachable set is closed under the group action; a
    # group-invariant initial distribution guarantees that.
    initial = _stabilise(model, model.initial_marking())
    reference = sorted(initial)
    for swap in swaps:
        swapped = sorted((p, _apply_swap(m, swap)) for p, m in initial)
        if swapped != reference:
            raise ModelError(
                f"model {model.name!r}: the initial distribution is not "
                "invariant under the declared exchangeable groups; "
                "orbit-based lumping would miscount reachable states"
            )

    def check_symmetry(marking: Marking, outcomes: _Outcomes) -> None:
        signature = None
        for swap in swaps:
            image = _apply_swap(marking, swap)
            if image == marking:
                continue
            if model.enabled_instantaneous(model.view(image)):
                raise ModelError(
                    f"model {model.name!r}: marking "
                    f"{model.marking_dict(marking)} is tangible but its "
                    "generator image is vanishing; the declared "
                    "exchangeable groups are not a symmetry"
                )
            if signature is None:
                signature = _signature(outcomes)
            if _signature(_outcomes(model, image, canonical)) != signature:
                raise ModelError(
                    f"model {model.name!r}: marking "
                    f"{model.marking_dict(marking)} and its generator "
                    f"image {model.marking_dict(image)} have different "
                    "activity signatures; the declared exchangeable "
                    "groups are not a symmetry of the model"
                )

    markings, initial_distribution, markovian, general = _explore(
        model, max_states=max_states, canonical=canonical, check=check_symmetry
    )
    return LumpedStateSpace(
        model,
        markings,
        initial_distribution,
        markovian,
        general,
        class_sizes=[_orbit_size(groups, marking) for marking in markings],
    )

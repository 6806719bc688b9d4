"""Stochastic activity networks: modelling and numerical solution.

This package is the reproduction's substitute for **UltraSAN**, the
tool the paper used to compute the steady-state orbital-plane capacity
probabilities ``P(k)``:

* :mod:`repro.san.model` -- SAN formalism (places, timed and
  instantaneous activities, input/output gates, cases);
* :mod:`repro.san.reachability` -- tangible reachability-graph
  generation with vanishing-marking elimination: the one search every
  state space comes from;
* :mod:`repro.san.lumping` -- exact symmetry lumping: the same search
  over canonical orbit representatives, with per-representative
  symmetry verification;
* :mod:`repro.san.assembled` -- the one path from a state space to a
  chain: Erlang unfolding of deterministic activities (UltraSAN
  supported these natively) into array-native chains that re-rate
  without regeneration;
* :mod:`repro.san.ctmc` -- steady-state and transient CTMC solvers.

A solve is ``generate`` (or ``lumped_state_space``) -> ``assemble``
-> ``rerate`` -> ``steady_state`` -> ``marking_marginals``, whether or
not the model has deterministic timers.

The exact-timer oracle for the unfolding is deliberately *not* in this
package: :mod:`repro.simulation.plane_process` simulates the plane's
satellite counts with exact deterministic timers and shares no code
with :mod:`repro.san`, so it checks the SAN model's encoding as well as
the unfolding.
"""

from repro.san.assembled import AssembledChain, RateSlot, assemble
from repro.san.ctmc import CTMC, SteadyStateSolution, SteadyStateWarmStart
from repro.san.lumping import (
    LumpedStateSpace,
    canonical_marking,
    lumped_state_space,
    orbit_size,
)
from repro.san.marking import Marking, MarkingView, PlaceIndex
from repro.san.model import (
    Case,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
    TimedActivity,
)
from repro.san.reachability import (
    GeneralTransition,
    MarkovianTransition,
    StateSpace,
    generate,
)

__all__ = [
    "AssembledChain",
    "CTMC",
    "Case",
    "GeneralTransition",
    "InputGate",
    "InstantaneousActivity",
    "LumpedStateSpace",
    "Marking",
    "MarkingView",
    "MarkovianTransition",
    "OutputGate",
    "Place",
    "PlaceIndex",
    "RateSlot",
    "SANModel",
    "StateSpace",
    "SteadyStateSolution",
    "SteadyStateWarmStart",
    "TimedActivity",
    "assemble",
    "canonical_marking",
    "generate",
    "lumped_state_space",
    "orbit_size",
]

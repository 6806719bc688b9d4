"""Resolve a :class:`~repro.faults.plan.FaultPlan` against a concrete
:class:`~repro.protocol.runner.CenterlineScenario`.

The plan is declarative; this module turns it into the runner's
mechanisms:

* ``fail_silent`` schedules (expanding the successor rule relative to
  the scenario's initial detector, which is ``S1`` when the signal
  starts covered and ``S2`` when it starts in the coverage gap);
* a time-aware ``link_loss_fn`` for per-link loss and downlink
  blackout windows;
* a stale-membership ``next_peer_override`` that skips satellites the
  (lagging) failure view knows to be dead;
* the plain-data :class:`~repro.simulation.vector.FaultSchedule` the
  vector engine reads (:func:`fault_schedule`).

``faulty_scenario`` is deterministic in ``seed``: the signal draws are
taken from a probe scenario with the same seed, so a plan changes the
injected faults but never the sampled signal -- paired comparisons
across plans stay paired.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.schemes import Scheme
from repro.faults.plan import FaultPlan
from repro.geometry.plane import PlaneGeometry
from repro.protocol.runner import CenterlineScenario
from repro.protocol.satellite import MessagingVariant
from repro.simulation.vector import FaultSchedule

__all__ = [
    "StalePeerView",
    "build_link_loss_fn",
    "fault_schedule",
    "faulty_scenario",
]


def build_link_loss_fn(
    plan: FaultPlan,
) -> Optional[Callable[[float, str, str], float]]:
    """The network's per-message loss hook for ``plan`` (None when the
    plan has neither per-link loss nor blackout windows, so the fast
    scalar-only path stays in force)."""
    if not plan.link_loss and not plan.downlink_blackouts:
        return None

    def loss_fn(now: float, source: str, destination: str) -> float:
        return plan.link_loss_probability(now, source, destination)

    return loss_fn


def fault_schedule(
    plan: FaultPlan, names: Sequence[str]
) -> Optional[FaultSchedule]:
    """``plan`` as the vector engine's fault schedule for the visit
    order ``names`` (None for a fault-free plan): fail times resolved
    for both possible detectors, the view staleness, the blackout
    windows, and whether any per-link loss is random."""
    if plan.is_fault_free:
        return None
    resolved = [plan.failure_times(names, detector) for detector in ("S1", "S2")]
    return FaultSchedule(
        fail_times=np.array(
            [[times.get(name, math.inf) for name in names] for times in resolved]
        ),
        staleness=plan.membership_staleness,
        blackouts=plan.downlink_blackouts,
        lossy_links=any(probability > 0.0 for *_, probability in plan.link_loss),
    )


class StalePeerView:
    """Next-peer selection from a stale failure view.

    The view at simulation time ``t`` contains exactly the failures
    that happened at or before ``t - staleness``; the peer invited is
    the first not-known-failed satellite after the caller in visit
    order.  With ``staleness = 0`` this is an omniscient membership
    service; large staleness converges to the default
    next-in-visit-order rule (failures are never learned in time).
    """

    def __init__(
        self,
        names: Sequence[str],
        failure_times: "dict[str, float]",
        staleness: float,
        scenario: object,
    ):
        # ``scenario`` is anything exposing a ``simulator`` attribute:
        # a CenterlineScenario (None before the first run) or a
        # batched-replication ScenarioTemplate.
        self._names = list(names)
        self._failure_times = dict(failure_times)
        self._staleness = staleness
        self._scenario = scenario

    def _known_failed(self, now: float) -> "set[str]":
        view_time = now - self._staleness
        return {
            name
            for name, time in self._failure_times.items()
            if time <= view_time
        }

    def __call__(self, name: str) -> Optional[str]:
        simulator = self._scenario.simulator
        now = simulator.now if simulator is not None else 0.0
        failed = self._known_failed(now)
        index = self._names.index(name)
        for candidate in self._names[index + 1 :]:
            if candidate not in failed:
                return candidate
        return None


def faulty_scenario(
    geometry: PlaneGeometry,
    params: EvaluationParams,
    plan: FaultPlan,
    *,
    scheme: Scheme = Scheme.OAQ,
    variant: MessagingVariant = MessagingVariant.DONE_PROPAGATION,
    seed: int,
    onset_position: Optional[float] = None,
    signal_duration: Optional[float] = None,
    satellite_count: Optional[int] = None,
) -> CenterlineScenario:
    """A :class:`CenterlineScenario` with ``plan`` injected.

    The signal (onset position and duration) is drawn exactly as a
    plain ``CenterlineScenario(geometry, params, seed=seed)`` would
    draw it, so outcomes across plans with the same seed are paired
    samples of the same physical signal.
    """
    probe = CenterlineScenario(
        geometry,
        params,
        scheme=scheme,
        variant=variant,
        onset_position=onset_position,
        signal_duration=signal_duration,
        satellite_count=satellite_count,
        seed=seed,
    )
    names: List[str] = [f"S{j + 1}" for j in range(probe.satellite_count)]
    detector = "S1" if probe.covered_at_onset() else "S2"
    failure_times = plan.failure_times(names, detector)

    scenario = CenterlineScenario(
        geometry,
        params,
        scheme=scheme,
        variant=variant,
        onset_position=probe.onset_position,
        signal_duration=probe.signal.duration,
        fail_silent=failure_times,
        crosslink_loss_probability=plan.crosslink_loss,
        link_loss_fn=build_link_loss_fn(plan),
        satellite_count=probe.satellite_count,
        seed=seed,
    )
    if plan.membership_staleness is not None:
        scenario.next_peer_override = StalePeerView(
            names, failure_times, plan.membership_staleness, scenario
        )
    return scenario

"""Batched Monte-Carlo replication of protocol scenarios.

The protocol-level estimators (the ``P(Y = y | k)`` cross-validation of
:mod:`repro.simulation.qos_montecarlo` and the fault campaigns of
:mod:`repro.faults`) draw thousands of independent scenario samples
that share *everything* except the signal and the random draws: the
plane geometry, the footprint cycle, the satellite roster and its
next-peer wiring, the crosslink network, the ground station.  Building
a fresh :class:`~repro.protocol.runner.CenterlineScenario` per sample
re-creates all of that immutable structure every time, and that
construction -- not the discrete-event run itself -- is the dominant
per-sample cost.

:class:`ScenarioTemplate` constructs the immutable parts once and
exposes a cheap :meth:`~ScenarioTemplate.replicate` that resets only
the mutable state (the kernel's clock and queue, the network log and
fail-silent set, the satellites' per-signal protocol state, the random
generator) before scheduling the next sample's physical events.  A
replication preserves the legacy scenario's draw order, so the same
seed produces the *same outcome* as ``CenterlineScenario`` -- the
template is a faster execution engine, not a different model.

Two event-scheduling modes:

* ``lazy_events=True`` (default): footprint arrivals are scheduled only
  for the detector and for satellites actually invited into the
  coordination chain (via the satellite's ``on_invited`` hook), and
  double-coverage onsets are chained one at a time, stopping once the
  alert is out or the signal has died.  Un-invited arrivals and
  post-alert onsets are no-ops in the legacy scenario, so outcomes are
  unchanged; only the no-op event traffic disappears.
* ``lazy_events=False`` (strict): every event the legacy scenario would
  schedule is scheduled up front, in the same order, giving the same
  ``(time, priority, seq)`` keys event for event.  The fault-injection
  campaign uses this mode so its golden results stay byte-identical.

Per-stage wall-clock timers (``mc.template_s`` / ``mc.replicate_s`` /
``mc.run_s`` in :mod:`repro.obs`) mirror the capacity solver's stage
timings and are reported as run-level deltas by
:class:`~repro.experiments.engine.SweepRunner`.
See ``docs/SIMULATION.md`` for the user guide.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.analytic.distributions import Distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.desim.kernel import Simulator
from repro.desim.network import LossFn, Network
from repro.errors import ConfigurationError
from repro.geometry.intervals import FootprintCycle
from repro.geometry.plane import PlaneGeometry
from repro.protocol.accuracy_model import AccuracyModel
from repro.protocol.ground import GroundStation
from repro.protocol.runner import ScenarioOutcome, normalise_onset_position
from repro.protocol.satellite import MessagingVariant, OAQSatellite
from repro.protocol.signal import Signal

__all__ = [
    "ScenarioTemplate",
    "Replication",
    "batch_stage_timings",
    "reset_batch_stage_timings",
]


def batch_stage_timings() -> Dict[str, float]:
    """Cumulative seconds this process spent in the replication
    stages: ``template`` (one-time scenario construction),
    ``replicate`` (per-sample state reset + event scheduling), ``run``
    (discrete-event execution + adjudication), and the vector engine's
    ``vector`` / ``vector_fallback`` (see :mod:`repro.simulation.vector`).
    A view of the ``mc.*_s`` timers in :mod:`repro.obs`."""
    return obs.view(obs.MC_STAGES)


def reset_batch_stage_timings() -> None:
    """Zero the stage timers (benchmark hygiene)."""
    obs.reset(*obs.MC_STAGES.values())


class Replication:
    """One scheduled-but-not-yet-run sample of a template.

    Returned by :meth:`ScenarioTemplate.replicate`; calling
    :meth:`run` (or the slim :meth:`run_level`) executes the
    discrete-event simulation and adjudicates the outcome.  Only the
    *most recent* replication of a template is valid -- the template's
    infrastructure is shared, so creating a new replication invalidates
    the previous one (running a stale replication raises
    :class:`ConfigurationError`).
    """

    __slots__ = ("_template", "_generation", "signal", "onset_position", "rng", "detection_time")

    def __init__(
        self,
        template: "ScenarioTemplate",
        generation: int,
        signal: Signal,
        onset_position: float,
        rng: np.random.Generator,
        detection_time: Optional[float],
    ):
        self._template = template
        self._generation = generation
        self.signal = signal
        self.onset_position = onset_position
        self.rng = rng
        self.detection_time = detection_time

    def _check_current(self) -> None:
        if self._generation != self._template._generation:
            raise ConfigurationError(
                "stale replication: the template has been replicated "
                "again since this sample was created"
            )

    def run(self, *, horizon: Optional[float] = None) -> ScenarioOutcome:
        """Run the simulation to quiescence and adjudicate (same
        contract as :meth:`CenterlineScenario.run`)."""
        self._check_current()
        template = self._template
        start = time.perf_counter()
        template.simulator.run_until(
            template.horizon if horizon is None else horizon
        )
        ground = template.ground
        signal_id = self.signal.signal_id
        official = ground.official(signal_id)
        level = QoSLevel(
            ground.achieved_level(signal_id, template.params.tau)
        )
        outcome = ScenarioOutcome(
            signal=self.signal,
            achieved_level=level,
            official_alert=official,
            all_alerts=ground.alerts(signal_id),
            duplicates=ground.duplicates(signal_id),
            message_log=list(template.network.log),
            detection_time=self.detection_time,
        )
        obs.count("mc.run_s", time.perf_counter() - start)
        return outcome

    def run_level(self) -> Tuple[int, bool]:
        """Slim fast path: run and return only
        ``(achieved QoS level, detected?)`` without building a
        :class:`ScenarioOutcome`.

        The run is cut short as soon as the ground station receives an
        alert: the downlink delay is constant, so the first alert
        delivered is the first one sent -- the official alert -- and no
        later event can change the achieved level.
        """
        self._check_current()
        template = self._template
        start = time.perf_counter()
        ground = template.ground
        template.simulator.run_until(
            template.horizon, stop=lambda: ground.alert_received
        )
        level = ground.achieved_level(
            self.signal.signal_id, template.params.tau
        )
        obs.count("mc.run_s", time.perf_counter() - start)
        return level, self.detection_time is not None


class ScenarioTemplate:
    """Immutable scenario structure, built once, replicated cheaply.

    Parameters mirror :class:`~repro.protocol.runner.CenterlineScenario`
    for everything structural (geometry, params, scheme, variant,
    models, satellite count, loss configuration); the per-sample inputs
    (seed, onset position, signal duration, fail-silent schedule,
    next-peer override) move to :meth:`replicate`.

    Parameters
    ----------
    crosslink_loss_probability / link_loss_fn:
        Per-message loss configuration, shared by every replication
        (the fault campaign builds one template per plan cell).
    lazy_events:
        Schedule only events that can affect the outcome (see module
        docstring).  ``False`` reproduces the legacy event schedule
        key-for-key.
    record_log:
        Keep per-message :class:`MessageRecord` entries.  Off by
        default -- the batched estimators never read the log.
    """

    def __init__(
        self,
        geometry: PlaneGeometry,
        params: EvaluationParams,
        *,
        scheme: Scheme = Scheme.OAQ,
        variant: MessagingVariant = MessagingVariant.DONE_PROPAGATION,
        accuracy_model: Optional[AccuracyModel] = None,
        computation_time: Optional[Distribution] = None,
        satellite_count: Optional[int] = None,
        crosslink_loss_probability: float = 0.0,
        link_loss_fn: Optional[LossFn] = None,
        lazy_events: bool = True,
        record_log: bool = False,
    ):
        with obs.timer("mc.template_s"):
            self.geometry = geometry
            self.params = params
            self.scheme = scheme
            self.variant = variant
            self.cycle = FootprintCycle(geometry)
            self.lazy_events = lazy_events
            if satellite_count is None:
                satellite_count = 3 + int(
                    math.ceil(
                        (params.tau + geometry.coverage_time) / geometry.l1
                    )
                )
            self.satellite_count = satellite_count
            self.names: List[str] = [
                f"S{j + 1}" for j in range(satellite_count)
            ]
            self.horizon = (
                params.tau + geometry.coverage_time + geometry.l1 + 5.0
            )
            self._lossy = (
                crosslink_loss_probability > 0.0 or link_loss_fn is not None
            )
            self._generation = 0
            self._next_map = {
                name: successor
                for name, successor in zip(self.names, self.names[1:])
            }
            self._next_peer_current: Callable[[str], Optional[str]] = (
                self._default_next_peer
            )

            self.simulator = Simulator()
            self.network = Network(
                self.simulator,
                default_delay=params.delta,
                loss_probability=crosslink_loss_probability,
                loss_fn=link_loss_fn,
                rng=np.random.default_rng(0) if self._lossy else None,
            )
            self.network.record_log = record_log
            self.ground = GroundStation(self.network)
            self.satellites: Dict[str, OAQSatellite] = {}
            for name in self.names:
                satellite = OAQSatellite(
                    name,
                    self.simulator,
                    self.network,
                    params,
                    geometry,
                    scheme=scheme,
                    variant=variant,
                    accuracy_model=accuracy_model,
                    computation_time=computation_time,
                    next_peer=self._dispatch_next_peer,
                    ground_name=self.ground.name,
                )
                if lazy_events:
                    satellite.on_invited = self._on_invited
                self.satellites[name] = satellite

            # Coverage-interval bases: satellite j covers
            # [j*L1 - onset - offset, ... + Tc); only the onset varies
            # per replication.
            offset = geometry.l2 if geometry.overlapping else 0.0
            self._interval_bases = [
                j * geometry.l1 - offset for j in range(satellite_count)
            ]
            self._roster = [
                (name, self.satellites[name], base)
                for name, base in zip(self.names, self._interval_bases)
            ]
            # The doubly-covered beta interval is [L1 - L2, L1); a plain
            # comparison replaces the per-replication interval lookup.
            self._beta_start = geometry.single_coverage_length
            # Per-replication state (set by replicate()).
            self._signal: Optional[Signal] = None
            self._detector_name: Optional[str] = None
            self._arrival_times: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Peer wiring
    # ------------------------------------------------------------------
    def _default_next_peer(self, name: str) -> Optional[str]:
        return self._next_map.get(name)

    def _dispatch_next_peer(self, name: str) -> Optional[str]:
        return self._next_peer_current(name)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def replicate(
        self,
        seed=None,
        *,
        onset_position: Optional[float] = None,
        signal_duration: Optional[float] = None,
        fail_silent: Optional[Mapping[str, float]] = None,
        next_peer_override: Optional[Callable[[str], Optional[str]]] = None,
    ) -> Replication:
        """Reset the shared infrastructure and schedule one sample.

        ``seed`` is anything :func:`numpy.random.default_rng` accepts
        (an int, a :class:`~numpy.random.SeedSequence`, or an existing
        generator, which is used as-is).  The signal draws follow the
        legacy scenario's order exactly -- onset first, duration second
        -- and the same generator then drives the protocol's draws, so
        ``replicate(seed)`` reproduces
        ``CenterlineScenario(geometry, params, ..., seed=seed).run()``
        outcome for outcome.
        """
        start = time.perf_counter()
        self._generation += 1
        rng = np.random.default_rng(seed)
        geometry = self.geometry
        if onset_position is None:
            onset_position = float(rng.uniform(0.0, geometry.l1))
        onset_position = normalise_onset_position(geometry, onset_position)
        if signal_duration is None:
            signal_duration = float(
                rng.exponential(1.0 / self.params.mu)
            )
        signal = Signal("signal-0", 0.0, signal_duration)
        self._signal = signal

        simulator = self.simulator
        simulator.reset()
        self.network.reset(rng=rng if self._lossy else None)
        self.ground.reset()
        for satellite in self.satellites.values():
            satellite.reset(rng)
        self._next_peer_current = (
            next_peer_override or self._default_next_peer
        )

        for name, fail_time in (fail_silent or {}).items():
            if name not in self.satellites:
                raise ConfigurationError(
                    f"unknown fail-silent node {name!r}"
                )
            simulator.at(max(0.0, fail_time), self.network.fail, name)

        detection_time = self._schedule_physical_events(onset_position)
        replication = Replication(
            self,
            self._generation,
            signal,
            onset_position,
            rng,
            detection_time,
        )
        obs.count("mc.replicate_s", time.perf_counter() - start)
        return replication

    def sample_levels(
        self,
        rng: np.random.Generator,
        onsets: np.ndarray,
        durations: np.ndarray,
        *,
        engine: str = "batch",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batch fast path: one protocol run per ``(onset, duration)``
        pair, all drawing protocol randomness (computation times,
        accuracy jitter) from the *shared* generator ``rng``.

        Returns ``(levels, detected)`` arrays (``uint8`` QoS levels and
        a detection mask).  Each run is cut short at the first delivered
        alert (see :meth:`Replication.run_level`).  Deterministic for a
        fixed generator state, but *not* draw-order compatible with
        per-seed :meth:`replicate` -- estimators built on it are pinned
        statistically, not bit-for-bit (see ``docs/SIMULATION.md``).

        ``engine`` selects the execution strategy: ``"batch"`` (one
        scalar event loop per pair, the reference semantics) or
        ``"vector"`` (the struct-of-arrays engine of
        :mod:`repro.simulation.vector`, which advances all pairs at
        once and shunts replications it cannot model exactly back to
        the scalar oracle).  The two engines consume ``rng`` in
        different orders, so they are statistically -- not draw-for-
        draw -- equivalent; within the vector engine, levels are pinned
        exactly against the scalar oracle on shared tapes.
        """
        onsets = np.asarray(onsets, dtype=float)
        durations = np.asarray(durations, dtype=float)
        if onsets.shape != durations.shape or onsets.ndim != 1:
            raise ConfigurationError(
                "onsets and durations must be 1-D arrays of equal length"
            )
        l1 = self.geometry.l1
        if np.any((onsets < 0.0) | (onsets > l1 + 1e-12)):
            raise ConfigurationError(
                f"onset positions must be in [0, L1={l1})"
            )
        # Wrap the half-open cycle boundary, as normalise_onset_position
        # does for scalars.
        onsets = np.where(onsets >= l1, 0.0, onsets)

        if engine == "vector":
            from repro.simulation.vector import sample_levels_vector

            return sample_levels_vector(self, rng, onsets, durations)
        if engine != "batch":
            raise ConfigurationError(
                f"unknown engine {engine!r} (expected 'batch' or 'vector')"
            )

        count = len(onsets)
        levels = np.empty(count, dtype=np.uint8)
        detected = np.empty(count, dtype=bool)
        onset_list = onsets.tolist()
        duration_list = durations.tolist()

        self._generation += 1  # invalidate outstanding replications
        simulator = self.simulator
        network = self.network
        ground = self.ground
        satellites = list(self.satellites.values())
        loss_rng = rng if self._lossy else None
        self._next_peer_current = self._default_next_peer
        horizon = self.horizon
        tau = self.params.tau
        stop = lambda: ground.alert_received  # noqa: E731
        perf_counter = time.perf_counter
        spent_replicate = 0.0
        spent_run = 0.0

        # The generator is shared across the whole batch, so install it
        # once; the per-iteration part of satellite.reset() reduces to
        # clearing the per-signal state dicts.
        for satellite in satellites:
            satellite.reset(rng)
        state_dicts = [satellite._states for satellite in satellites]

        start = perf_counter()
        for index in range(count):
            simulator.reset()
            network.reset(rng=loss_rng)
            ground.reset()
            for states in state_dicts:
                states.clear()
            self._signal = Signal("signal-0", 0.0, duration_list[index])
            detection_time = self._schedule_physical_events(
                onset_list[index]
            )
            mid = perf_counter()
            simulator.run_until(horizon, stop=stop)
            levels[index] = ground.achieved_level("signal-0", tau)
            detected[index] = detection_time is not None
            end = perf_counter()
            spent_replicate += mid - start
            spent_run += end - mid
            start = end
        obs.count("mc.replicate_s", spent_replicate)
        obs.count("mc.run_s", spent_run)
        return levels, detected

    # ------------------------------------------------------------------
    # Physical-event scheduling (mirrors CenterlineScenario)
    # ------------------------------------------------------------------
    def _schedule_physical_events(
        self, onset_position: float
    ) -> Optional[float]:
        geometry = self.geometry
        signal = self._signal
        duration = signal.duration
        simulator = self.simulator
        coverage_time = geometry.coverage_time
        overlapping = geometry.overlapping
        lazy = self.lazy_events

        detection_time: Optional[float] = None
        detector: Optional[str] = None
        self._arrival_times = arrivals = {}
        for name, satellite, base in self._roster:
            start = base - onset_position
            if start + coverage_time <= 0.0:
                continue  # this visit ended before the signal started
            arrival = start if start > 0.0 else 0.0
            simultaneous = False
            is_detector = False
            # signal.active(arrival) inlined: the signal spans
            # [0, duration) and arrival >= 0 always.
            if detector is None and arrival < duration:
                detection_time = arrival
                detector = name
                is_detector = True
                simultaneous = (
                    overlapping
                    and arrival == 0.0
                    and onset_position >= self._beta_start
                )
            if lazy:
                arrivals[name] = arrival
                if not is_detector:
                    # Un-invited arrivals are no-ops; schedule on
                    # invitation instead (satellite.on_invited hook).
                    continue
            simulator.at(
                arrival,
                self._arrival,
                satellite,
                simultaneous,
                is_detector,
            )
        self._detector_name = detector

        if overlapping and detector is not None:
            beta_offset = geometry.single_coverage_length - onset_position
            first = beta_offset if beta_offset > 0 else beta_offset + geometry.l1
            dc_horizon = self.params.tau + geometry.l1
            if lazy:
                # Chained scheduling: only the next onset is queued, and
                # the chain stops once it can no longer change the
                # outcome (alert sent, signal dead, or horizon passed).
                # For non-OAQ schemes every onset is a no-op, so none
                # are scheduled at all.
                if self.scheme is Scheme.OAQ and first <= dc_horizon:
                    simulator.at(first, self._dc_onset, first, dc_horizon)
            else:
                t = first
                on_coverage = self.satellites[detector].on_simultaneous_coverage
                while t <= dc_horizon:
                    simulator.at(t, on_coverage, signal)
                    t += geometry.l1
        return detection_time

    def _arrival(
        self, satellite: OAQSatellite, simultaneous: bool, allow_detection: bool
    ) -> None:
        satellite.on_footprint_arrival(
            self._signal,
            simultaneous=simultaneous,
            allow_detection=allow_detection,
        )

    def _on_invited(self, name: str) -> None:
        """Lazy-mode hook: a coordination request reached ``name``, so
        its footprint arrival now matters -- schedule it (unless the
        pass already went by, which the legacy scenario treats as a
        silent miss)."""
        arrival = self._arrival_times.get(name)
        if arrival is None or arrival < self.simulator.now:
            return
        self.simulator.at(
            arrival, self._arrival, self.satellites[name], False, False
        )

    def _dc_onset(self, at_time: float, dc_horizon: float) -> None:
        """Lazy-mode chained double-coverage onset."""
        detector = self.satellites[self._detector_name]
        detector.on_simultaneous_coverage(self._signal)
        t_next = at_time + self.geometry.l1
        if t_next > dc_horizon:
            return
        state = detector.state_of(self._signal.signal_id)
        if state is not None and state.alert_sent:
            return  # every later onset is a no-op
        if not self._signal.active(t_next):
            return  # the signal never comes back
        self.simulator.at(t_next, self._dc_onset, t_next, dc_horizon)

"""Batched Monte-Carlo replication of protocol scenarios -- the one
scalar driver of the Section 3.2 coordination protocol.

The paper evaluates the protocol for a signal on the centre line of one
plane's footprint trajectory (the worst-case setting).  Physical
timeline (minutes; signal onset at ``t = 0``): the cycle convention of
:class:`~repro.geometry.intervals.FootprintCycle` places the onset at
cycle position ``x`` measured from the start of the singly-covered
interval ``alpha``.  Satellite ``j`` (0-based visit order; protocol
name ``S{j+1}``) covers the target during::

    [ j*L1 - x - offset,  j*L1 - x - offset + Tc )

with ``offset = L2`` for an overlapping plane (its coverage begins when
it starts sharing the point with its predecessor) and ``offset = 0``
for an underlapping one.  Each replication schedules every footprint
arrival, every double-coverage onset (overlap case) and the
fail-silence injections of its
:class:`~repro.simulation.vector.FaultSchedule`, then lets the
satellites run the protocol over the simulated crosslinks.

The protocol-level estimators (the ``P(Y = y | k)`` cross-validation of
:mod:`repro.simulation.qos_montecarlo` and the fault campaigns of
:mod:`repro.faults`) draw thousands of independent samples that share
*everything* except the signal and the random draws: the plane
geometry, the footprint cycle, the satellite roster and its next-peer
wiring, the crosslink network, the ground station.
:class:`ScenarioTemplate` constructs that immutable structure once and
exposes a cheap :meth:`~ScenarioTemplate.replicate` that resets only
the mutable state (the kernel's clock and queue, the network log,
fail-silent set and loss model, the satellites' per-signal protocol
state, the random generator) before scheduling the next sample's
physical events.

Per-stage wall-clock timers (``mc.template_s`` / ``mc.replicate_s`` /
``mc.run_s`` in :mod:`repro.obs`) mirror the capacity solver's stage
timings and are reported as run-level deltas by
:class:`~repro.experiments.engine.SweepRunner`.
See ``docs/SIMULATION.md`` for the user guide.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.desim.kernel import Simulator
from repro.desim.network import MessageRecord, Network
from repro.errors import ConfigurationError
from repro.geometry.intervals import FootprintCycle
from repro.geometry.plane import PlaneGeometry
from repro.protocol.ground import GroundStation
from repro.protocol.messages import AlertMessage
from repro.protocol.satellite import MessagingVariant, OAQSatellite
from repro.protocol.signal import Signal
from repro.simulation.vector import (
    FaultSchedule,
    StalePeerView,
    _detector_selector,
    sample_levels_vector,
)

__all__ = [
    "ScenarioTemplate",
    "Replication",
    "ScenarioOutcome",
    "normalise_onset_position",
    "batch_stage_timings",
    "reset_batch_stage_timings",
]


def normalise_onset_position(geometry: PlaneGeometry, onset_position: float) -> float:
    """Validate a cycle position against ``[0, L1)`` and wrap the
    half-open boundary.

    The cycle is periodic, so a position equal to ``L1`` (reached
    exactly, or through floating-point tolerance) is the start of the
    next cycle and wraps to ``0.0``; anything beyond -- or NaN -- is
    rejected.  :meth:`ScenarioTemplate.sample_levels` applies the same
    rule to whole onset arrays.
    """
    if not 0.0 <= onset_position <= geometry.l1 + 1e-12:
        raise ConfigurationError(
            f"onset_position must be in [0, L1={geometry.l1}), got "
            f"{onset_position}"
        )
    if onset_position >= geometry.l1:
        return 0.0
    return onset_position


@dataclass
class ScenarioOutcome:
    """Everything a test or experiment needs from one protocol run."""

    signal: Signal
    achieved_level: QoSLevel
    official_alert: Optional[AlertMessage]
    all_alerts: List[AlertMessage]
    duplicates: int
    message_log: List[MessageRecord]
    detection_time: Optional[float]

    @property
    def alert_latency(self) -> Optional[float]:
        """Minutes from detection to the official alert's send time."""
        return self.official_alert.latency if self.official_alert else None

    @property
    def chain_length(self) -> int:
        """Satellites in the official alert's coordination chain."""
        return len(self.official_alert.chain) if self.official_alert else 0


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

    def run(self) -> ScenarioOutcome:
        """Run the simulation to the template's horizon (``tau + Tc +
        L1 + 5`` minutes, past every event that can matter) and
        adjudicate the outcome."""
        self._check_current()
        template = self._template
        start = time.perf_counter()
        template.simulator.run_until(template.horizon)
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

    The constructor takes everything structural; the per-sample inputs
    (seed, onset position, signal duration, fault schedule) go to
    :meth:`replicate`.  The roster holds enough satellites
    (``satellite_count``) to span the deadline window plus margin.

    Parameters
    ----------
    geometry / params:
        Plane geometry (``k``, ``theta``, ``Tc``) and evaluation
        parameters (``tau``, ``delta``, ``Tg``, TC-1 threshold, ...).
    scheme / variant:
        OAQ or BAQ; done-propagation or successor-responsibility.
        Every satellite computes in ``Exp(nu)`` time and estimates with
        the fixed model of :mod:`repro.protocol.accuracy_model`.
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
        record_log: bool = False,
    ):
        geometry.require_pairwise_overlap()
        with obs.timer("mc.template_s"):
            self.geometry = geometry
            self.params = params
            self.scheme = scheme
            self.variant = variant
            self.cycle = FootprintCycle(geometry)
            # Enough visits to span the deadline plus margin.
            satellite_count = 3 + int(
                math.ceil((params.tau + geometry.coverage_time) / geometry.l1)
            )
            self.satellite_count = satellite_count
            self.names: List[str] = [
                f"S{j + 1}" for j in range(satellite_count)
            ]
            self.horizon = (
                params.tau + geometry.coverage_time + geometry.l1 + 5.0
            )
            self._generation = 0
            self._next_map = {
                name: successor
                for name, successor in zip(self.names, self.names[1:])
            }
            # Next-peer choice of the current replication (a stale view
            # when its schedule has one).
            self._next_peer: Callable[[str], Optional[str]] = self._next_map.get

            self.simulator = Simulator()
            self.network = Network(self.simulator, default_delay=params.delta)
            self.network.record_log = record_log
            self.ground = GroundStation(self.network)
            self.satellites: Dict[str, OAQSatellite] = {}
            for name in self.names:
                self.satellites[name] = OAQSatellite(
                    name,
                    self.simulator,
                    self.network,
                    params,
                    geometry,
                    scheme=scheme,
                    variant=variant,
                    next_peer=self._dispatch_next_peer,
                    ground_name=self.ground.name,
                )

            # Coverage-interval bases: satellite j covers
            # [j*L1 - onset - offset, ... + Tc); only the onset varies
            # per replication.
            offset = geometry.l2 if geometry.overlapping else 0.0
            self._roster = [
                (self.satellites[name], j * geometry.l1 - offset)
                for j, name in enumerate(self.names)
            ]
            # The doubly-covered beta interval is [L1 - L2, L1); a plain
            # comparison replaces the per-replication interval lookup.
            self._beta_start = geometry.single_coverage_length
            # The signal of the current replication (set by replicate()).
            self._signal: Optional[Signal] = None

    # ------------------------------------------------------------------
    # Peer wiring
    # ------------------------------------------------------------------
    def _dispatch_next_peer(self, name: str) -> Optional[str]:
        return self._next_peer(name)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def replicate(
        self,
        seed=None,
        *,
        onset_position: Optional[float] = None,
        signal_duration: Optional[float] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> Replication:
        """Reset the shared infrastructure and schedule one sample.

        ``seed`` is anything :func:`numpy.random.default_rng` accepts
        (an int, a :class:`~numpy.random.SeedSequence`, or an existing
        generator, which is used as-is).  Missing signal inputs are
        drawn from it -- the onset position uniformly over ``[0, L1)``
        first (the Poisson-arrival assumption; ``L1`` itself wraps to
        ``0``), then the duration from ``Exp(mu)`` -- and the same
        generator then drives the protocol's draws, so a seed fixes the
        outcome.

        ``faults`` is the same
        :class:`~repro.simulation.vector.FaultSchedule` the vector engine
        reads (``None``: fault-free).  The onset picks its fail-time row
        by the engine's detector rule; its finite fail times fail those
        satellites silently at that minute, a ``staleness`` replaces the
        next-in-visit-order peer choice with a
        :class:`~repro.simulation.vector.StalePeerView`, and the network
        loses messages with the uniform ``crosslink_loss`` combined with
        :meth:`~repro.simulation.vector.FaultSchedule.loss_hook`.
        Nothing here draws, so a seed fixes the signal whatever the
        schedule.
        """
        if faults is not None:
            faults.validate(self.satellite_count)
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
        network = self.network
        fail_times: Dict[str, float] = {}
        self._next_peer = self._next_map.get
        network.loss_probability, network.loss_fn = 0.0, None
        if faults is not None:
            selector = int(_detector_selector(self, onset_position))
            fail_times = faults.failure_times(self.names, selector)
            if faults.staleness is not None:
                self._next_peer = StalePeerView(
                    self.names, fail_times, faults.staleness, self
                )
            network.loss_probability = faults.crosslink_loss
            network.loss_fn = faults.loss_hook(self.names, self.ground.name)
        network.reset(rng=rng)
        self.ground.reset()
        for satellite in self.satellites.values():
            satellite.reset(rng)
        for name, fail_time in fail_times.items():
            simulator.at(fail_time, network.fail, name)

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
        faults: Optional[FaultSchedule] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One protocol run per ``(onset, duration)`` pair on the
        struct-of-arrays engine of :mod:`repro.simulation.vector`, all
        protocol randomness (computation times, accuracy jitter,
        message-loss draws) drawn from the *shared* generator ``rng``
        as tapes.  ``faults`` (see
        :class:`~repro.simulation.vector.FaultSchedule`, the input
        :meth:`replicate` takes too) injects fail-silent satellites, a
        stale membership view, downlink blackouts and uniform and
        per-link crosslink loss.  The engine models done-propagation
        only: a successor-responsibility template raises
        :class:`ConfigurationError` (run it through :meth:`replicate`).

        Returns ``(levels, detected)`` arrays (``uint8`` QoS levels and
        a detection mask).  Deterministic for a fixed generator state,
        but *not* draw-order compatible with per-seed :meth:`replicate`
        -- estimators built on it are pinned statistically against
        per-seed runs, and exactly against the tape-driven scalar
        oracle (see ``docs/SIMULATION.md``).
        """
        if self.variant is not MessagingVariant.DONE_PROPAGATION:
            raise ConfigurationError(
                "variant: the vector engine models done-propagation only, "
                f"got {self.variant.name}; use replicate()"
            )
        onsets = np.asarray(onsets, dtype=float)
        durations = np.asarray(durations, dtype=float)
        if onsets.shape != durations.shape or onsets.ndim != 1:
            raise ConfigurationError(
                "onsets and durations must be 1-D arrays of equal length"
            )
        l1 = self.geometry.l1
        if not np.all((onsets >= 0.0) & (onsets <= l1 + 1e-12)):
            raise ConfigurationError(
                f"onsets must be in [0, L1={l1}) and not NaN"
            )
        if not np.all(durations >= 0.0):
            raise ConfigurationError(
                "durations must be non-negative and not NaN"
            )
        if faults is not None:
            faults.validate(self.satellite_count)
        # Wrap the half-open cycle boundary, as normalise_onset_position
        # does for scalars.
        onsets = np.where(onsets >= l1, 0.0, onsets)
        return sample_levels_vector(self, rng, onsets, durations, faults)

    # ------------------------------------------------------------------
    # Physical-event scheduling
    # ------------------------------------------------------------------
    def _schedule_physical_events(
        self, onset_position: float
    ) -> Optional[float]:
        """Schedule every footprint arrival that has not ended by the
        onset and, on an overlapping plane, every double-coverage onset
        up to ``tau + L1``, delivered to the (possibly withholding)
        detector.  Later visitors only act if a coordination request
        invited them; otherwise their arrival is a no-op.

        Returns the initial-detection time (None if the signal escapes
        surveillance entirely -- possible only in the underlap case).
        """
        geometry = self.geometry
        signal = self._signal
        simulator = self.simulator
        coverage_time = geometry.coverage_time
        overlapping = geometry.overlapping

        detection_time: Optional[float] = None
        detector: Optional[OAQSatellite] = None
        for satellite, base in self._roster:
            start = base - onset_position
            if start + coverage_time <= 0.0:
                continue  # this visit ended before the signal started
            arrival = start if start > 0.0 else 0.0
            simultaneous = False
            is_detector = False
            # signal.active(arrival) inlined: the signal spans
            # [0, duration) and arrival >= 0 always.
            if detector is None and arrival < signal.duration:
                detection_time = arrival
                detector = satellite
                is_detector = True
                simultaneous = (
                    overlapping
                    and arrival == 0.0
                    and onset_position >= self._beta_start
                )
            simulator.at(arrival, self._arrival, satellite, simultaneous, is_detector)

        if overlapping and detector is not None:
            beta_offset = geometry.single_coverage_length - onset_position
            t = beta_offset if beta_offset > 0 else beta_offset + geometry.l1
            dc_horizon = self.params.tau + geometry.l1
            while t <= dc_horizon:
                simulator.at(t, detector.on_simultaneous_coverage, signal)
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

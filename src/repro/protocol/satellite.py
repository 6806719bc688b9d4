"""The OAQ satellite state machine (paper Section 3.2, Figures 3-4).

Each satellite runs the same distributed logic -- there is no team
leader or decision authority.  A satellite that completes a geolocation
iteration at chain position ``n`` checks the termination conditions:

* **TC-1** -- the estimated error is below the threshold;
* **TC-2** -- ``getTime() - t0 > tau - (n*delta + Tg)``: too little
  time remains to guarantee another iteration *and* timely
  down-chain notification;
* **TC-3** -- the signal has stopped (observed by the *next* satellite,
  which finds nothing to measure when its footprint arrives).

If neither holds it sends a coordination request to the peer expected
to visit the target next and -- under the **done-propagation**
("backward messaging") variant -- waits for a "coordination done"
notification until ``t0 + tau - (n-1)*delta``; on timeout it assumes
the successor hit TC-3 or became fail-silent and sends its own result
(Figure 4), guaranteeing a timely alert.  Under the
**successor-responsibility** ("no backward messaging") variant the
successor delivers the predecessor's result when it cannot compute;
no done messages flow, and a fail-silent successor loses the alert --
exactly the trade-off the paper discusses.

In an *overlapping* plane the coordination takes the withholding form:
the first detector keeps its preliminary result and waits (within the
deadline) for overlapped footprints; a simultaneous dual coverage then
completes the optimisation, otherwise the preliminary result goes out
at the deadline guard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.config import EvaluationParams
from repro.core.distributions import Distribution, Exponential
from repro.core.schemes import Scheme
from repro.desim.kernel import Event, Simulator
from repro.desim.network import Network
from repro.errors import ProtocolError
from repro.geometry.plane import PlaneGeometry
from repro.protocol.accuracy_model import (
    REFINEMENT_FACTOR,
    SIMULTANEOUS_KM,
    SINGLE_PASS_KM,
    jittered,
)
from repro.protocol.messages import (
    AlertMessage,
    CoordinationDone,
    CoordinationRequest,
    GeolocationEstimate,
)
from repro.protocol.signal import Signal

__all__ = ["MessagingVariant", "OAQSatellite"]


class MessagingVariant(enum.Enum):
    """How alert-delivery responsibility is protected (Section 3.2)."""

    #: "Backward messaging": done notifications propagate down the
    #: chain; each participant times out and self-delivers if the chain
    #: goes quiet.  Tolerates fail-silent successors.
    DONE_PROPAGATION = "done-propagation"

    #: "No backward messaging": the successor delivers the
    #: predecessor's result when it cannot compute.  Fewer messages,
    #: but a fail-silent successor loses the alert.
    SUCCESSOR_RESPONSIBILITY = "successor-responsibility"


@dataclass
class _SignalState:
    """Per-signal protocol state held by one satellite."""

    ordinal: int
    detection_time: float
    chain: Tuple[str, ...]
    predecessor: Optional[str] = None
    estimate: Optional[GeolocationEstimate] = None
    inherited: Optional[GeolocationEstimate] = None
    awaiting_pass: bool = False
    withholding: bool = False
    computing: bool = False
    alert_sent: bool = False
    done_received: bool = False
    wait_event: Optional[Event] = None
    guard_event: Optional[Event] = None


class OAQSatellite:
    """One satellite node of the coordination protocol.

    Computations take ``Exp(nu)`` time (paper Section 4.2, the
    ``computation_time`` attribute) and errors follow
    :mod:`repro.protocol.accuracy_model`; :meth:`reset` installs the
    generator for each replication's draws.
    """

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        network: Network,
        params: EvaluationParams,
        geometry: PlaneGeometry,
        *,
        scheme: Scheme = Scheme.OAQ,
        variant: MessagingVariant = MessagingVariant.DONE_PROPAGATION,
        next_peer: Optional[Callable[[str], Optional[str]]] = None,
        ground_name: str = "ground",
    ):
        self.name = name
        self.simulator = simulator
        self.network = network
        self.params = params
        self.geometry = geometry
        self.scheme = scheme
        self.variant = variant
        self.computation_time: Distribution = Exponential(params.nu)
        self.next_peer = next_peer or (lambda _name: None)
        self.ground_name = ground_name
        self.rng = np.random.default_rng()
        # Hot-path caches: these are read on every computation
        # completion and timer, and never change over the satellite's
        # lifetime.
        self._tau = params.tau
        self._delta = params.delta
        self._tg = params.tg
        self._overlapping = geometry.overlapping
        self._states: Dict[str, _SignalState] = {}
        network.register(name, self.on_message)

    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        """Drop all per-signal protocol state and (optionally) install
        the generator for the next replication's draws.  Static wiring
        -- network registration, peers -- is kept.  Used by the
        batched replication engine to reuse one satellite across
        scenario replications."""
        self._states.clear()
        if rng is not None:
            self.rng = rng

    @property
    def failed(self) -> bool:
        """Whether this node is currently fail-silent."""
        return self.network.is_failed(self.name)

    # ------------------------------------------------------------------
    # Physical events (scheduled by the scenario driver)
    # ------------------------------------------------------------------
    def on_footprint_arrival(
        self,
        signal: Signal,
        *,
        simultaneous: bool = False,
        allow_detection: bool = True,
    ) -> None:
        """The satellite's footprint reaches the signal location.

        ``simultaneous`` marks a detection under double coverage (the
        signal started inside an overlapped region).  ``allow_detection``
        is False for visits after the initial detection: those passes
        only matter to satellites already invited into the chain (the
        initial detector owns the alert pipeline for the signal).
        """
        if self.failed:
            return
        state = self._states.get(signal.signal_id)
        now = self.simulator.now
        if state is None:
            if not allow_detection or not signal.active(now):
                return  # nothing to detect (or not ours to detect)
            state = _SignalState(
                ordinal=1, detection_time=now, chain=(self.name,)
            )
            self._states[signal.signal_id] = state
            self._start_computation(signal, state, simultaneous=simultaneous)
            return
        if state.awaiting_pass:
            state.awaiting_pass = False
            if signal.active(now):
                self._start_computation(signal, state, simultaneous=False)
            else:
                self._handle_unmeasurable(signal, state)

    def on_simultaneous_coverage(self, signal: Signal) -> None:
        """Overlapped footprints arrive at the signal location while
        this satellite withholds its preliminary result."""
        if self.failed or self.scheme is not Scheme.OAQ:
            return
        state = self._states.get(signal.signal_id)
        if state is None or state.alert_sent or state.ordinal != 1:
            return
        if not (state.withholding or state.computing):
            return
        if not signal.active(self.simulator.now):
            return  # the opportunity evaporated with the signal (TC-3)
        # A simultaneous measurement is collected even if the initial
        # single-coverage computation is still running; whichever
        # completes first that satisfies a termination condition sends
        # the alert (finalisation is idempotent).
        state.withholding = False
        self._start_computation(signal, state, simultaneous=True)

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def _start_computation(
        self, signal: Signal, state: _SignalState, *, simultaneous: bool
    ) -> None:
        state.computing = True
        duration = self.computation_time.sample(self.rng)
        self.simulator.schedule(
            duration, self._on_computation_complete, signal, state, simultaneous
        )

    def _build_estimate(
        self, state: _SignalState, *, simultaneous: bool
    ) -> GeolocationEstimate:
        now = self.simulator.now
        if simultaneous:
            error = jittered(SIMULTANEOUS_KM, self.rng)
            passes = max(2, state.ordinal + 1)
        elif state.ordinal == 1:
            error = jittered(SINGLE_PASS_KM, self.rng)
            passes = 1
        else:
            previous = (
                state.inherited.error_km
                if state.inherited
                else jittered(SINGLE_PASS_KM, self.rng)
            )
            error = jittered(previous * REFINEMENT_FACTOR, self.rng)
            passes = state.ordinal
        return GeolocationEstimate(
            error_km=error,
            passes_used=passes,
            simultaneous=simultaneous,
            computed_by=self.name,
            computed_at=now,
        )

    def _on_computation_complete(
        self, signal: Signal, state: _SignalState, simultaneous: bool
    ) -> None:
        if self.failed or state.alert_sent:
            return
        state.computing = False
        state.estimate = self._build_estimate(state, simultaneous=simultaneous)
        now = self.simulator.now
        tau = self._tau
        t0 = state.detection_time

        if self.scheme is Scheme.BAQ:
            # Basic scheme: deliver right after the initial computation.
            self._finalize(signal, state)
            return

        if state.estimate.simultaneous:
            # Simultaneous coverage marks the completion of QoS
            # optimisation (Section 3.1).
            self._finalize(signal, state)
            return
        # TC-1: result already good enough.
        if state.estimate.error_km <= self.params.error_threshold_km:
            self._finalize(signal, state)
            return
        # TC-2: no guaranteed room for another iteration + notification.
        n = state.ordinal
        if now - t0 > tau - (n * self._delta + self._tg):
            self._finalize(signal, state)
            return

        if self._overlapping:
            # Withhold and wait for the overlapped footprints; the
            # deadline guard sends the preliminary result if they do
            # not arrive (or the signal dies first).
            state.withholding = True
            self._arm_guard(signal, state)
            return

        # Underlapping plane: expand the chain to the next peer.
        successor = self.next_peer(self.name)
        if successor is None:
            self._finalize(signal, state)
            return
        request = CoordinationRequest(
            signal_id=signal.signal_id,
            detection_time=t0,
            next_ordinal=n + 1,
            estimate=state.estimate,
            measurement_count=state.estimate.passes_used,
            chain=state.chain,
        )
        self.network.send(
            self.name, successor, request, delay=self._delta
        )
        if self.variant is MessagingVariant.DONE_PROPAGATION:
            self._arm_guard(signal, state)
        # Under SUCCESSOR_RESPONSIBILITY the alert duty moves forward
        # with the request; this node is finished unless notified.

    def _handle_unmeasurable(self, signal: Signal, state: _SignalState) -> None:
        """A coordination request was accepted but the signal stopped
        before this satellite's footprint arrived (TC-3)."""
        if self.variant is MessagingVariant.SUCCESSOR_RESPONSIBILITY:
            # This node must deliver the predecessor's result itself.
            if state.inherited is not None and not state.alert_sent:
                state.estimate = state.inherited
                self._finalize(signal, state)
        # Under DONE_PROPAGATION we stay silent: the predecessor's wait
        # timeout produces the guaranteed report (Figure 4).

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_guard(self, signal: Signal, state: _SignalState) -> None:
        """Arm the wait/deadline guard at ``t0 + tau - (n-1) delta``."""
        deadline = (
            state.detection_time
            + self._tau
            - (state.ordinal - 1) * self._delta
        )
        now = self.simulator.now
        delay = max(0.0, deadline - now)
        state.wait_event = self.simulator.schedule(
            delay, self._on_guard_expired, signal, state
        )

    def _on_guard_expired(self, signal: Signal, state: _SignalState) -> None:
        if self.failed or state.alert_sent or state.done_received:
            return
        # Either the withheld opportunity never materialised, or the
        # successor went quiet (TC-3 / fail-silence): deliver our own
        # result now -- it is the last moment that still meets the
        # deadline for every downstream participant.
        state.withholding = False
        if state.estimate is None and state.inherited is not None:
            state.estimate = state.inherited
        if state.estimate is not None:
            self._finalize(signal, state)

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def on_message(self, source: str, message: object) -> None:
        """Network delivery entry point."""
        if isinstance(message, CoordinationRequest):
            self._on_request(source, message)
        elif isinstance(message, CoordinationDone):
            self._on_done(source, message)
        else:
            raise ProtocolError(
                f"{self.name} received unexpected message {message!r}"
            )

    def _on_request(self, source: str, request: CoordinationRequest) -> None:
        if request.signal_id in self._states:
            raise ProtocolError(
                f"{self.name} got a duplicate coordination request for "
                f"{request.signal_id}"
            )
        self._states[request.signal_id] = _SignalState(
            ordinal=request.next_ordinal,
            detection_time=request.detection_time,
            chain=request.chain + (self.name,),
            predecessor=source,
            inherited=request.estimate,
            awaiting_pass=True,
        )

    def _on_done(self, source: str, done: CoordinationDone) -> None:
        state = self._states.get(done.signal_id)
        if state is None:
            return
        state.done_received = True
        if state.wait_event is not None:
            state.wait_event.cancel()
            state.wait_event = None
        if state.predecessor is not None:
            self.network.send(
                self.name,
                state.predecessor,
                CoordinationDone(
                    signal_id=done.signal_id,
                    final_estimate=done.final_estimate,
                    terminated_by=done.terminated_by,
                ),
                delay=self._delta,
            )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _finalize(self, signal: Signal, state: _SignalState) -> None:
        if state.alert_sent or state.estimate is None:
            return
        state.alert_sent = True
        for event in (state.wait_event, state.guard_event):
            if event is not None:
                event.cancel()
        state.wait_event = state.guard_event = None
        alert = AlertMessage(
            signal_id=signal.signal_id,
            estimate=state.estimate,
            sent_by=self.name,
            sent_at=self.simulator.now,
            detection_time=state.detection_time,
            chain=state.chain,
        )
        self.network.send(self.name, self.ground_name, alert, delay=self._delta)
        if state.predecessor is not None:
            self.network.send(
                self.name,
                state.predecessor,
                CoordinationDone(
                    signal_id=signal.signal_id,
                    final_estimate=state.estimate,
                    terminated_by=self.name,
                ),
                delay=self._delta,
            )

"""Struct-of-arrays vectorized replication of protocol scenarios.

The scalar event loop of :mod:`repro.simulation.batch` steps one
Python event loop per replication (~0.1 ms per sample).  This module
-- the only production protocol sampler, reached through
:meth:`ScenarioTemplate.sample_levels` -- runs *R* replications of one
:class:`ScenarioTemplate` as a single vectorized pass: all protocol randomness is drawn up front into
*tapes* (struct-of-arrays columns, one row per replication), and the
deterministic protocol timeline -- detection, the underlap coordination
chain with its guards and done wave, the overlap withholding /
double-coverage onsets, the first-alert early stop -- is advanced with
numpy array ops over per-replication state columns.  It models the
done-propagation variant only; successor-responsibility runs on the
scalar :meth:`ScenarioTemplate.replicate`.

Correctness contract
--------------------
The scalar event-driven engine stays the reference oracle.  For every
replication the vector path must produce **exactly** the ``(level,
detected)`` pair the scalar :class:`~repro.simulation.batch.Replication`
produces when driven by the same tape row (see
:func:`scalar_reference_levels`, which replays a tape through
``template.replicate`` via a :class:`numpy.random.Generator` adapter).
Replications whose timeline the vector model does not cover -- a zero
crosslink delay, exact event-time ties whose resolution depends on
kernel scheduling order, fault times that land inside a satellite's
active span, a lost alert a done-propagation predecessor may still
recover -- are collected in a *divergence mask* and
shunted to the scalar oracle, so the vector path only has to model the
hot branches, never every branch.  The fallback fraction is surfaced via
:func:`vector_batch_stats` (per reason under
``mc.vector.fallbacks.<reason>``) and the ``mc.vector.fallback_s``
timer.

Fault schedules
---------------
A :class:`FaultSchedule` (plain data, built from a
:class:`~repro.faults.plan.FaultPlan` by
:func:`~repro.faults.injector.fault_schedule`) extends the model to
fail-silent satellites, uniform and per-link crosslink loss, stale
membership views and downlink blackout windows.  It is the one runtime
form of a fault plan: the scalar oracle takes the same object through
``replicate(faults=...)``.  Each row resolves its fail times against
the detector the campaign rule picks (``S1`` if the plane overlaps or
the onset lies in single coverage, else ``S2``); a chain member whose
fail time is at or before its first act (request delivery) is dead, a
fail time after the row's decision has no effect, and anything in
between diverges.  ``replicate`` resolves a scalar row by the same
rule and plays a stale view through a :class:`StalePeerView`.

Crosslink loss
--------------
Every message's loss probability comes from the schedule's uniform
``crosslink_loss`` combined with its per-link table, as the network
combines the scalar loss with :meth:`FaultSchedule.loss_hook`.  A lost
coordination request is a dead successor (the sender's guard fires).
A lost official alert is level 0 when no later alert can replace it --
under BAQ, on an overlapping plane, or when the detector sent it;
otherwise (a predecessor's guard is still armed) the row diverges as
``lost_alert``.

Draw discipline
---------------
Callers draw the signal variates (onset positions, durations) first --
typically via :func:`~repro.simulation.qos_montecarlo.draw_signal_variates`
on a ``SeedSequence``-spawned generator -- then hand the same generator
here.  Production cells do this per block of at most
:data:`~repro.simulation.qos_montecarlo.BLOCK_ROWS` rows through
:func:`~repro.simulation.qos_montecarlo.sample_level_counts`, so *R*
below is one block's rows and the tapes never outgrow a block.  The
engine consumes the generator in a fixed, documented order:

1. ``comp``: an ``(R, D)`` matrix of computation durations,
   ``rng.exponential(1/nu, (R, D))``;
2. ``jit``: an ``(R, D)`` matrix of accuracy jitter factors,
   ``rng.uniform(1 - J, 1 + J, (R, D))`` with ``J`` the
   :data:`~repro.protocol.accuracy_model.JITTER` of the fixed accuracy
   model;
3. ``loss``: an ``(R, D + 1)`` matrix of message-loss uniforms,
   ``rng.random((R, D + 1))`` -- drawn only when some message of the
   cell can be lost with a probability strictly between 0 and 1;
4. one ``uint64`` spill seed for the oracle's overflow stream.

``D`` bounds the number of computations any replication can start
before its outcome is decided (chain depth / double-coverage onsets are
limited by ``tau`` and the cycle length).  Within a row, tape cells are
consumed in computation-start order for ``comp``, completion order for
``jit`` and send order for ``loss`` (one cell per message whose loss
probability ``p`` has ``0 < p < 1``; the network draws nothing at
``p = 0`` or ``p = 1``) -- exactly the order the scalar protocol draws
them.  A message is lost when its cell is below ``p``.

See ``docs/SIMULATION.md`` ("Vectorized replication engine") for the
user guide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.schemes import Scheme
from repro.desim.network import LossFn
from repro.errors import ConfigurationError, check_fields, require_finite
from repro.protocol.accuracy_model import (
    JITTER,
    REFINEMENT_FACTOR,
    SINGLE_PASS_KM,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.batch import ScenarioTemplate

__all__ = [
    "FaultSchedule",
    "ProtocolTapes",
    "StalePeerView",
    "draw_protocol_tapes",
    "sample_levels_vector",
    "scalar_reference_levels",
    "vector_batch_stats",
    "reset_vector_batch_stats",
]

#: Ground-station deadline tolerance (mirrors
#: ``GroundStation.achieved_level``).
_TOL = 1e-9

#: The scalar model's jitter draw, ``rng.uniform(1 - J, 1 + J)``
#: (:func:`~repro.protocol.accuracy_model.jittered`): the bounds the
#: oracle's tape replay matches.
_JIT_BOUNDS = (1.0 - JITTER, 1.0 + JITTER)


def vector_batch_stats() -> Dict[str, float]:
    """Cumulative vector-engine counters for this process: ``calls``
    (vector-path invocations), ``replications`` (total rows processed),
    ``fallbacks`` (rows shunted to the scalar oracle) and the derived
    ``fallback_fraction``.  A view of the ``mc.vector.*`` counters in
    :mod:`repro.obs` (the per-reason split lives under
    ``mc.vector.fallbacks.<reason>``)."""
    stats = obs.view(obs.MC_VECTOR)
    total = stats["replications"]
    stats["fallback_fraction"] = stats["fallbacks"] / total if total else 0.0
    return stats


def reset_vector_batch_stats() -> None:
    """Zero the vector-engine counters, per-reason fallbacks included
    (benchmark hygiene)."""
    obs.reset(*obs.MC_VECTOR.values())


@dataclass(frozen=True)
class FaultSchedule:
    """Plain-data fault schedule for one vectorized pass.

    ``fail_times[0]`` / ``fail_times[1]`` hold each satellite's
    fail-silent time (``inf`` = never) resolved with ``S1`` / ``S2`` as
    the detector; every row picks one by the campaign rule.
    ``staleness`` is the membership-view lag (``None`` = the static
    next-in-visit-order rule), ``blackouts`` the ``[start, end)``
    downlink windows, ``link_loss`` the per-link loss probability by
    ``(source, destination)`` satellite index, the ground station as
    the last column (``None`` = no per-link loss), and
    ``crosslink_loss`` the uniform loss probability of every message.
    Both engines read it: the vector engine row by row, and
    :meth:`~repro.simulation.batch.ScenarioTemplate.replicate` for the
    scalar oracle's replays.
    """

    fail_times: np.ndarray
    staleness: Optional[float] = None
    blackouts: Tuple[Tuple[float, float], ...] = ()
    link_loss: Optional[np.ndarray] = None
    crosslink_loss: float = 0.0

    def __post_init__(self) -> None:
        for name in ("fail_times", "link_loss"):
            value = getattr(self, name)
            if value is None:
                continue
            try:
                table = np.asarray(value, dtype=float)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"{name} must be a table of numbers, got {value!r}"
                ) from None
            object.__setattr__(self, name, table)

    def validate(self, roster: int) -> None:
        """Raise :class:`ConfigurationError` unless the schedule fits a
        ``roster``-satellite template."""
        check_fields(self)
        times = self.fail_times
        if times.shape != (2, roster):
            raise ConfigurationError(
                f"fail_times must have shape (2, {roster}), got {times.shape}"
            )
        if not (times >= 0.0).all():
            raise ConfigurationError("fail_times must be >= 0 and not NaN")
        if self.staleness is not None and self.staleness < 0.0:
            raise ConfigurationError(
                f"staleness must be >= 0, got {self.staleness}"
            )
        if not 0.0 <= self.crosslink_loss <= 1.0:
            raise ConfigurationError(
                f"crosslink_loss must be a number in [0, 1], got "
                f"{self.crosslink_loss!r}"
            )
        try:
            windows = [tuple(window) for window in self.blackouts]
        except TypeError:
            raise ConfigurationError(
                f"blackouts must be a sequence of (start, end) pairs, got "
                f"{self.blackouts!r}"
            ) from None
        for window in windows:
            if len(window) != 2:
                raise ConfigurationError(
                    f"blackouts entries need 2 fields (start, end), got {window!r}"
                )
            start, end = window
            require_finite("blackouts start", start)
            require_finite("blackouts end", end)
            if not 0.0 <= start < end:
                raise ConfigurationError(
                    f"blackout windows need 0 <= start < end, got [{start}, {end})"
                )
        links = self.link_loss
        if links is not None:
            if links.shape != (roster, roster + 1):
                raise ConfigurationError(
                    f"link_loss must have shape ({roster}, {roster + 1}), "
                    f"got {links.shape}"
                )
            if not np.all((links >= 0.0) & (links <= 1.0)):
                raise ConfigurationError("link_loss must be in [0, 1] and not NaN")

    def failure_times(self, names, selector: int) -> Dict[str, float]:
        """The finite fail times of table row ``selector`` by name."""
        row = self.fail_times[selector].tolist()
        return {
            name: time for name, time in zip(names, row) if math.isfinite(time)
        }

    def loss_hook(self, names: Sequence[str], ground: str) -> Optional[LossFn]:
        """The scalar network's per-message loss hook ``(now, source,
        destination) -> probability``: certain loss for a message to
        ``ground`` sent inside a blackout window, else the link's
        ``link_loss`` entry (``names`` in visit order).  ``None`` when
        the schedule has neither, so the network applies the uniform
        ``crosslink_loss`` alone -- the same split :func:`_loss_table`
        makes."""
        if self.link_loss is None and not self.blackouts:
            return None
        column = {name: index for index, name in enumerate(names)}
        column[ground] = len(names)
        links = None if self.link_loss is None else self.link_loss.tolist()
        blackouts = self.blackouts

        def hook(now: float, source: str, destination: str) -> float:
            if destination == ground and any(
                start <= now < end for start, end in blackouts
            ):
                return 1.0
            if links is None:
                return 0.0
            return links[column[source]][column[destination]]

        return hook


class StalePeerView:
    """Next-peer selection from a stale failure view -- how
    :meth:`~repro.simulation.batch.ScenarioTemplate.replicate` plays a
    schedule's ``staleness`` on the scalar engine.

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
        failure_times: Mapping[str, float],
        staleness: float,
        template: "ScenarioTemplate",
    ):
        self._names = list(names)
        self._failure_times = dict(failure_times)
        self._staleness = staleness
        self._template = template

    def __call__(self, name: str) -> Optional[str]:
        view_time = self._template.simulator.now - self._staleness
        failed = {
            peer
            for peer, time in self._failure_times.items()
            if time <= view_time
        }
        index = self._names.index(name)
        for candidate in self._names[index + 1 :]:
            if candidate not in failed:
                return candidate
        return None


def _detector_selector(template: "ScenarioTemplate", x):
    """Fail-time table row for the onset position(s) ``x`` -- a float
    for one scalar replication, an array for a vector pass: 0 (``S1``
    detects) when the plane overlaps or the onset lies in single
    coverage, else 1 (``S2``), as a bool or bool array."""
    geometry = template.geometry
    return (x >= geometry.single_coverage_length) & (not geometry.overlapping)


class _Divergence:
    """Per-reason divergence masks of one vectorized pass."""

    def __init__(self, count: int):
        self.count = count
        self.masks: Dict[str, np.ndarray] = {}

    def add(self, reason: str, mask: np.ndarray) -> None:
        current = self.masks.get(reason)
        if current is None:
            self.masks[reason] = mask.copy()
        else:
            current |= mask

    def union(self) -> np.ndarray:
        union = np.zeros(self.count, dtype=bool)
        for mask in self.masks.values():
            union |= mask
        return union


class _Losses:
    """Message-loss decisions of one vectorized pass, taken in send
    order off the ``loss`` tape.

    Each row counts the cells its messages have consumed (one per
    message with ``0 < p < 1``).  The timelines also leave here the
    satellite index of the official alert's ``sender`` (the detector
    unless the chain moves it) and a ``recover`` mask: rows whose
    lost official alert a later alert may still replace."""

    def __init__(self, table: np.ndarray, tape: np.ndarray, detector):
        self.table = table
        self.tape = tape
        count = len(tape)
        self.drawn = np.zeros(count, dtype=np.intp)
        self.sender = np.broadcast_to(detector, (count,))
        self.recover = np.zeros(count, dtype=bool)

    def lost(self, mask: np.ndarray, source, destination) -> np.ndarray:
        """Whether each ``mask`` row's next message from satellite
        ``source`` to ``destination`` (the table column) is lost.  A
        row sends at most ``D`` requests and one alert, so its cells
        never run past the tape's ``D + 1`` columns."""
        p = self.table[source, destination]
        random = mask & (p > 0.0) & (p < 1.0)
        lost = mask & (p >= 1.0)
        if self.tape.shape[1]:
            u = np.take_along_axis(self.tape, self.drawn[:, None], axis=1)[:, 0]
            lost |= random & (u < p)
        self.drawn += random
        return lost


@dataclass
class ProtocolTapes:
    """Pre-drawn protocol randomness for one vectorized pass.

    ``comp[i, c]`` is the duration of the ``c``-th computation
    replication ``i`` starts; ``jit[i, c]`` the jitter factor of the
    ``c``-th estimate it builds; ``loss[i, m]`` the uniform deciding
    the ``m``-th randomly lossy message it sends (zero columns when no
    message of the cell is randomly lossy).  Draws past a row's tape
    come from a deterministic spill stream derived from
    ``spill_seed``.
    """

    comp: np.ndarray
    jit: np.ndarray
    loss: np.ndarray
    comp_scale: float
    spill_seed: int


def _loss_table(
    template: "ScenarioTemplate", faults: Optional[FaultSchedule]
) -> Optional[np.ndarray]:
    """Every message's loss probability by ``(source, destination)``
    satellite index, the ground station as the last column: the
    schedule's ``crosslink_loss`` combined with its per-link table
    exactly as ``Network._lost`` combines it with
    :meth:`FaultSchedule.loss_hook` (downlink blackouts are left to
    the blackout rule).  ``None`` when no message can be lost outside
    a blackout window."""
    if faults is None:
        return None
    roster = template.satellite_count
    uniform = faults.crosslink_loss
    links = faults.link_loss
    if links is None and not faults.blackouts:
        if uniform == 0.0:
            return None
        return np.full((roster, roster + 1), uniform)
    if links is None:
        links = np.zeros((roster, roster + 1))
    table = 1.0 - (1.0 - uniform) * (1.0 - links)
    return table if table.any() else None


def _tape_depth(template: "ScenarioTemplate") -> int:
    """Computations any one replication can start before its outcome is
    decided.  Underlap chains stop once ``(n-2)*L1`` exceeds ``tau``
    (the successor's footprint would arrive past the deadline);
    double-coverage onsets stop at ``tau + L1``.  Both are bounded by
    ``floor(tau / L1) + 3`` columns including the initial computation.
    """
    depth = int(math.floor(template.params.tau / template.geometry.l1)) + 3
    return max(depth, 2)


def draw_protocol_tapes(
    template: "ScenarioTemplate",
    rng: np.random.Generator,
    count: int,
    faults: Optional[FaultSchedule] = None,
) -> ProtocolTapes:
    """Draw the protocol tapes for ``count`` replications from ``rng``
    in the documented order (comp matrix, jitter matrix, loss matrix
    when some message of ``faults`` is randomly lossy, spill seed)."""
    depth = _tape_depth(template)
    # Mirror Exponential(nu).sample / accuracy_model.jittered exactly:
    # same scale expression, same uniform bounds.
    comp_scale = 1.0 / float(template.params.nu)
    comp = rng.exponential(comp_scale, size=(count, depth))
    jit = rng.uniform(_JIT_BOUNDS[0], _JIT_BOUNDS[1], size=(count, depth))
    table = _loss_table(template, faults)
    if table is not None and np.any((table > 0.0) & (table < 1.0)):
        # One cell per request the chain can send, plus the alert.
        loss = rng.random((count, depth + 1))
    else:
        loss = np.empty((count, 0))
    spill_seed = int(rng.integers(0, 2**63, dtype=np.uint64))
    return ProtocolTapes(
        comp=comp, jit=jit, loss=loss, comp_scale=comp_scale, spill_seed=spill_seed
    )


class _TapeRNG(np.random.Generator):
    """Replays one replication's tape row through the
    :class:`numpy.random.Generator` interface the scalar protocol
    expects.  Scalar ``exponential``/``uniform`` calls that match the
    tape's parameters and scalar ``random`` calls (the network's loss
    draws) pop the next tape cell; everything else (tape overflow)
    comes from a deterministic per-row spill stream."""

    def __init__(self, tapes: ProtocolTapes, row: int):
        super().__init__(np.random.PCG64(0))
        self._comp = tapes.comp[row]
        self._comp_scale = tapes.comp_scale
        self._ci = 0
        self._jit = tapes.jit[row]
        self._ji = 0
        self._loss = tapes.loss[row]
        self._li = 0
        self._spill: Optional[np.random.Generator] = None
        self._spill_key = (tapes.spill_seed, row)

    def _spill_rng(self) -> np.random.Generator:
        if self._spill is None:
            self._spill = np.random.default_rng(self._spill_key)
        return self._spill

    def exponential(self, scale=1.0, size=None):  # noqa: D102
        if (
            size is None
            and scale == self._comp_scale
            and self._ci < len(self._comp)
        ):
            value = self._comp[self._ci]
            self._ci += 1
            return value
        return self._spill_rng().exponential(scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):  # noqa: D102
        if (
            size is None
            and self._ji < len(self._jit)
            and (low, high) == _JIT_BOUNDS
        ):
            value = self._jit[self._ji]
            self._ji += 1
            return value
        return self._spill_rng().uniform(low, high, size)

    def random(self, size=None):  # noqa: D102
        if size is None and self._li < len(self._loss):
            value = self._loss[self._li]
            self._li += 1
            return value
        return self._spill_rng().random(size)


def scalar_reference_levels(
    template: "ScenarioTemplate",
    onsets: np.ndarray,
    durations: np.ndarray,
    tapes: ProtocolTapes,
    indices: Optional[np.ndarray] = None,
    faults: Optional[FaultSchedule] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run replications through the scalar event-driven engine, driven
    by the tape rows and the same fault schedule ``faults`` the vector
    engine reads.  This is the reference oracle the vector path is
    pinned against; with ``indices`` it evaluates just the divergence
    mask."""
    if indices is None:
        indices = np.arange(len(onsets))
    levels = np.empty(len(indices), dtype=np.uint8)
    detected = np.empty(len(indices), dtype=bool)
    for out, row in enumerate(indices):
        row = int(row)
        replication = template.replicate(
            _TapeRNG(tapes, row),
            onset_position=float(onsets[row]),
            signal_duration=float(durations[row]),
            faults=faults,
        )
        levels[out], detected[out] = replication.run_level()
    return levels, detected


# ----------------------------------------------------------------------
# Vectorized timelines
# ----------------------------------------------------------------------
def _overlap_levels(
    template: "ScenarioTemplate",
    x: np.ndarray,
    dur: np.ndarray,
    tapes: ProtocolTapes,
    diverge: _Divergence,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Overlapping plane: S1 always detects at t=0; an onset in the
    doubly-covered beta region starts simultaneous, otherwise the
    detector withholds (OAQ) after its initial computation and chained
    double-coverage onsets race the deadline guard.  Returns
    ``(levels, detected, official alert time, detection time)``."""
    geometry = template.geometry
    params = template.params
    l1 = geometry.l1
    tau = params.tau
    delta = params.delta
    tg = params.tg
    alpha = geometry.single_coverage_length
    comp = tapes.comp

    detected = dur > 0.0
    sim0 = x >= alpha
    c1 = comp[:, 0]

    if template.scheme is not Scheme.OAQ:
        # BAQ finalizes right after the initial computation; the
        # estimate is simultaneous iff detection was.
        level = np.where(sim0, 3, 1).astype(np.uint8)
        ok = detected & (c1 <= tau + _TOL)
        return np.where(ok, level, 0).astype(np.uint8), detected, c1, 0.0

    # --- The detector's own alert candidate -------------------------
    # If c1 completes before any double-coverage alert: a simultaneous
    # detection finalizes immediately; a single detection evaluates
    # TC-1/TC-2 (alert at c1) or withholds behind the deadline guard.
    err1 = SINGLE_PASS_KM * tapes.jit[:, 0]
    tc1 = ~sim0 & (err1 <= params.error_threshold_km)
    tc2 = ~sim0 & ~tc1 & (c1 > tau - (1 * delta + tg))
    # Guard fires at armed-time + max(0, deadline - armed-time); mirror
    # the scalar float arithmetic (it is not exactly ``tau``).
    guard_time = c1 + np.maximum(0.0, tau - c1)
    own_time = np.where(sim0 | tc1 | tc2, c1, guard_time)
    best = np.where(detected, own_time, np.inf)
    best_level = np.where(sim0, 3, 1).astype(np.uint8)

    # --- Chained double-coverage onsets -----------------------------
    dc_horizon = tau + l1
    beta_offset = alpha - x
    w0 = np.where(beta_offset > 0.0, beta_offset, beta_offset + l1)
    sched = detected & (w0 <= dc_horizon)
    depth = comp.shape[1]
    s = w0
    prev_s = None
    for m in range(depth - 1):
        if m > 0:
            # The next onset is queued at the previous one, iteratively
            # (s + L1, matching the scalar accumulation), and only if no
            # alert went out by then and the signal is still alive.
            s = prev_s + l1
            diverge.add("tie", sched & (best == prev_s))
            sched = sched & (s <= dc_horizon) & (dur > s) & (best > prev_s)
        if not sched.any():
            break
        # The onset starts a simultaneous computation iff the signal is
        # alive and the detector is still computing or withholding --
        # which, chain-invariantly, reduces to "no alert sent yet".
        diverge.add("tie", sched & (best == s))
        start = sched & (dur > s) & (best > s)
        completion = s + comp[:, m + 1]
        candidate = np.where(start, completion, np.inf)
        diverge.add("tie", start & (candidate == best))
        improve = candidate < best
        best_level = np.where(improve, 3, best_level)
        best = np.where(improve, candidate, best)
        prev_s = s
    else:
        # Tape exhausted with onsets potentially pending: shunt any row
        # whose chain could still extend (cannot happen for the
        # documented depth bound, but never silently mis-model).
        if prev_s is not None:
            s = prev_s + l1
            diverge.add(
                "tape", sched & (s <= dc_horizon) & (dur > s) & (best > prev_s)
            )

    # Detection is at t=0, so latency == alert time.
    ok = detected & (best <= tau + _TOL)
    levels = np.where(ok, best_level, 0).astype(np.uint8)
    return levels, detected, best, 0.0


def _underlap_levels(
    template: "ScenarioTemplate",
    x: np.ndarray,
    dur: np.ndarray,
    tapes: ProtocolTapes,
    diverge: _Divergence,
    faults: Optional[FaultSchedule] = None,
    selector: Optional[np.ndarray] = None,
    losses: Optional[_Losses] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Underlapping plane under done-propagation: the coordination
    chain expands one satellite per cycle.  Pass ``n`` consumes tape
    column ``n-1``; TC-1/TC-2 finalize, a missing successor finalizes,
    a dead signal at the successor's pass triggers TC-3 (the guard
    times out).

    With ``faults``, each row carries the satellite index of its
    current member: the next peer is the first satellite after it the
    (possibly stale) view does not know to have failed, a successor
    already failed at the request's delivery is dead (the guard
    fires), and a live member whose fail time falls at or before the
    row's official alert diverges (``fault_timing``).
    With ``losses``, a lost request is a dead successor, and the
    official alert's sender and recoverability are left on ``losses``.
    Returns ``(levels, detected, official alert time, detection
    time)``."""
    geometry = template.geometry
    params = template.params
    l1 = geometry.l1
    tc_cov = geometry.coverage_time
    tau = params.tau
    delta = params.delta
    tg = params.tg
    thr = params.error_threshold_km
    comp = tapes.comp
    jit = tapes.jit
    roster = template.satellite_count

    count = len(x)
    in_first = x < tc_cov
    # Detector: S1 if the onset lands inside its pass, else S2 once its
    # footprint arrives -- provided the signal survives until then.
    t0 = np.where(in_first, 0.0, l1 - x)
    d = np.where(in_first, 0, 1)
    detected = np.where(in_first, dur > 0.0, dur > l1 - x)

    official_time = np.full(count, np.inf)
    official_level = np.zeros(count, dtype=np.uint8)
    decided = ~detected

    if template.scheme is not Scheme.OAQ:
        t1 = t0 + comp[:, 0]
        latency = t1 - t0
        ok = detected & (latency <= tau + _TOL)
        return np.where(ok, 1, 0).astype(np.uint8), detected, t1, t0

    # (The fault-free, lossless path keeps no member index column: it
    # would raise that path's peak memory.)
    track = faults is not None or losses is not None
    if track:
        member = d.copy()  # satellite index of the current chain member
    if losses is not None:
        sender = d.copy()  # satellite index of the official alert's sender
        recover = np.zeros(count, dtype=bool)
    if faults is not None:
        # Flat fail-time lookup: row ``selector`` of the (2, roster)
        # table, column = satellite index.
        fail_flat = np.ravel(faults.fail_times)
        fail_base = selector * roster

        def fail_at(index: np.ndarray) -> np.ndarray:
            return fail_flat[fail_base + np.minimum(index, roster - 1)]

        live_fail = np.full(count, np.inf)  # earliest live-member fail

    alive = detected.copy()
    start_n = t0.copy()
    err = np.ones(count)
    prev_guard_fire = np.full(count, np.inf)  # G_{n-1}'s actual fire time
    depth = comp.shape[1]
    for n in range(1, depth + 1):
        if not alive.any():
            break
        level_n = 1 if n == 1 else 2
        level_prev = 1 if n - 1 == 1 else 2
        tn = start_n + comp[:, n - 1]
        un = jit[:, n - 1]
        err = np.where(
            alive,
            (SINGLE_PASS_KM * un) if n == 1 else (err * REFINEMENT_FACTOR * un),
            err,
        )

        if n >= 2:
            # The predecessor's guard G_{n-1} = t0 + tau - (n-2)*delta
            # expires before (or exactly when) member n completes: its
            # single/sequential alert is the official one, whatever the
            # chain does afterwards (all later alerts are later sends;
            # on an exact tie the guard's event was scheduled first).
            guarded = alive & (tn >= prev_guard_fire)
            official_time = np.where(guarded, prev_guard_fire, official_time)
            official_level = np.where(guarded, level_prev, official_level)
            if losses is not None:
                sender = np.where(guarded, prev_member, sender)
                if n == 2:
                    # The detector's guard alert: if it is lost, member
                    # 2's own alert (sent at tn or later) still counts
                    # when tn is within the deadline.
                    recover |= guarded & (tn - t0 <= tau + _TOL)
            decided |= guarded
            alive &= ~guarded

        tc1 = err <= thr
        tc2 = (tn - t0) > tau - (n * delta + tg)
        if not track:
            succ_exists = (d + n) < roster
        else:
            succ = member + 1
            if faults is not None and faults.staleness is not None:
                # Skip successors the view (lagging by ``staleness``)
                # knows to have failed by the send time.
                view = tn - faults.staleness
                while True:
                    known = alive & (succ < roster) & (fail_at(succ) <= view)
                    if not known.any():
                        break
                    succ = succ + known
            succ_exists = succ < roster
        finalize = alive & (tc1 | tc2 | ~succ_exists)
        official_time = np.where(finalize, tn, official_time)
        official_level = np.where(finalize, level_n, official_level)
        if losses is not None:
            sender = np.where(finalize, member, sender)
        decided |= finalize
        alive &= ~finalize

        if not alive.any():
            break
        # Member n sends a coordination request (delivered tn + delta)
        # and arms its guard.
        deadline_n = t0 + tau - (n - 1) * delta
        guard_fire_n = tn + np.maximum(0.0, deadline_n - tn)
        arr_next = (succ if track else (d + n)) * l1 - x
        sched_next = arr_next >= tn + delta
        active_next = dur > arr_next

        stopped_next = alive & sched_next & ~active_next  # TC-3
        missed_next = alive & ~sched_next  # pass already gone by
        ended = stopped_next | missed_next
        if faults is not None:
            # A successor failed by the request's delivery never acts.
            fail_next = fail_at(succ)
            ended |= alive & (fail_next <= tn + delta)
        if losses is not None:
            # A lost request is a dead successor.
            ended |= losses.lost(alive, member, np.minimum(succ, roster - 1))
            sender = np.where(ended, member, sender)
        official_time = np.where(ended, guard_fire_n, official_time)
        official_level = np.where(ended, level_n, official_level)
        decided |= ended
        alive &= ~ended

        if faults is not None:
            # The successor is a live participant from here on if it
            # carries the chain.
            live_fail = np.where(
                alive, np.minimum(live_fail, fail_next), live_fail
            )
        if track:
            prev_member = member
            member = np.where(alive, succ, member)

        start_n = np.where(alive, arr_next, start_n)
        prev_guard_fire = np.where(alive, guard_fire_n, prev_guard_fire)

    # Any replication still alive exhausted the tape (cannot happen for
    # the documented depth bound): let the oracle decide it.
    diverge.add("tape", alive)

    if faults is not None:
        # A live member failing at or before the row's official alert
        # changes what the chain does: leave the row to the oracle.
        diverge.add("fault_timing", np.isfinite(live_fail) & (live_fail <= official_time))
    if losses is not None:
        losses.sender = sender
        # A later member's lost alert leaves its predecessors' guards
        # armed.
        recover |= sender != d
        losses.recover = recover

    has_alert = decided & detected & np.isfinite(official_time)
    latency = official_time - t0
    ok = has_alert & (latency <= tau + _TOL)
    levels = np.where(ok, official_level, 0).astype(np.uint8)
    return levels, detected, official_time, t0


def _blackout_levels(
    levels: np.ndarray,
    has_alert: np.ndarray,
    official: np.ndarray,
    t0,
    tau: float,
    blackouts: Tuple[Tuple[float, float], ...],
    diverge: _Divergence,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply downlink blackouts to the official (first-sent) alert.
    Sent outside every window: unchanged.  Sent inside a window that
    outlasts the deadline: every later alert is dropped or late, so
    level 0 exactly.  Inside a shorter window a later alert may still
    count: the row diverges.  Returns the levels and the rows whose
    alert was sent inside a window."""
    zero = np.zeros(len(levels), dtype=bool)
    short = np.zeros(len(levels), dtype=bool)
    for start, end in blackouts:
        # The network's own test on the send time: start <= t < end.
        inside = has_alert & (start <= official) & (official < end)
        outlasts = np.greater(end - t0, tau + _TOL)
        zero |= inside & outlasts
        short |= inside & ~outlasts
    diverge.add("blackout", short & ~zero)
    return np.where(zero, 0, levels).astype(np.uint8), zero | short


def sample_levels_vector(
    template: "ScenarioTemplate",
    rng: np.random.Generator,
    onsets: np.ndarray,
    durations: np.ndarray,
    faults: Optional[FaultSchedule] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The engine behind ``ScenarioTemplate.sample_levels`` (which
    validates the inputs first): one ``(levels, detected)`` pair per
    ``(onset, duration)`` row, protocol randomness drawn from ``rng``
    as tapes, faults injected from ``faults``.  Rows the vector model
    cannot decide exactly are delegated to the scalar oracle on the
    same tape rows and schedule (divergence-mask fallback)."""
    with obs.timer("mc.vector_s"):
        onsets = np.ascontiguousarray(onsets, dtype=float)
        durations = np.ascontiguousarray(durations, dtype=float)
        count = len(onsets)
        tapes = draw_protocol_tapes(template, rng, count, faults)
        diverge = _Divergence(count)
        if template.params.delta <= 0.0:
            # With a zero crosslink delay, guard expiries, done
            # deliveries and completions collapse onto identical
            # timestamps and the outcome hinges on kernel tie-breaking;
            # leave every row to the oracle.
            diverge.add("template", np.ones(count, dtype=bool))
            levels = np.zeros(count, dtype=np.uint8)
            detected = np.zeros(count, dtype=bool)
        else:
            levels, detected = _vector_levels(
                template, onsets, durations, tapes, diverge, faults
            )
        fallback = diverge.union()
        fallback_count = int(np.count_nonzero(fallback))
        if fallback_count:
            indices = np.flatnonzero(fallback)
            with obs.timer("mc.vector.fallback_s"):
                oracle_levels, oracle_detected = scalar_reference_levels(
                    template, onsets, durations, tapes, indices, faults
                )
            levels[indices] = oracle_levels
            detected[indices] = oracle_detected
    obs.count("mc.vector.calls")
    obs.count("mc.vector.replications", count)
    obs.count("mc.vector.fallbacks", fallback_count)
    for reason, mask in diverge.masks.items():
        rows = int(np.count_nonzero(mask))
        if rows:
            obs.count(f"mc.vector.fallbacks.{reason}", rows)
    return levels, detected


def _vector_levels(
    template: "ScenarioTemplate",
    onsets: np.ndarray,
    durations: np.ndarray,
    tapes: ProtocolTapes,
    diverge: _Divergence,
    faults: Optional[FaultSchedule],
) -> Tuple[np.ndarray, np.ndarray]:
    """The vector model's ``(levels, detected)``: the plane's timeline,
    then the faults and losses that act on its official alert."""
    overlapping = template.geometry.overlapping
    table = _loss_table(template, faults)
    losses = selector = None
    if faults is not None:
        # The detector's satellite index (its fail time, the default
        # alert sender).
        detector = (
            0
            if overlapping
            else (onsets >= template.geometry.coverage_time).astype(np.intp)
        )
        selector = _detector_selector(template, onsets).astype(np.intp)
        if table is not None:
            losses = _Losses(table, tapes.loss, detector)
    if overlapping:
        # The withholding form never messages a peer: only the
        # detector's own fate and the downlink matter.
        levels, detected, official, t0 = _overlap_levels(
            template, onsets, durations, tapes, diverge
        )
    else:
        levels, detected, official, t0 = _underlap_levels(
            template, onsets, durations, tapes, diverge, faults, selector, losses
        )
    has_alert = detected & np.isfinite(official)
    sent = has_alert
    if faults is not None:
        fail_detector = faults.fail_times[selector, detector]
        diverge.add("detector_fault", detected & np.isfinite(fail_detector))
        if faults.blackouts:
            levels, blacked_out = _blackout_levels(
                levels,
                has_alert,
                official,
                t0,
                template.params.tau,
                faults.blackouts,
                diverge,
            )
            sent = has_alert & ~blacked_out
    if losses is not None:
        # The official alert's own loss draw, after the chain's
        # requests.  Lost, it leaves level 0 unless a later alert can
        # still replace it.
        lost = losses.lost(sent, losses.sender, template.satellite_count)
        levels = np.where(lost, 0, levels).astype(np.uint8)
        diverge.add("lost_alert", lost & losses.recover)
    return levels, detected

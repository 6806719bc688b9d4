"""Struct-of-arrays vectorized replication of protocol scenarios.

The batched engine of :mod:`repro.simulation.batch` still steps one
Python event loop per replication (~0.1 ms per sample).  This module
runs *R* replications of one :class:`ScenarioTemplate` as a single
vectorized pass: all protocol randomness is drawn up front into
*tapes* (struct-of-arrays columns, one row per replication), and the
deterministic protocol timeline -- detection, the underlap coordination
chain with its guards and done wave, the overlap withholding /
double-coverage onsets, the first-alert early stop -- is advanced with
numpy array ops over per-replication state columns.

Correctness contract
--------------------
The scalar event-driven engine stays the reference oracle.  For every
replication the vector path must produce **exactly** the ``(level,
detected)`` pair the scalar :class:`~repro.simulation.batch.Replication`
produces when driven by the same tape row (see
:func:`scalar_reference_levels`, which replays a tape through
``template.replicate`` via a :class:`numpy.random.Generator` adapter).
Replications whose timeline the vector model does not cover -- lossy
links, custom accuracy models, non-exponential computation times,
exact event-time ties whose resolution depends on kernel scheduling
order -- are collected in a *divergence mask* and shunted to the scalar
oracle, so the vector path only has to model the hot branches, never
every branch.  The fallback fraction is surfaced via
:func:`vector_batch_stats` and the ``mc.vector.fallback_s`` timer.

Draw discipline
---------------
Callers draw the signal variates (onset positions, durations) first --
typically via :func:`~repro.simulation.qos_montecarlo.draw_signal_variates`
on a ``SeedSequence``-spawned generator -- then hand the same generator
here.  The engine consumes it in a fixed, documented order:

1. ``comp``: an ``(R, D)`` matrix of computation durations,
   ``rng.exponential(1/nu, (R, D))``;
2. ``jit``: an ``(R, D)`` matrix of accuracy jitter factors,
   ``rng.uniform(1 - j, 1 + j, (R, D))`` (skipped when ``j == 0``,
   matching the scalar model which draws nothing then);
3. one ``uint64`` spill seed for the oracle's overflow stream.

``D`` bounds the number of computations any replication can start
before its outcome is decided (chain depth / double-coverage onsets are
limited by ``tau`` and the cycle length).  Within a row, tape cells are
consumed in computation-start order for ``comp`` and completion order
for ``jit`` -- exactly the order the scalar protocol draws them.

See ``docs/SIMULATION.md`` ("Vectorized replication engine") for the
user guide and for when to prefer ``engine="vector"`` over
``engine="batch"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.analytic.distributions import Exponential
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.protocol.accuracy_model import GeometricAccuracyModel
from repro.protocol.satellite import MessagingVariant

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.batch import ScenarioTemplate

__all__ = [
    "ProtocolTapes",
    "draw_protocol_tapes",
    "sample_levels_vector",
    "scalar_reference_levels",
    "vector_batch_stats",
    "reset_vector_batch_stats",
]

#: Ground-station deadline tolerance (mirrors
#: ``GroundStation.achieved_level``).
_TOL = 1e-9


def vector_batch_stats() -> Dict[str, float]:
    """Cumulative vector-engine counters for this process: ``calls``
    (vector-path invocations), ``replications`` (total rows processed),
    ``fallbacks`` (rows shunted to the scalar oracle) and the derived
    ``fallback_fraction``.  A view of the ``mc.vector.*`` counters in
    :mod:`repro.obs`."""
    stats = obs.view(obs.MC_VECTOR)
    total = stats["replications"]
    stats["fallback_fraction"] = stats["fallbacks"] / total if total else 0.0
    return stats


def reset_vector_batch_stats() -> None:
    """Zero the vector-engine counters (benchmark hygiene)."""
    obs.reset(*obs.MC_VECTOR.values())


@dataclass
class ProtocolTapes:
    """Pre-drawn protocol randomness for one vectorized pass.

    ``comp[i, c]`` is the duration of the ``c``-th computation
    replication ``i`` starts; ``jit[i, c]`` the jitter factor of the
    ``c``-th estimate it builds (``None`` when the accuracy model is
    jitter-free).  ``fallback_all`` marks templates the vector model
    does not cover at all (the oracle then decides every row, fed by
    deterministic spill streams derived from ``spill_seed``).
    """

    comp: np.ndarray
    jit: Optional[np.ndarray]
    comp_scale: float
    jit_bounds: Optional[Tuple[float, float]]
    spill_seed: int
    fallback_all: bool = False
    reason: Optional[str] = None


def _template_support(template: "ScenarioTemplate") -> Optional[str]:
    """Why the vector fast path cannot model this template (None if it
    can).  Unsupported templates fall back to the scalar oracle for
    every replication -- results stay exact, just not fast."""
    if template._lossy:
        return "lossy crosslinks"
    if template.params.delta <= 0.0:
        # With a zero crosslink delay, guard expiries, done deliveries
        # and completions collapse onto identical timestamps and the
        # outcome hinges on kernel tie-breaking; leave it to the oracle.
        return "zero crosslink delay"
    geometry = template.geometry
    if geometry.overlapping and geometry.single_coverage_length + geometry.l1 <= 0.0:
        return "degenerate overlap (triple-coverage geometry)"
    reference = next(iter(template.satellites.values()))
    comp = reference.computation_time
    model = reference.accuracy_model
    if type(comp) is not Exponential or comp.rate <= 0.0:
        return "non-exponential computation time"
    if type(model) is not GeometricAccuracyModel:
        return "custom accuracy model"
    for satellite in template.satellites.values():
        other_comp = satellite.computation_time
        other_model = satellite.accuracy_model
        if type(other_comp) is not Exponential or other_comp.rate != comp.rate:
            return "heterogeneous computation times"
        if (
            type(other_model) is not GeometricAccuracyModel
            or other_model.single_pass_km != model.single_pass_km
            or other_model.refinement_factor != model.refinement_factor
            or other_model.simultaneous_km != model.simultaneous_km
            or other_model.jitter != model.jitter
        ):
            return "heterogeneous accuracy models"
    return None


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
    template: "ScenarioTemplate", rng: np.random.Generator, count: int
) -> ProtocolTapes:
    """Draw the protocol tapes for ``count`` replications from ``rng``
    in the documented order (comp matrix, jitter matrix, spill seed)."""
    reason = _template_support(template)
    if reason is not None:
        spill_seed = int(rng.integers(0, 2**63, dtype=np.uint64))
        return ProtocolTapes(
            comp=np.empty((count, 0)),
            jit=None,
            comp_scale=0.0,
            jit_bounds=None,
            spill_seed=spill_seed,
            fallback_all=True,
            reason=reason,
        )
    reference = next(iter(template.satellites.values()))
    rate = reference.computation_time.rate
    jitter = reference.accuracy_model.jitter
    depth = _tape_depth(template)
    # Mirror Exponential.sample / GeometricAccuracyModel._jittered
    # exactly: same scale expression, same uniform bounds.
    comp_scale = 1.0 / rate
    comp = rng.exponential(comp_scale, size=(count, depth))
    if jitter > 0.0:
        jit_bounds = (1.0 - jitter, 1.0 + jitter)
        jit = rng.uniform(jit_bounds[0], jit_bounds[1], size=(count, depth))
    else:
        jit_bounds = None
        jit = None
    spill_seed = int(rng.integers(0, 2**63, dtype=np.uint64))
    return ProtocolTapes(
        comp=comp,
        jit=jit,
        comp_scale=comp_scale,
        jit_bounds=jit_bounds,
        spill_seed=spill_seed,
    )


class _TapeRNG(np.random.Generator):
    """Replays one replication's tape row through the
    :class:`numpy.random.Generator` interface the scalar protocol
    expects.  Scalar ``exponential``/``uniform`` calls that match the
    tape's parameters pop the next tape cell; everything else (loss
    draws, empirical-model draws, tape overflow) comes from a
    deterministic per-row spill stream."""

    def __init__(self, tapes: ProtocolTapes, row: int):
        super().__init__(np.random.PCG64(0))
        self._comp = tapes.comp[row]
        self._comp_len = tapes.comp.shape[1]
        self._comp_scale = tapes.comp_scale
        self._ci = 0
        self._jit = None if tapes.jit is None else tapes.jit[row]
        self._jit_bounds = tapes.jit_bounds
        self._ji = 0
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
            and self._ci < self._comp_len
        ):
            value = self._comp[self._ci]
            self._ci += 1
            return value
        return self._spill_rng().exponential(scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):  # noqa: D102
        jit = self._jit
        if (
            size is None
            and jit is not None
            and self._ji < len(jit)
            and (low, high) == self._jit_bounds
        ):
            value = jit[self._ji]
            self._ji += 1
            return value
        return self._spill_rng().uniform(low, high, size)

    def random(self, *args, **kwargs):  # noqa: D102
        return self._spill_rng().random(*args, **kwargs)

    def integers(self, *args, **kwargs):  # noqa: D102
        return self._spill_rng().integers(*args, **kwargs)

    def choice(self, *args, **kwargs):  # noqa: D102
        return self._spill_rng().choice(*args, **kwargs)

    def gamma(self, *args, **kwargs):  # noqa: D102
        return self._spill_rng().gamma(*args, **kwargs)

    def weibull(self, *args, **kwargs):  # noqa: D102
        return self._spill_rng().weibull(*args, **kwargs)

    def normal(self, *args, **kwargs):  # noqa: D102
        return self._spill_rng().normal(*args, **kwargs)


def scalar_reference_levels(
    template: "ScenarioTemplate",
    onsets: np.ndarray,
    durations: np.ndarray,
    tapes: ProtocolTapes,
    indices: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run replications through the scalar event-driven engine, driven
    by the tape rows.  This is the reference oracle the vector path is
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlapping plane: S1 always detects at t=0; an onset in the
    doubly-covered beta region starts simultaneous, otherwise the
    detector withholds (OAQ) after its initial computation and chained
    double-coverage onsets race the deadline guard."""
    geometry = template.geometry
    params = template.params
    model = next(iter(template.satellites.values())).accuracy_model
    l1 = geometry.l1
    tau = params.tau
    delta = params.delta
    tg = params.tg
    alpha = geometry.single_coverage_length
    comp = tapes.comp
    jit = tapes.jit

    count = len(x)
    fallback = np.zeros(count, dtype=bool)
    detected = dur > 0.0
    sim0 = x >= alpha
    c1 = comp[:, 0]

    if template.scheme is not Scheme.OAQ:
        # BAQ finalizes right after the initial computation; the
        # estimate is simultaneous iff detection was.
        level = np.where(sim0, 3, 1).astype(np.uint8)
        ok = detected & (c1 <= tau + _TOL)
        return np.where(ok, level, 0).astype(np.uint8), detected, fallback

    # --- The detector's own alert candidate -------------------------
    # If c1 completes before any double-coverage alert: a simultaneous
    # detection finalizes immediately; a single detection evaluates
    # TC-1/TC-2 (alert at c1) or withholds behind the deadline guard.
    u1 = jit[:, 0] if jit is not None else 1.0
    err1 = model.single_pass_km * u1
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
            fallback |= sched & (best == prev_s)
            sched = sched & (s <= dc_horizon) & (dur > s) & (best > prev_s)
        if not sched.any():
            break
        # The onset starts a simultaneous computation iff the signal is
        # alive and the detector is still computing or withholding --
        # which, chain-invariantly, reduces to "no alert sent yet".
        fallback |= sched & (best == s)
        start = sched & (dur > s) & (best > s)
        completion = s + comp[:, m + 1]
        candidate = np.where(start, completion, np.inf)
        fallback |= start & (candidate == best)
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
            fallback |= sched & (s <= dc_horizon) & (dur > s) & (best > prev_s)

    # Detection is at t=0, so latency == alert time.
    ok = detected & (best <= tau + _TOL)
    levels = np.where(ok, best_level, 0).astype(np.uint8)
    return levels, detected, fallback


def _underlap_levels(
    template: "ScenarioTemplate",
    x: np.ndarray,
    dur: np.ndarray,
    tapes: ProtocolTapes,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Underlapping plane: the coordination chain expands one satellite
    per cycle.  Pass ``n`` consumes tape column ``n-1``; TC-1/TC-2
    finalize, a missing successor finalizes, a dead signal at the
    successor's pass triggers TC-3 (guard timeout under
    done-propagation, inherited delivery under
    successor-responsibility)."""
    geometry = template.geometry
    params = template.params
    model = next(iter(template.satellites.values())).accuracy_model
    l1 = geometry.l1
    tc_cov = geometry.coverage_time
    tau = params.tau
    delta = params.delta
    tg = params.tg
    thr = params.error_threshold_km
    sp = model.single_pass_km
    rf = model.refinement_factor
    comp = tapes.comp
    jit = tapes.jit
    roster = template.satellite_count
    dp = template.variant is MessagingVariant.DONE_PROPAGATION

    count = len(x)
    fallback = np.zeros(count, dtype=bool)
    in_first = x < tc_cov
    # Detector: S1 if the onset lands inside its pass, else S2 once its
    # footprint arrives -- provided the signal survives until then.
    t0 = np.where(in_first, 0.0, l1 - x)
    d = np.where(in_first, 0, 1)
    detected = np.where(in_first, dur > 0.0, dur > l1 - x)

    levels = np.zeros(count, dtype=np.uint8)
    official_time = np.full(count, np.inf)
    official_level = np.zeros(count, dtype=np.uint8)
    # 0 = undecided-and-silent (SR chain died unscheduled): stays level 0.
    decided = ~detected

    if template.scheme is not Scheme.OAQ:
        t1 = t0 + comp[:, 0]
        latency = t1 - t0
        ok = detected & (latency <= tau + _TOL)
        return np.where(ok, 1, 0).astype(np.uint8), detected, fallback

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
        un = jit[:, n - 1] if jit is not None else 1.0
        err = np.where(alive, (sp * un) if n == 1 else (err * rf * un), err)

        if dp and n >= 2:
            # The predecessor's guard G_{n-1} = t0 + tau - (n-2)*delta
            # expires before (or exactly when) member n completes: its
            # single/sequential alert is the official one, whatever the
            # chain does afterwards (all later alerts are later sends;
            # on an exact tie the guard's event was scheduled first).
            guarded = alive & (tn >= prev_guard_fire)
            official_time = np.where(guarded, prev_guard_fire, official_time)
            official_level = np.where(guarded, level_prev, official_level)
            decided |= guarded
            alive &= ~guarded

        tc1 = err <= thr
        tc2 = (tn - t0) > tau - (n * delta + tg)
        succ_exists = (d + n) < roster
        finalize = alive & (tc1 | tc2 | ~succ_exists)
        official_time = np.where(finalize, tn, official_time)
        official_level = np.where(finalize, level_n, official_level)
        decided |= finalize
        alive &= ~finalize

        if not alive.any():
            break
        # Member n sends a coordination request (delivered tn + delta)
        # and, under done-propagation, arms its guard.
        deadline_n = t0 + tau - (n - 1) * delta
        guard_fire_n = tn + np.maximum(0.0, deadline_n - tn)
        arr_next = (d + n) * l1 - x
        sched_next = arr_next >= tn + delta
        active_next = dur > arr_next

        dead_next = alive & sched_next & ~active_next  # TC-3
        missed_next = alive & ~sched_next  # pass already gone by
        if dp:
            tc3 = dead_next | missed_next
            official_time = np.where(tc3, guard_fire_n, official_time)
            official_level = np.where(tc3, level_n, official_level)
            decided |= tc3
        else:
            # Successor-responsibility: a successor that cannot measure
            # delivers the inherited estimate at its arrival; a pass
            # that already went by means no alert at all.
            official_time = np.where(dead_next, arr_next, official_time)
            official_level = np.where(dead_next, level_n, official_level)
            decided |= dead_next | missed_next
        alive &= ~(dead_next | missed_next)

        start_n = np.where(alive, arr_next, start_n)
        prev_guard_fire = np.where(alive, guard_fire_n, prev_guard_fire)

    # Any replication still alive exhausted the tape (cannot happen for
    # the documented depth bound): let the oracle decide it.
    fallback |= alive

    has_alert = decided & detected & np.isfinite(official_time)
    latency = official_time - t0
    ok = has_alert & (latency <= tau + _TOL)
    levels = np.where(ok, official_level, 0).astype(np.uint8)
    return levels, detected, fallback


def sample_levels_vector(
    template: "ScenarioTemplate",
    rng: np.random.Generator,
    onsets: np.ndarray,
    durations: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized counterpart of ``ScenarioTemplate.sample_levels``:
    one ``(levels, detected)`` pair per ``(onset, duration)`` row,
    protocol randomness drawn from ``rng`` as tapes.  Rows the vector
    model cannot decide exactly are delegated to the scalar oracle on
    the same tape rows (divergence-mask fallback)."""
    with obs.timer("mc.vector_s"):
        onsets = np.ascontiguousarray(onsets, dtype=float)
        durations = np.ascontiguousarray(durations, dtype=float)
        count = len(onsets)
        tapes = draw_protocol_tapes(template, rng, count)
        if tapes.fallback_all:
            fallback = np.ones(count, dtype=bool)
            levels = np.zeros(count, dtype=np.uint8)
            detected = np.zeros(count, dtype=bool)
        elif template.geometry.overlapping:
            levels, detected, fallback = _overlap_levels(
                template, onsets, durations, tapes
            )
        else:
            levels, detected, fallback = _underlap_levels(
                template, onsets, durations, tapes
            )
        fallback_count = int(np.count_nonzero(fallback))
        if fallback_count:
            indices = np.flatnonzero(fallback)
            with obs.timer("mc.vector.fallback_s"):
                oracle_levels, oracle_detected = scalar_reference_levels(
                    template, onsets, durations, tapes, indices=indices
                )
            levels[indices] = oracle_levels
            detected[indices] = oracle_detected
    obs.count("mc.vector.calls")
    obs.count("mc.vector.replications", count)
    obs.count("mc.vector.fallbacks", fallback_count)
    return levels, detected

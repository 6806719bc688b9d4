"""Independent discrete-event simulation of the plane-degradation
process.

This deliberately does **not** reuse :mod:`repro.san`: it is a second,
hand-written implementation of the same stochastic process (failures,
in-orbit spares, sustain-at-threshold replacements, scheduled restores,
optional on-orbit repair) used to cross-validate the SAN solution of
``P(k)`` -- two independent codebases agreeing on the stationary
distribution is strong evidence both encode the intended model.

The simulation honours every :class:`~repro.analytic.capacity.\
CapacityModelConfig` field the SAN builders honour: the
``deployment_policy`` variants (``combined`` / ``threshold`` /
``scheduled``) and the optional ``repair_rate_per_hour`` (each failed
satellite independently restored at rate ``rho``; a replacement that
arrives at an already-full plane is discarded, mirroring the SAN's
arrive-or-discard case).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analytic.capacity import CapacityModelConfig
from repro.desim.kernel import Simulator
from repro.errors import ConfigurationError, require_finite, require_integer

__all__ = [
    "PlaneDegradationSimulation",
    "sample_capacity_states",
    "simulate_capacity_distribution",
]


class PlaneDegradationSimulation:
    """DES of one orbital plane's capacity over time (hours)."""

    def __init__(self, config: CapacityModelConfig, *, seed=None):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.simulator = Simulator()
        self.active = config.full_capacity
        self.spares = config.in_orbit_spares
        self.pending = 0
        self._occupancy: Dict[int, float] = {}
        self._last_change = 0.0
        self._warmup = 0.0
        self._failure_event = None
        self._repair_event = None
        self._generation = 0  # invalidates stale replacement arrivals
        self._started = False

    # ------------------------------------------------------------------
    def _record(self) -> None:
        now = self.simulator.now
        start = max(self._last_change, self._warmup)
        if now > start:
            self._occupancy[self.active] = (
                self._occupancy.get(self.active, 0.0) + now - start
            )
        self._last_change = now

    def _schedule_failure(self) -> None:
        if self._failure_event is not None:
            self._failure_event.cancel()
            self._failure_event = None
        if self.active <= 0:
            return
        rate = self.config.failure_rate_per_hour * self.active
        delay = float(self.rng.exponential(1.0 / rate))
        self._failure_event = self.simulator.schedule(delay, self._on_failure)

    def _schedule_repair(self) -> None:
        # Memorylessness makes resampling the aggregate-repair delay at
        # every state change exact; a None (or zero) rate never fires.
        rho = self.config.repair_rate_per_hour
        if rho is None:
            return
        if self._repair_event is not None:
            self._repair_event.cancel()
            self._repair_event = None
        down = self.config.full_capacity - self.active
        rate = rho * down
        if rate <= 0.0:
            return
        delay = float(self.rng.exponential(1.0 / rate))
        self._repair_event = self.simulator.schedule(delay, self._on_repair)

    def _reschedule(self) -> None:
        self._schedule_failure()
        self._schedule_repair()

    def _sustain_threshold(self) -> None:
        """The threshold-trigger policy: launch replacements until
        ``active + pending`` is back at ``eta`` (no-op when spares
        remain or the policy omits the trigger)."""
        if self.config.deployment_policy not in ("combined", "threshold"):
            return
        if self.spares > 0:
            return
        while self.active + self.pending < self.config.threshold:
            self.pending += 1
            self.simulator.schedule(
                self.config.replacement_latency_hours,
                self._on_replacement,
                self._generation,
            )

    def _on_failure(self) -> None:
        self._record()
        self.active -= 1
        if self.spares > 0:
            # In-orbit spare takes over immediately.
            self.spares -= 1
            self.active += 1
        else:
            self._sustain_threshold()
        self._reschedule()

    def _on_replacement(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a scheduled full restore
        self._record()
        self.pending -= 1
        if self.active < self.config.full_capacity:
            self.active += 1
        # else: repair beat the launch to it; the late spare is
        # discarded (the SAN's arrive-or-discard case).
        self._reschedule()

    def _on_repair(self) -> None:
        self._record()
        self.active += 1
        self._reschedule()

    def _on_scheduled(self) -> None:
        self._record()
        self.active = self.config.full_capacity
        self.spares = self.config.in_orbit_spares
        self.pending = 0
        self._generation += 1  # cancel in-flight replacements
        self._reschedule()
        self.simulator.schedule(
            self.config.scheduled_period_hours, self._on_scheduled
        )

    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        self._schedule_failure()
        self._schedule_repair()
        if self.config.deployment_policy in ("combined", "scheduled"):
            self.simulator.schedule(
                self.config.scheduled_period_hours, self._on_scheduled
            )

    def run(
        self, horizon_hours: float, *, warmup_hours: float = 0.0
    ) -> Dict[int, float]:
        """Simulate and return the time-weighted capacity distribution
        over ``(warmup, horizon]``."""
        require_finite("horizon_hours", horizon_hours)
        require_finite("warmup_hours", warmup_hours)
        if horizon_hours <= warmup_hours:
            raise ConfigurationError(
                f"horizon ({horizon_hours}) must exceed warmup ({warmup_hours})"
            )
        self._warmup = warmup_hours
        self._start()
        self.simulator.run_until(horizon_hours)
        self._record()
        total = sum(self._occupancy.values())
        return {k: v / total for k, v in sorted(self._occupancy.items())}

    def capacity_at(self, t_hours: float) -> int:
        """The active-satellite count ``K(t)`` of one trajectory."""
        require_finite("t_hours", t_hours)
        if t_hours < 0:
            raise ConfigurationError(f"t_hours must be >= 0, got {t_hours}")
        self._start()
        self.simulator.run_until(t_hours)
        return self.active


def simulate_capacity_distribution(
    config: CapacityModelConfig,
    *,
    horizon_hours: float = 3.0e6,
    seed: Optional[int] = None,
) -> Dict[int, float]:
    """Convenience wrapper: run one long replication and return the
    empirical ``P(k)`` after a 1e5-hour warm-up."""
    simulation = PlaneDegradationSimulation(config, seed=seed)
    return simulation.run(horizon_hours, warmup_hours=1.0e5)


def sample_capacity_states(
    config: CapacityModelConfig,
    *,
    samples: int,
    warmup_hours: float,
    window_hours: float,
    seed: Optional[int] = None,
) -> List[int]:
    """Independent draws of the stationary capacity ``K``.

    Each of ``samples`` *independent* replications is observed once, at
    a uniformly random time in ``(warmup, warmup + window]`` -- random
    so the draw averages over the deterministic scheduled-restore cycle
    (the process is cyclo-stationary under the scheduled policy, so a
    *fixed* observation time would be biased; pick ``window_hours`` as
    a multiple of ``scheduled_period_hours`` when that policy is
    active).  The returned values are iid, which is what the Wilson
    containment checks need (a single long trajectory's occupancy
    fractions are time-correlated and have no binomial error model).

    Seeding follows the repository convention: replication ``i`` uses
    ``SeedSequence(seed).spawn(samples)[i]``, so results are
    byte-identical across reruns and independent of evaluation order.
    """
    require_integer("samples", samples, 1)
    require_finite("warmup_hours", warmup_hours)
    require_finite("window_hours", window_hours)
    if warmup_hours < 0 or window_hours <= 0:
        raise ConfigurationError(
            f"need warmup_hours >= 0 and window_hours > 0, got "
            f"{warmup_hours}, {window_hours}"
        )
    values: List[int] = []
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        observe = warmup_hours + float(rng.uniform(0.0, window_hours))
        simulation = PlaneDegradationSimulation(config, seed=rng)
        values.append(simulation.capacity_at(observe))
    return values

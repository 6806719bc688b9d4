"""The spare-policy design space: policies, points and grids.

A *design point* is one fully-specified orbital-plane configuration --
a :class:`GroundSparePolicy` (which deployment machinery runs, how
many in-orbit spares, threshold/period/latency/repair parameters)
applied to a plane of a given scale with a given failure rate.  The
grid builders below enumerate the cells the ``optimize`` experiment
sweeps; cells are emitted **grouped by SAN topology** (policy kind,
spare count, threshold, repair presence, scale) so consecutive cells
re-rate one cached assembled quotient instead of thrashing the
assemble cache, exactly like the fixed-topology rate sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analytic.capacity import CapacityModelConfig
from repro.errors import ConfigurationError, check_fields

__all__ = [
    "DesignPoint",
    "GroundSparePolicy",
    "design_grid",
    "grid_topology_count",
    "smoke_grid",
]

#: Valid policy kinds (mirrors ``CapacityModelConfig.deployment_policy``).
POLICY_KINDS = ("combined", "threshold", "scheduled")

#: Paper-reference plane: 14 active satellites.
BASE_CAPACITY = 14

#: Ratio defining the availability floor ``k_min``: the reference
#: plane's underlap-sustain threshold (eta = 10 of 14).
K_MIN_RATIO = 10 / 14


@dataclass(frozen=True)
class GroundSparePolicy:
    """One ground-spare provisioning policy for an orbital plane.

    ``kind`` selects the deployment machinery (``"threshold"``,
    ``"scheduled"`` or the paper's ``"combined"``); the remaining
    fields parameterise it.  ``threshold`` is ignored by the pure
    scheduled policy and ``scheduled_period_hours`` by the pure
    threshold policy (they keep their defaults so equal policies
    compare equal).  ``repair_rate_per_hour`` follows the
    :class:`~repro.analytic.capacity.CapacityModelConfig` convention:
    ``None`` omits on-orbit repair structurally, any float >= 0
    (including exactly 0.0) keeps the repair activity as a rate.
    """

    kind: str = "combined"
    in_orbit_spares: int = 2
    threshold: int = 10
    scheduled_period_hours: float = 30000.0
    replacement_latency_hours: float = 168.0
    repair_rate_per_hour: Optional[float] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in POLICY_KINDS:
            raise ConfigurationError(
                f"policy kind must be one of {POLICY_KINDS}, got "
                f"{self.kind!r}"
            )
        if self.in_orbit_spares < 0:
            raise ConfigurationError(
                f"in_orbit_spares must be >= 0, got {self.in_orbit_spares}"
            )

    def to_config(
        self, *, full_capacity: int, failure_rate_per_hour: float
    ) -> CapacityModelConfig:
        """The capacity-model configuration of this policy applied to a
        plane of ``full_capacity`` satellites (full validation happens
        in :class:`CapacityModelConfig`)."""
        return CapacityModelConfig(
            full_capacity=full_capacity,
            in_orbit_spares=self.in_orbit_spares,
            failure_rate_per_hour=failure_rate_per_hour,
            threshold=self.threshold,
            scheduled_period_hours=self.scheduled_period_hours,
            replacement_latency_hours=self.replacement_latency_hours,
            deployment_policy=self.kind,
            repair_rate_per_hour=self.repair_rate_per_hour,
        )


@dataclass(frozen=True)
class DesignPoint:
    """One cell of the design grid: a policy on a scaled plane."""

    plane_scale: int
    full_capacity: int
    failure_rate_per_hour: float
    policy: GroundSparePolicy

    def __post_init__(self) -> None:
        check_fields(self)
        if self.plane_scale < 1:
            raise ConfigurationError(
                f"plane_scale must be >= 1, got {self.plane_scale}"
            )

    def config(self) -> CapacityModelConfig:
        return self.policy.to_config(
            full_capacity=self.full_capacity,
            failure_rate_per_hour=self.failure_rate_per_hour,
        )

    @property
    def k_min(self) -> int:
        """The availability floor for this plane size (the reference
        plane's eta = 10/14, scaled and rounded up)."""
        return minimum_capacity(self.full_capacity)

    def topology_group(self) -> Tuple:
        """Sort key grouping cells that share one assembled quotient
        (mirrors the capacity topology key's structural fields)."""
        return (
            self.plane_scale,
            self.full_capacity,
            self.policy.in_orbit_spares,
            self.policy.kind,
            self.policy.threshold,
            self.policy.repair_rate_per_hour is not None,
        )


def minimum_capacity(full_capacity: int) -> int:
    """``k_min`` -- the smallest acceptable active count of a plane of
    ``full_capacity`` satellites (scaled from the reference 10-of-14)."""
    return max(1, -(-full_capacity * 10 // 14))  # ceil(full * 10/14)


def _sorted_cells(cells: List[DesignPoint]) -> List[DesignPoint]:
    """Deterministic topology-grouped order: structural fields first,
    then the rate fields."""
    return sorted(
        cells,
        key=lambda c: (
            c.topology_group(),
            c.failure_rate_per_hour,
            c.policy.repair_rate_per_hour
            if c.policy.repair_rate_per_hour is not None
            else -1.0,
            c.policy.replacement_latency_hours,
            c.policy.scheduled_period_hours,
        ),
    )


def design_grid(
    *,
    base_capacity: int = BASE_CAPACITY,
    scales: Sequence[int] = (1, 2),
    base_spares: Sequence[int] = (0, 2, 4),
    failure_rates: Sequence[float] = (1e-5, 5e-5, 1e-4),
    repair_rates: Sequence[Optional[float]] = (0.0, 1e-4, 1e-3),
    eta_offsets: Sequence[int] = (-6, -4, -2),
    latencies: Sequence[float] = (72.0, 168.0, 336.0),
    periods: Sequence[float] = (4380.0, 8760.0, 17520.0),
) -> List[DesignPoint]:
    """The default optimizer grid (1134 cells with the defaults).

    Per ``(scale, spares)`` block the three policy kinds contribute:

    * ``threshold``: eta offsets x failure rates x repair rates x
      replacement latencies (the period is irrelevant without the
      scheduled clock and stays at its default);
    * ``combined``: eta offsets x failure rates x repair rates x
      scheduled periods (latency fixed at the calibrated 168 h);
    * ``scheduled``: failure rates x repair rates x scheduled periods
      (eta is structurally irrelevant without the trigger and is fixed
      at the middle offset so all scheduled cells share one topology).

    Spare counts and eta offsets scale with the plane (``spares * s``,
    ``eta = full + offset * s``), keeping the relative provisioning
    comparable across scales.  The repair-rate axis deliberately
    includes **exactly 0.0** -- the zero-rate cell that must re-rate in
    place on the same topology as its positive-rate neighbours (the
    regression the rerate fix pins).
    """
    mid_eta = eta_offsets[len(eta_offsets) // 2]
    cells: List[DesignPoint] = []
    for scale in scales:
        full = base_capacity * scale
        for spares in base_spares:
            common = dict(
                plane_scale=scale,
                full_capacity=full,
            )
            for lam in failure_rates:
                for rho in repair_rates:
                    for offset in eta_offsets:
                        eta = full + offset * scale
                        for latency in latencies:
                            cells.append(
                                DesignPoint(
                                    failure_rate_per_hour=lam,
                                    policy=GroundSparePolicy(
                                        kind="threshold",
                                        in_orbit_spares=spares * scale,
                                        threshold=eta,
                                        replacement_latency_hours=latency,
                                        repair_rate_per_hour=rho,
                                    ),
                                    **common,
                                )
                            )
                        for period in periods:
                            cells.append(
                                DesignPoint(
                                    failure_rate_per_hour=lam,
                                    policy=GroundSparePolicy(
                                        kind="combined",
                                        in_orbit_spares=spares * scale,
                                        threshold=eta,
                                        scheduled_period_hours=period,
                                        repair_rate_per_hour=rho,
                                    ),
                                    **common,
                                )
                            )
                    for period in periods:
                        cells.append(
                            DesignPoint(
                                failure_rate_per_hour=lam,
                                policy=GroundSparePolicy(
                                    kind="scheduled",
                                    in_orbit_spares=spares * scale,
                                    threshold=full + mid_eta * scale,
                                    scheduled_period_hours=period,
                                    repair_rate_per_hour=rho,
                                ),
                                **common,
                            )
                        )
    return _sorted_cells(cells)


def smoke_grid() -> List[DesignPoint]:
    """The tier-1 smoke grid (24 cells, scale 1 only): two spare
    counts, two failure rates, repair structurally absent (``None``)
    versus present at rate zero (``0.0``), one representative cell
    family per policy kind.  Small enough for the golden regression
    test, broad enough to cross every structural axis -- and the
    golden pins the invariant that the ``None`` and ``0.0`` repair
    variants produce identical ``P(k)`` on distinct topologies."""
    return _sorted_cells(
        design_grid(
            scales=(1,),
            base_spares=(0, 2),
            failure_rates=(1e-5, 1e-4),
            repair_rates=(None, 0.0),
            eta_offsets=(-4,),
            latencies=(168.0,),
            periods=(8760.0,),
        )
    )


def grid_topology_count(cells: Sequence[DesignPoint]) -> int:
    """Distinct SAN topologies a grid touches (diagnostic)."""
    return len({cell.topology_group() for cell in cells})

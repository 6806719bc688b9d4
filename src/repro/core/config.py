"""Configuration objects shared by the analytic model, the simulators
and the protocol (paper Sections 2 and 4).

Two dataclasses capture the paper's parameter space:

* :class:`ConstellationConfig` -- the static design of the reference RF
  geolocation constellation (7 planes x 14 active satellites + 2
  in-orbit spares, 90-minute period, 9-minute coverage time);
* :class:`EvaluationParams` -- the per-experiment knobs of Section 4
  (deadline ``tau``, signal-termination rate ``mu``, computation rate
  ``nu``, node-failure rate ``lambda``, deployment threshold ``eta``
  and scheduled-deployment period ``phi``).

Time units follow the paper: the QoS model is in **minutes** (``tau``,
``theta``, ``Tc``; ``mu`` and ``nu`` per minute), the capacity model in
**hours** (``phi``, the replacement latency; ``lambda`` per hour).  Every
field name carries its unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, check_fields, require_finite
from repro.geometry.plane import PlaneGeometry

__all__ = ["ConstellationConfig", "EvaluationParams", "REFERENCE_CONSTELLATION"]


@dataclass(frozen=True)
class ConstellationConfig:
    """Static design parameters of a constellation.

    Attributes
    ----------
    planes:
        Number of orbital planes (7 in the reference design).
    active_per_plane:
        Satellites intended to be actively in service per plane (14).
    in_orbit_spares_per_plane:
        In-orbit spares that can replace failed satellites in the same
        plane (2).
    orbit_period_minutes:
        ``theta`` -- time to orbit through a plane (90 minutes).
    coverage_time_minutes:
        ``Tc`` -- maximum single-footprint dwell time (9 minutes).
    """

    planes: int = 7
    active_per_plane: int = 14
    in_orbit_spares_per_plane: int = 2
    orbit_period_minutes: float = 90.0
    coverage_time_minutes: float = 9.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.planes < 1:
            raise ConfigurationError(f"planes must be >= 1, got {self.planes}")
        if self.active_per_plane < 1:
            raise ConfigurationError(
                f"active_per_plane must be >= 1, got {self.active_per_plane}"
            )
        if self.in_orbit_spares_per_plane < 0:
            raise ConfigurationError(
                "in_orbit_spares_per_plane must be >= 0, got "
                f"{self.in_orbit_spares_per_plane}"
            )
        # Delegate period/coverage validation to PlaneGeometry.
        self.plane_geometry(self.active_per_plane)

    def plane_geometry(self, active_satellites: int) -> PlaneGeometry:
        """Geometry of one plane with ``k`` active satellites."""
        return PlaneGeometry(
            orbit_period=self.orbit_period_minutes,
            coverage_time=self.coverage_time_minutes,
            active_satellites=active_satellites,
        )


#: The JPL reference RF geolocation constellation of the paper.
REFERENCE_CONSTELLATION = ConstellationConfig()


@dataclass(frozen=True)
class EvaluationParams:
    """Per-experiment parameters of the paper's Section 4 evaluation.

    Attributes
    ----------
    deadline_minutes:
        ``tau`` -- alert-message-delivery deadline, measured from the
        initial detection (5 minutes in the paper's experiments).
    signal_termination_rate:
        ``mu`` -- rate of the exponential signal duration, per minute
        (0.2 or 0.5 in the paper).
    computation_rate:
        ``nu`` -- rate of the exponential iterative-geolocation
        computation time, per minute (30 in the paper).
    node_failure_rate_per_hour:
        ``lambda`` -- per-satellite failure rate, per hour (swept over
        ``[1e-5, 1e-4]``).
    deployment_threshold:
        ``eta`` -- ground-spare deployment triggers when the number of
        operational satellites in a plane drops to this value (10 in
        Fig. 7, 12 in Figs. 8-9).
    scheduled_deployment_hours:
        ``phi`` -- period of the scheduled ground-spare deployment
        (30000 hours).
    replacement_latency_hours:
        Launch-to-arrival latency of a threshold-triggered replacement
        ground spare.  The paper does not publish this value, but its
        Fig. 7 requires it to be non-zero (``k = eta - 1`` is reachable
        while ``P(k = eta)`` dominates at high ``lambda``).  The default
        is our calibration; see EXPERIMENTS.md.
    crosslink_delay_minutes:
        ``delta`` -- maximum inter-satellite message-delivery delay used
        by the protocol's TC-2 threshold.
    geolocation_time_minutes:
        ``Tg`` -- maximum time for one geolocation computation, used by
        the protocol's TC-2 threshold.
    error_threshold_km:
        TC-1 -- estimated-error threshold below which coordination
        stops because the result is already good enough.
    """

    deadline_minutes: float = 5.0
    signal_termination_rate: float = 0.2
    computation_rate: float = 30.0
    node_failure_rate_per_hour: float = 1e-5
    deployment_threshold: int = 10
    scheduled_deployment_hours: float = 30000.0
    replacement_latency_hours: float = 168.0
    crosslink_delay_minutes: float = 0.05
    geolocation_time_minutes: float = 0.5
    error_threshold_km: float = 1.0
    constellation: ConstellationConfig = field(default_factory=ConstellationConfig)

    def __post_init__(self) -> None:
        # NaN and +-inf are rejected by name (check_fields): past this
        # point an infinite deadline overflows the protocol's tape
        # sizing and an infinite rate breaks the closed forms'
        # normalisation.
        check_fields(self)
        for name, positive in (
            ("deadline_minutes", False),
            ("signal_termination_rate", True),
            ("computation_rate", True),
            ("node_failure_rate_per_hour", True),
            ("scheduled_deployment_hours", True),
            ("replacement_latency_hours", True),
            ("crosslink_delay_minutes", False),
            ("geolocation_time_minutes", False),
            ("error_threshold_km", False),
        ):
            require_finite(name, getattr(self, name), 0, strict=positive)
        if not 1 <= self.deployment_threshold <= self.constellation.active_per_plane:
            raise ConfigurationError(
                "deployment_threshold must be an integer between 1 and "
                f"active_per_plane, got {self.deployment_threshold!r}"
            )

    # Convenience aliases matching the paper's notation ----------------
    @property
    def tau(self) -> float:
        """Deadline ``tau`` (minutes)."""
        return self.deadline_minutes

    @property
    def mu(self) -> float:
        """Signal-termination rate ``mu`` (per minute)."""
        return self.signal_termination_rate

    @property
    def nu(self) -> float:
        """Computation-completion rate ``nu`` (per minute)."""
        return self.computation_rate

    @property
    def lam(self) -> float:
        """Node-failure rate ``lambda`` (per hour)."""
        return self.node_failure_rate_per_hour

    @property
    def eta(self) -> int:
        """Deployment threshold ``eta``."""
        return self.deployment_threshold

    @property
    def phi(self) -> float:
        """Scheduled-deployment period ``phi`` (hours)."""
        return self.scheduled_deployment_hours

    @property
    def delta(self) -> float:
        """Crosslink delay ``delta`` (minutes)."""
        return self.crosslink_delay_minutes

    @property
    def tg(self) -> float:
        """Geolocation computation bound ``Tg`` (minutes)."""
        return self.geolocation_time_minutes


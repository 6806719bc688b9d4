"""End-to-end integration scenarios: orbits + measurements + WLS.

These scenarios quantify, with the *real* estimation stack, the
accuracy behind each QoS level of the paper's spectrum -- the premise
(Section 3.1) that more coverage means better geolocation:

* **level 1** -- a single satellite pass (few measurements, elongated
  error ellipse from the across-track ambiguity);
* **level 2** -- sequential dual coverage: a second satellite revisits
  ``Tr[k]`` minutes later and its pass is folded in by sequential
  localization;
* **level 3** -- simultaneous dual coverage: two adjacent satellites
  observe the emitter during the overlap window at the same time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.qos import QoSLevel
from repro.errors import ConfigurationError
from repro.geolocation.measurements import Emitter, MeasurementGenerator
from repro.geolocation.sequential import SequentialLocalizer
from repro.geolocation.wls import WLSEstimator
from repro.orbits.constellation import OrbitalPlane
from repro.orbits.bodies import EARTH
from repro.orbits.footprint import half_angle_for_coverage_time
from repro.orbits.frames import GeodeticPoint, subsatellite_point

__all__ = ["CoverageAccuracyScenario", "LevelAccuracy"]


@dataclass(frozen=True)
class LevelAccuracy:
    """Accuracy statistics for one QoS level over Monte-Carlo trials."""

    level: QoSLevel
    median_error_km: float
    mean_estimated_error_km: float
    trials: int


#: The reference plane's orbit period (minutes).
ORBIT_PERIOD_MINUTES = 90.0


class CoverageAccuracyScenario:
    """Measures geolocation accuracy per coverage pattern.

    Parameters
    ----------
    active_satellites:
        ``k`` for the plane under study.
    measurements_per_pass:
        Doppler samples each satellite collects while the emitter is in
        its footprint (the paper's satellites are capacity-constrained,
        so keep this small).

    The plane is the reference one (90-minute orbits at 85 degrees,
    ``Tc = 9`` minutes); Doppler noise is 10 Hz on a 900 MHz emitter
    0.7 degrees off the ground track (the near-centre-line worst case).
    """

    def __init__(
        self,
        *,
        active_satellites: int = 12,
        measurements_per_pass: int = 6,
    ):
        if active_satellites < 2:
            raise ConfigurationError(
                f"need at least 2 satellites, got {active_satellites}"
            )
        if measurements_per_pass < 3:
            raise ConfigurationError(
                f"need >= 3 measurements per pass, got {measurements_per_pass}"
            )
        period_s = ORBIT_PERIOD_MINUTES * 60.0
        altitude_km = EARTH.semi_major_axis_km(period_s) - EARTH.radius_km
        self.plane = OrbitalPlane(
            plane_index=0,
            altitude_km=altitude_km,
            inclination=math.radians(85.0),
            raan=0.0,
            active_count=active_satellites,
        )
        self.footprint_half_angle = half_angle_for_coverage_time(
            ORBIT_PERIOD_MINUTES, 9.0
        )
        self.measurements_per_pass = measurements_per_pass
        # Reference pass: satellite 0 crosses the target latitude around
        # t such that the sub-satellite point is near 30 degrees.
        self._reference_time_s = self._time_at_latitude(math.radians(30.0))

    def _time_at_latitude(self, latitude: float) -> float:
        """First time satellite 0's sub-satellite latitude reaches
        ``latitude`` (coarse scan + refinement)."""
        satellite = self.plane.satellites[0]
        period = satellite.orbit.period_s()
        best_t, best_gap = 0.0, float("inf")
        for t in np.arange(0.0, period, 5.0):
            point = subsatellite_point(satellite.position_ecef(float(t)))
            gap = abs(point.latitude - latitude)
            if gap < best_gap:
                best_gap, best_t = gap, float(t)
        return best_t

    def _make_emitter(self) -> Emitter:
        satellite = self.plane.satellites[0]
        track_point = subsatellite_point(
            satellite.position_ecef(self._reference_time_s)
        )
        location = GeodeticPoint(
            track_point.latitude,
            track_point.longitude + math.radians(0.7),
        )
        return Emitter(location, 900.0e6)

    def _pass_times(self, pass_center_s: float) -> np.ndarray:
        """Measurement epochs across one footprint dwell."""
        half_window = 0.5 * 60.0 * (
            self.footprint_half_angle * ORBIT_PERIOD_MINUTES / math.pi
        )
        return np.linspace(
            pass_center_s - 0.8 * half_window,
            pass_center_s + 0.8 * half_window,
            self.measurements_per_pass,
        )

    def _joint_visibility_times(
        self,
        generator: MeasurementGenerator,
        first,
        partner,
        t_ref: float,
    ) -> np.ndarray:
        """Epochs at which *both* satellites cover the emitter (the
        overlap window of a simultaneous dual coverage)."""
        scan = np.arange(t_ref - 600.0, t_ref + 900.0, 10.0)
        joint = [
            float(t)
            for t in scan
            if generator.visible(first, float(t))
            and generator.visible(partner, float(t))
        ]
        if len(joint) < 2:
            raise ConfigurationError(
                "no overlap window: the plane underlaps at this capacity"
            )
        return np.linspace(joint[0], joint[-1], self.measurements_per_pass)

    def _trial(
        self,
        level: QoSLevel,
        rng: np.random.Generator,
    ) -> "Optional[Tuple[float, float]]":
        """One Monte-Carlo trial: returns (true error, estimated error)
        in km, or None when no measurements were collected."""
        emitter = self._make_emitter()
        generator = MeasurementGenerator(
            emitter,
            doppler_sigma_hz=10.0,
            footprint_half_angle=self.footprint_half_angle,
        )
        first = self.plane.satellites[0]
        partner = self.plane.satellites[-1]
        t_ref = self._reference_time_s
        revisit_s = 60.0 * ORBIT_PERIOD_MINUTES / self.plane.active_count
        # Warm-start near the reference pass centre: the coarse position
        # any detection already provides (the footprint that saw the
        # signal).
        localizer = SequentialLocalizer(
            WLSEstimator(),
            initial_guess=subsatellite_point(first.position_ecef(t_ref)),
        )
        # All levels share the same base observation window (the overlap
        # window, where the comparison is meaningful): what varies is
        # *who else* observes, exactly as in the paper's QoS spectrum.
        times = self._joint_visibility_times(generator, first, partner, t_ref)
        batch = generator.observe(first, times, rng)
        if level is QoSLevel.SIMULTANEOUS_DUAL:
            # The adjacent satellite observes at the same instants.
            batch = batch + generator.observe(partner, times, rng)
        if not batch:
            return None
        result = localizer.add_pass(batch)
        if level is QoSLevel.SEQUENTIAL_DUAL:
            # The next satellite revisits: same emitter, measured one
            # revisit period later around its own pass centre.
            second = generator.observe(
                partner, self._pass_times(t_ref + revisit_s), rng
            )
            if second:
                result = localizer.add_pass(second)
        return result.error_km(emitter.location), result.horizontal_error_km

    def run_level(
        self,
        level: QoSLevel,
        *,
        trials: int = 20,
        seed: Optional[int] = None,
    ) -> LevelAccuracy:
        """Monte-Carlo accuracy for one coverage pattern."""
        if level is QoSLevel.MISSED:
            raise ConfigurationError("level 0 has no accuracy to measure")
        rng = np.random.default_rng(seed)
        errors: List[float] = []
        estimated: List[float] = []
        for _ in range(trials):
            outcome = self._trial(level, rng)
            if outcome is None:
                continue
            errors.append(outcome[0])
            estimated.append(outcome[1])
        if not errors:
            raise ConfigurationError(
                "no trials produced measurements; check the geometry"
            )
        finite_estimates = [e for e in estimated if math.isfinite(e)]
        return LevelAccuracy(
            level=level,
            median_error_km=float(np.median(errors)),
            mean_estimated_error_km=(
                float(np.mean(finite_estimates))
                if finite_estimates
                else float("inf")
            ),
            trials=len(errors),
        )

    def run_all_levels(
        self, *, trials: int = 20, seed: Optional[int] = None
    ) -> Dict[QoSLevel, LevelAccuracy]:
        """Accuracy for levels 1-3 (keyed by level)."""
        results = {}
        for offset, level in enumerate(
            (QoSLevel.SINGLE, QoSLevel.SEQUENTIAL_DUAL, QoSLevel.SIMULTANEOUS_DUAL)
        ):
            results[level] = self.run_level(
                level, trials=trials, seed=None if seed is None else seed + offset
            )
        return results

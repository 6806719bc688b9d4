"""Iterative weighted-least-squares emitter geolocation.

The estimator behind the paper's QoS levels: Gauss-Newton iteration on
the measurement residuals, estimating the emitter's latitude and
longitude (the emitter is constrained to the Earth's surface) and,
for Doppler measurements, the unknown transmitted frequency.

Why more coverage means better QoS:

* a *single pass* of Doppler measurements leaves a near-mirror
  **ambiguity** about the ground track (Levanon 1998) and a thin error
  ellipse across it -- the paper's QoS level 1;
* a second satellite pass (sequential, level 2) or a simultaneous
  second satellite (level 3) observes the emitter from a different
  geometry, collapsing the ambiguity and shrinking the error
  covariance dramatically.

:func:`WLSEstimator.solve_multistart` exposes the ambiguity explicitly
by running Gauss-Newton from mirrored initial guesses and reporting the
distinct local solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.geolocation.measurements import (
    Measurement,
    range_km,
    received_frequency_hz,
)
from repro.orbits.bodies import EARTH
from repro.orbits.frames import GeodeticPoint, geodetic_to_ecef, great_circle_distance_km

__all__ = ["GeolocationResult", "WLSEstimator"]


@dataclass(frozen=True)
class GeolocationResult:
    """Outcome of a WLS geolocation solve.

    Attributes
    ----------
    estimate:
        Estimated emitter position (surface point).
    frequency_hz:
        Estimated transmitted frequency (Doppler solves only).
    covariance:
        Parameter covariance in solver units (rad/rad/Hz); use
        :attr:`horizontal_error_km` for the position summary.
    residual_rms:
        Root-mean-square of the weighted residuals at the solution
        (≈1 when the model and noise are consistent).
    iterations:
        Gauss-Newton iterations used.
    converged:
        Whether the step size dropped below tolerance.
    """

    estimate: GeodeticPoint
    frequency_hz: Optional[float]
    covariance: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool

    @property
    def horizontal_error_km(self) -> float:
        """1-sigma horizontal position uncertainty (km), from the
        covariance of the latitude/longitude estimates."""
        lat_var = float(self.covariance[0, 0])
        lon_var = float(self.covariance[1, 1])
        lat = self.estimate.latitude
        radius = EARTH.radius_km
        north = radius * math.sqrt(max(lat_var, 0.0))
        east = radius * math.cos(lat) * math.sqrt(max(lon_var, 0.0))
        return math.hypot(north, east)

    def error_km(self, truth: GeodeticPoint) -> float:
        """Great-circle distance from the estimate to the true emitter
        position (km)."""
        return great_circle_distance_km(self.estimate, truth)


#: Gauss-Newton iteration cap, and the position step (radians) below
#: which the iteration has converged.
MAX_ITERATIONS = 50
TOLERANCE_RAD = 1e-10
#: Multistart solutions closer than this (km) are one solution.
DISTINCT_KM = 25.0


class WLSEstimator:
    """Gauss-Newton weighted least squares on emitter measurements.

    With Doppler measurements the transmitted frequency is an unknown
    too (Doppler-only geolocation of non-cooperative emitters).
    """

    # ------------------------------------------------------------------
    # Model
    # ------------------------------------------------------------------
    def _predict(
        self, measurement: Measurement, lat: float, lon: float, freq: float
    ) -> float:
        # Finite-difference probes can push the latitude marginally past
        # a pole; clamp before constructing the (validating) point.
        lat = max(-math.pi / 2, min(math.pi / 2, lat))
        emitter = geodetic_to_ecef(GeodeticPoint(lat, lon, 0.0))
        if measurement.kind == "doppler":
            return received_frequency_hz(
                measurement.satellite_position_ecef,
                measurement.satellite_velocity_ecef,
                emitter,
                freq,
            )
        return range_km(measurement.satellite_position_ecef, emitter)

    def _parameter_count(self, measurements: Sequence[Measurement]) -> int:
        has_doppler = any(m.kind == "doppler" for m in measurements)
        return 3 if has_doppler else 2

    def _residuals_and_jacobian(
        self,
        measurements: Sequence[Measurement],
        theta: np.ndarray,
        nominal_frequency: float,
    ) -> "tuple[np.ndarray, np.ndarray]":
        n_params = len(theta)
        lat, lon = float(theta[0]), float(theta[1])
        freq = float(theta[2]) if n_params == 3 else nominal_frequency
        residuals = np.empty(len(measurements))
        jacobian = np.empty((len(measurements), n_params))
        # Finite-difference steps: ~0.6 m on the ground, 1e-3 Hz.
        steps = [1e-7, 1e-7, 1e-3][:n_params]
        for i, measurement in enumerate(measurements):
            predicted = self._predict(measurement, lat, lon, freq)
            residuals[i] = (measurement.value - predicted) / measurement.sigma
            for j, step in enumerate(steps):
                perturbed = theta.copy()
                perturbed[j] += step
                p_lat, p_lon = float(perturbed[0]), float(perturbed[1])
                p_freq = float(perturbed[2]) if n_params == 3 else nominal_frequency
                shifted = self._predict(measurement, p_lat, p_lon, p_freq)
                jacobian[i, j] = (shifted - predicted) / (step * measurement.sigma)
        return residuals, jacobian

    # ------------------------------------------------------------------
    # Solver
    # ------------------------------------------------------------------
    def solve(
        self,
        measurements: Sequence[Measurement],
        initial_guess: GeodeticPoint,
    ) -> GeolocationResult:
        """Run Gauss-Newton from ``initial_guess``.

        The transmitted frequency is seeded with the mean observed
        Doppler value, which is within ~30 ppm of truth for LEO
        geometry.
        """
        measurements = list(measurements)
        if not measurements:
            raise ConfigurationError("no measurements supplied")
        n_params = self._parameter_count(measurements)
        if len(measurements) < n_params:
            raise ConfigurationError(
                f"need at least {n_params} measurements, got {len(measurements)}"
            )
        doppler_values = [m.value for m in measurements if m.kind == "doppler"]
        nominal_frequency_hz = float(np.mean(doppler_values)) if doppler_values else 0.0
        theta = np.array(
            [initial_guess.latitude, initial_guess.longitude, nominal_frequency_hz][
                :n_params
            ]
        )

        def clamp(vector: np.ndarray) -> np.ndarray:
            vector = vector.copy()
            vector[0] = max(-math.pi / 2, min(math.pi / 2, float(vector[0])))
            return vector

        def sum_squares(vector: np.ndarray) -> float:
            lat, lon = float(vector[0]), float(vector[1])
            freq = float(vector[2]) if n_params == 3 else nominal_frequency_hz
            total = 0.0
            for measurement in measurements:
                predicted = self._predict(measurement, lat, lon, freq)
                total += ((measurement.value - predicted) / measurement.sigma) ** 2
            return total

        # Levenberg-Marquardt: Gauss-Newton with adaptive damping, which
        # keeps iterations stable when the initial guess sits on the
        # ground track (where the across-track direction is nearly
        # unobservable from a single pass).
        converged = False
        iterations = 0
        damping = 1e-3
        residuals = np.zeros(len(measurements))
        jacobian = np.zeros((len(measurements), n_params))
        current_sse = sum_squares(theta)
        for iterations in range(1, MAX_ITERATIONS + 1):
            residuals, jacobian = self._residuals_and_jacobian(
                measurements, theta, nominal_frequency_hz
            )
            normal = jacobian.T @ jacobian
            gradient = jacobian.T @ residuals
            scale = np.diag(np.clip(np.diag(normal), 1e-30, None))
            accepted = False
            step = np.zeros(n_params)
            for _ in range(12):
                try:
                    step = np.linalg.solve(normal + damping * scale, gradient)
                except np.linalg.LinAlgError:
                    damping *= 10.0
                    continue
                candidate = clamp(theta + step)
                candidate_sse = sum_squares(candidate)
                if candidate_sse <= current_sse:
                    theta = candidate
                    current_sse = candidate_sse
                    damping = max(damping / 3.0, 1e-12)
                    accepted = True
                    break
                damping *= 10.0
            if not accepted:
                # Damping exhausted: we are at a (local) minimum up to
                # numerical precision.
                converged = True
                break
            if float(np.max(np.abs(step[:2]))) < TOLERANCE_RAD:
                converged = True
                break
        try:
            covariance = np.linalg.inv(jacobian.T @ jacobian)
        except np.linalg.LinAlgError:
            covariance = np.full((n_params, n_params), np.inf)
        rms = float(np.sqrt(np.mean(residuals**2)))
        return GeolocationResult(
            estimate=GeodeticPoint(float(theta[0]), float(theta[1]), 0.0),
            frequency_hz=float(theta[2]) if n_params == 3 else None,
            covariance=covariance,
            residual_rms=rms,
            iterations=iterations,
            converged=converged,
        )

    def solve_multistart(
        self,
        measurements: Sequence[Measurement],
        initial_guesses: Sequence[GeodeticPoint],
    ) -> List[GeolocationResult]:
        """Run :meth:`solve` from several initial guesses and return the
        distinct converged solutions (at least ``DISTINCT_KM`` apart),
        best residual first.

        With a single satellite pass this typically returns **two**
        solutions (the ground-track mirror ambiguity); with measurements
        from two satellites it collapses to one.
        """
        solutions: List[GeolocationResult] = []
        for guess in initial_guesses:
            try:
                result = self.solve(measurements, guess)
            except SolverError:
                continue
            if not result.converged:
                continue
            if any(
                result.estimate is not None
                and great_circle_distance_km(result.estimate, other.estimate)
                < DISTINCT_KM
                for other in solutions
            ):
                continue
            solutions.append(result)
        solutions.sort(key=lambda r: r.residual_rms)
        return solutions

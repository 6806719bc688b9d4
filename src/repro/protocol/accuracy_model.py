"""Accuracy models plugged into the protocol simulation.

The protocol needs to know what error a geolocation iteration yields so
TC-1 (error below threshold) can be evaluated.  :class:`AccuracyModel`
is the interface a scenario's ``accuracy_model=`` hook accepts, and
:class:`GeometricAccuracyModel` the one implementation: a synthetic
model capturing the qualitative facts from the sequential-localization
literature the paper builds on -- a single-coverage result is coarse
(ground-track mirror ambiguity), each sequential pass shrinks the error
by a constant factor, and a simultaneous dual coverage is dramatically
better ("the ambiguity problem will practically disappear").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
import numpy as np

from repro.errors import ConfigurationError

__all__ = ["AccuracyModel", "GeometricAccuracyModel"]


class AccuracyModel(ABC):
    """Maps coverage pedigree to an estimated geolocation error."""

    @abstractmethod
    def single_pass_error_km(self, rng: np.random.Generator) -> float:
        """Error of an initial, single-coverage result."""

    @abstractmethod
    def refined_error_km(
        self, previous_error_km: float, passes: int, rng: np.random.Generator
    ) -> float:
        """Error after one more sequential refinement iteration
        (``passes`` counts all contributing satellites so far)."""

    @abstractmethod
    def simultaneous_error_km(self, rng: np.random.Generator) -> float:
        """Error of a simultaneous-dual-coverage result."""


class GeometricAccuracyModel(AccuracyModel):
    """Synthetic accuracy: deterministic factors with optional jitter.

    Defaults reflect single-pass Doppler geolocation at LEO: tens of km
    for one pass (driven by the across-track ambiguity), a ~4x
    improvement per sequential pass, and sub-km accuracy from
    simultaneous dual coverage.
    """

    def __init__(
        self,
        *,
        single_pass_km: float = 40.0,
        refinement_factor: float = 0.25,
        simultaneous_km: float = 0.5,
        jitter: float = 0.1,
    ):
        if single_pass_km <= 0 or simultaneous_km <= 0:
            raise ConfigurationError("error magnitudes must be positive")
        if not 0.0 < refinement_factor < 1.0:
            raise ConfigurationError(
                f"refinement_factor must be in (0, 1), got {refinement_factor}"
            )
        if not 0.0 <= jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {jitter}")
        self.single_pass_km = single_pass_km
        self.refinement_factor = refinement_factor
        self.simultaneous_km = simultaneous_km
        self.jitter = jitter

    def _jittered(self, value: float, rng: np.random.Generator) -> float:
        if self.jitter == 0.0:
            return value
        return value * float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))

    def single_pass_error_km(self, rng: np.random.Generator) -> float:
        return self._jittered(self.single_pass_km, rng)

    def refined_error_km(
        self, previous_error_km: float, passes: int, rng: np.random.Generator
    ) -> float:
        return self._jittered(previous_error_km * self.refinement_factor, rng)

    def simultaneous_error_km(self, rng: np.random.Generator) -> float:
        return self._jittered(self.simultaneous_km, rng)

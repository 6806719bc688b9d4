"""Sequential localization: iterative accuracy refinement across
satellite passes (paper Section 3.1; Levanon 1998, Chan & Towers 1992).

Each satellite that (re)visits the emitter contributes a batch of
measurements.  The localizer accumulates batches, re-solves the WLS
problem warm-started from the previous estimate, and tracks the
estimated error -- the quantity the OAQ protocol's termination
condition TC-1 compares against its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.geolocation.measurements import Measurement
from repro.geolocation.wls import GeolocationResult, WLSEstimator
from repro.orbits.frames import GeodeticPoint, subsatellite_point

__all__ = ["PassRecord", "SequentialLocalizer"]


@dataclass(frozen=True)
class PassRecord:
    """Bookkeeping for one refinement iteration.

    Attributes
    ----------
    satellite_name:
        Which satellite's measurements were added.
    measurements_total:
        Cumulative measurement count after this pass.
    result:
        The WLS solution after this pass.
    """

    satellite_name: str
    measurements_total: int
    result: GeolocationResult


class SequentialLocalizer:
    """Accumulates measurement batches and refines the estimate.

    Parameters
    ----------
    estimator:
        The WLS engine (defaults to a frequency-estimating solver).
    initial_guess:
        Where the first solve starts; later solves warm-start from the
        previous estimate (the paper's coordination-request message
        carries exactly this: earlier measurements plus the preliminary
        result).
    """

    def __init__(
        self,
        estimator: Optional[WLSEstimator] = None,
        *,
        initial_guess: Optional[GeodeticPoint] = None,
    ):
        self.estimator = estimator or WLSEstimator()
        self._initial_guess = initial_guess
        self._measurements: List[Measurement] = []
        self._history: List[PassRecord] = []

    @property
    def history(self) -> List[PassRecord]:
        """One record per completed refinement iteration."""
        return list(self._history)

    def add_pass(
        self,
        measurements: Sequence[Measurement],
    ) -> GeolocationResult:
        """Incorporate one satellite's measurement batch and re-solve.

        Returns the refined solution.  The warm start makes each
        iteration cheap and monotone in practice: more measurements
        mean a better-conditioned problem.
        """
        measurements = list(measurements)
        if not measurements:
            raise ConfigurationError("add_pass requires at least one measurement")
        satellite_name = measurements[0].satellite_name or f"pass-{len(self._history) + 1}"
        self._measurements.extend(measurements)
        guess = self._warm_start()
        result = self.estimator.solve(self._measurements, guess)
        self._history.append(
            PassRecord(
                satellite_name=satellite_name,
                measurements_total=len(self._measurements),
                result=result,
            )
        )
        return result

    def _warm_start(self) -> GeodeticPoint:
        if self._history:
            return self._history[-1].result.estimate
        if self._initial_guess is not None:
            return self._initial_guess
        # Default: the sub-satellite point of the first measurement, the
        # natural crude guess for a just-detected emitter.
        return subsatellite_point(self._measurements[0].satellite_position_ecef)

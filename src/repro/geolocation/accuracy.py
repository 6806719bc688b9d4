"""Accuracy metrics for geolocation experiments.

Summaries used by the benchmarks: circular error probable (CEP) and
RMSE over Monte-Carlo trials.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["cep_km", "rmse_km"]


def cep_km(errors_km: Sequence[float]) -> float:
    """Circular error probable: the median of the radial errors."""
    if not len(errors_km):
        raise ConfigurationError("cep_km needs at least one error sample")
    return float(np.median(np.asarray(errors_km, float)))


def rmse_km(errors_km: Sequence[float]) -> float:
    """Root-mean-square of radial errors."""
    if not len(errors_km):
        raise ConfigurationError("rmse_km needs at least one error sample")
    values = np.asarray(errors_km, float)
    return float(np.sqrt(np.mean(values**2)))


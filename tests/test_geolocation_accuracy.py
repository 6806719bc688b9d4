"""Tests for repro.geolocation.accuracy."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.geolocation.accuracy import cep_km, rmse_km


class TestScalarMetrics:
    def test_cep_is_median(self):
        assert cep_km([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0

    def test_rmse(self):
        assert rmse_km([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            cep_km([])
        with pytest.raises(ConfigurationError):
            rmse_km([])


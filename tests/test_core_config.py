"""Tests for repro.core.config (constellation + evaluation parameters)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import (
    REFERENCE_CONSTELLATION,
    ConstellationConfig,
    EvaluationParams,
)
from repro.errors import ConfigurationError


class TestConstellationConfig:
    def test_reference_totals(self):
        """98 active satellites, 112 total (Section 2)."""
        config = REFERENCE_CONSTELLATION
        assert config.planes * config.active_per_plane == 98
        assert config.planes * (
            config.active_per_plane + config.in_orbit_spares_per_plane
        ) == 112

    def test_reference_underlap_threshold(self):
        """Footprints underlap once k drops below 11 (Section 4.2.1)."""
        assert REFERENCE_CONSTELLATION.plane_geometry(10).underlapping
        assert REFERENCE_CONSTELLATION.plane_geometry(11).overlapping

    def test_plane_geometry_uses_config_constants(self):
        geometry = REFERENCE_CONSTELLATION.plane_geometry(12)
        assert geometry.orbit_period == 90.0
        assert geometry.coverage_time == 9.0
        assert geometry.active_satellites == 12

    def test_rejects_invalid_plane_count(self):
        with pytest.raises(ConfigurationError):
            ConstellationConfig(planes=0)

    def test_rejects_negative_spares(self):
        with pytest.raises(ConfigurationError):
            ConstellationConfig(in_orbit_spares_per_plane=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("planes", 2.5),
            ("active_per_plane", 14.5),
            ("orbit_period_minutes", math.nan),
            ("orbit_period_minutes", True),
        ],
        ids=["planes-float", "active-float", "period-nan", "period-bool"],
    )
    def test_rejects_wrong_types_naming_the_field(self, field, value):
        """Regression: fractional counts were accepted, a NaN period
        escaped as ``ValueError`` from ``int()`` and a boolean period was
        reported as a coverage-time error."""
        with pytest.raises(ConfigurationError, match=field):
            ConstellationConfig(**{field: value})


class TestEvaluationParams:
    def test_paper_aliases(self):
        params = EvaluationParams(
            deadline_minutes=5.0,
            signal_termination_rate=0.2,
            computation_rate=30.0,
            node_failure_rate_per_hour=1e-5,
            deployment_threshold=10,
            scheduled_deployment_hours=30000.0,
        )
        assert params.tau == 5.0
        assert params.mu == 0.2
        assert params.nu == 30.0
        assert params.lam == 1e-5
        assert params.eta == 10
        assert params.phi == 30000.0

    def test_with_replaces_fields(self):
        params = EvaluationParams()
        changed = replace(params, deadline_minutes=3.0)
        assert changed.tau == 3.0
        assert params.tau == 5.0

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ConfigurationError):
            EvaluationParams(signal_termination_rate=0.0)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ConfigurationError):
            EvaluationParams(computation_rate=-1.0)

    def test_rejects_threshold_above_capacity(self):
        with pytest.raises(ConfigurationError):
            EvaluationParams(deployment_threshold=15)

    def test_rejects_negative_deadline(self):
        with pytest.raises(ConfigurationError):
            EvaluationParams(deadline_minutes=-0.1)

    def test_rejects_nonpositive_replacement_latency(self):
        with pytest.raises(ConfigurationError):
            EvaluationParams(replacement_latency_hours=0.0)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ConfigurationError):
            EvaluationParams(node_failure_rate_per_hour=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            "deadline_minutes",
            "signal_termination_rate",
            "computation_rate",
            "node_failure_rate_per_hour",
            "scheduled_deployment_hours",
            "replacement_latency_hours",
            "crosslink_delay_minutes",
            "geolocation_time_minutes",
            "error_threshold_km",
        ],
    )
    def test_rejects_nan_naming_the_field(self, field):
        with pytest.raises(ConfigurationError, match=field):
            EvaluationParams(**{field: math.nan})

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "deadline_minutes",
            "signal_termination_rate",
            "computation_rate",
            "node_failure_rate_per_hour",
            "scheduled_deployment_hours",
            "replacement_latency_hours",
            "crosslink_delay_minutes",
            "geolocation_time_minutes",
            "error_threshold_km",
        ],
    )
    def test_rejects_infinity_naming_the_field(self, field, value):
        # Past construction, at k = 9, an infinite deadline overflows
        # the protocol sampler's tape sizing, an infinite computation
        # rate fails the closed form's sum-to-one check without naming
        # the field, and an infinite signal-termination rate makes the
        # closed form (MISSED 0.10) and the protocol (MISSED 1.00)
        # disagree.
        with pytest.raises(ConfigurationError, match=f"{field} must be a finite"):
            EvaluationParams(**{field: value})

    @pytest.mark.parametrize("threshold", [10.5, 10.0, True, "10"])
    def test_rejects_non_integral_threshold(self, threshold):
        with pytest.raises(ConfigurationError, match="deployment_threshold"):
            EvaluationParams(deployment_threshold=threshold)

    def test_accepts_numpy_integer_threshold(self):
        assert EvaluationParams(deployment_threshold=np.int64(12)).eta == 12

    def test_rejects_negative_error_threshold(self):
        with pytest.raises(ConfigurationError, match="error_threshold_km"):
            EvaluationParams(error_threshold_km=-1.0)

    def test_nan_rates_no_longer_reach_the_samplers(self):
        """Both calls used to construct: NaN slipped past ``<= 0``, the
        rule-based sampler then returned ``{SINGLE: 1.0}`` and the
        protocol sampler crashed sizing its tapes."""
        with pytest.raises(ConfigurationError, match="deadline_minutes"):
            EvaluationParams(computation_rate=math.nan, deadline_minutes=math.nan)
        with pytest.raises(ConfigurationError, match="computation_rate"):
            EvaluationParams(computation_rate=math.nan)

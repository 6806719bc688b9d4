"""Tests for the transient capacity analysis extension
(``capacity_transient``)."""

import math

import pytest

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_distribution,
    capacity_transient,
)
from repro.errors import ModelError


@pytest.fixture(scope="module")
def config():
    return CapacityModelConfig(failure_rate_per_hour=1e-4, threshold=10)


@pytest.fixture(scope="module")
def transient(config):
    return capacity_transient(
        config, [0.0, 1000.0, 5000.0, 15000.0], stages=12
    )


class TestTransient:
    def test_starts_at_full_capacity(self, transient):
        initial = transient[0.0]
        assert initial.get(14, 0.0) == pytest.approx(1.0)
        assert sum(p for k, p in initial.items() if k != 14) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_distributions_proper_at_all_times(self, transient):
        for distribution in transient.values():
            assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-6)
            assert all(p >= -1e-12 for p in distribution.values())

    def test_full_capacity_mass_decays(self, transient):
        p14 = [transient[t].get(14, 0.0) for t in (0.0, 1000.0, 5000.0, 15000.0)]
        assert p14 == sorted(p14, reverse=True)
        assert p14[-1] < 0.1

    def test_threshold_mass_grows_before_restore(self, transient):
        p10 = [transient[t].get(10, 0.0) for t in (0.0, 1000.0, 5000.0, 15000.0)]
        assert p10 == sorted(p10)

    def test_long_run_near_steady_state(self, config):
        """Far into the horizon the (Erlang-smoothed) transient
        approaches the stationary distribution."""
        steady = capacity_distribution(config, stages=12)
        late = capacity_transient(config, [400000.0], stages=12)[400000.0]
        tv = 0.5 * sum(
            abs(steady.get(k, 0.0) - late.get(k, 0.0))
            for k in set(steady) | set(late)
        )
        assert tv < 0.05


class TestIncrementalEvaluation:
    TIMES = [0.0, 1000.0, 3000.0, 6000.0, 12000.0, 24000.0]

    def test_incremental_matches_from_scratch(self, config):
        """Advancing the uniformisation vector point-to-point is the
        same chain as restarting each solve from t=0 (Markov property),
        which a one-point call does; the shared truncation tolerance
        keeps them within 1e-12."""
        incremental = capacity_transient(config, self.TIMES, stages=12)
        scratch = {
            t: capacity_transient(config, [t], stages=12)[t] for t in self.TIMES
        }
        assert set(incremental) == set(scratch)
        for t in self.TIMES:
            keys = set(incremental[t]) | set(scratch[t])
            for k in keys:
                assert incremental[t].get(k, 0.0) == pytest.approx(
                    scratch[t].get(k, 0.0), abs=1e-12
                )

    def test_unsorted_and_duplicate_times(self, config):
        """The caller's time order and duplicate points do not change
        the result -- evaluation is internally sorted and unique."""
        shuffled = capacity_transient(
            config, [6000.0, 1000.0, 6000.0, 0.0], stages=12
        )
        ordered = capacity_transient(config, [0.0, 1000.0, 6000.0], stages=12)
        assert list(shuffled) == [6000.0, 1000.0, 0.0]
        for t, distribution in ordered.items():
            assert shuffled[t] == distribution


class TestInputValidation:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_times(self, config, bad):
        """Regression: an infinite time point hung the uniformisation
        loop; NaN came back as the initial distribution labelled
        ``t=nan``."""
        with pytest.raises(ModelError, match="finite"):
            capacity_transient(config, [0.0, 1000.0, bad], stages=4)

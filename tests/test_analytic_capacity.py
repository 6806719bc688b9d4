"""Tests for repro.analytic.capacity (the Fig. 7 orbital-plane model)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.capacity import (
    CapacityModelConfig,
    assemble_capacity_topology,
    build_capacity_san,
    capacity_cache_stats,
    capacity_caches_disabled,
    capacity_distribution,
    capacity_distribution_exponential,
    capacity_solver_stats,
    capacity_stage_timings,
    capacity_topology_key,
    clear_capacity_caches,
)
from repro.core.config import EvaluationParams
from repro.errors import ConfigurationError
from repro.san import generate


class TestConfig:
    def test_defaults_match_paper(self):
        config = CapacityModelConfig()
        assert config.full_capacity == 14
        assert config.in_orbit_spares == 2
        assert config.scheduled_period_hours == 30000.0

    def test_from_params(self):
        params = EvaluationParams(
            node_failure_rate_per_hour=3e-5, deployment_threshold=12
        )
        config = CapacityModelConfig.from_params(params)
        assert config.failure_rate_per_hour == 3e-5
        assert config.threshold == 12

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            CapacityModelConfig(threshold=0)
        with pytest.raises(ConfigurationError):
            CapacityModelConfig(threshold=15)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            CapacityModelConfig(failure_rate_per_hour=0.0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            (rate, value)
            for rate in (
                "failure_rate_per_hour",
                "scheduled_period_hours",
                "replacement_latency_hours",
                "repair_rate_per_hour",
            )
            for value in (math.nan, math.inf, -math.inf, -1.0, True, "1e-5")
        ]
        + [
            (count, value)
            for count in ("full_capacity", "in_orbit_spares", "threshold")
            for value in (10.5, 10.0, True, math.nan, -1, "10")
        ],
    )
    def test_rejects_non_finite_rates_and_non_integral_counts(
        self, field, bad
    ):
        """Regression: NaN/inf rates used to pass (and fail later as a
        solver error, or silently solve), as did fractional and boolean
        counts.  The error names the offending field."""
        with pytest.raises(ConfigurationError, match=field):
            CapacityModelConfig(**{field: bad})

    def test_accepts_numpy_integers_and_zero_repair(self):
        config = CapacityModelConfig(
            full_capacity=np.int64(12),
            in_orbit_spares=np.int32(1),
            threshold=np.int64(9),
            failure_rate_per_hour=np.float64(2e-5),
            scheduled_period_hours=20000,
            repair_rate_per_hour=0.0,
        )
        assert config.threshold == 9


class TestModelStructure:
    def test_state_space_is_small(self):
        model = build_capacity_san(CapacityModelConfig())
        space = generate(model)
        # active 0..14 x spares/pending structure stays tiny.
        assert 10 < len(space) < 60

    def test_tangible_markings_respect_invariants(self):
        """In-orbit spares only coexist with a full plane, and below the
        threshold the pending launches top the capacity back up."""
        config = CapacityModelConfig(threshold=10)
        model = build_capacity_san(config)
        space = generate(model)
        for marking in space.markings:
            view = model.marking_dict(marking)
            if view["spares"] > 0:
                assert view["active"] == config.full_capacity
            if view["active"] < config.threshold:
                assert view["active"] + view["pending"] == config.threshold

    def test_deterministic_timers_present(self):
        model = build_capacity_san(CapacityModelConfig())
        space = generate(model)
        names = {t.activity for t in space.general}
        assert names == {"scheduled_deployment", "replacement_arrival"}

    def test_exponential_variant_is_markovian(self):
        model = build_capacity_san(
            CapacityModelConfig(), exponential_timers=True
        )
        space = generate(model)
        assert space.is_markovian


class TestDistributionShape:
    """The qualitative Fig. 7 claims, as assertions."""

    def test_distribution_is_proper(self):
        dist = capacity_distribution(
            CapacityModelConfig(failure_rate_per_hour=5e-5), stages=16
        )
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-8)
        assert all(p >= -1e-12 for p in dist.values())

    def test_full_capacity_dominates_at_low_lambda(self):
        dist = capacity_distribution(
            CapacityModelConfig(failure_rate_per_hour=1e-5), stages=16
        )
        assert dist[14] == max(dist.values())
        assert dist[14] > 0.5

    def test_threshold_dominates_at_high_lambda(self):
        dist = capacity_distribution(
            CapacityModelConfig(failure_rate_per_hour=1e-4, threshold=10),
            stages=16,
        )
        assert dist[10] == max(dist.values())
        assert dist[10] > 0.5

    def test_below_threshold_unlikely(self):
        """Eq. (3) neglects k < 9 as 'extremely unlikely'."""
        dist = capacity_distribution(
            CapacityModelConfig(failure_rate_per_hour=1e-4, threshold=10),
            stages=16,
        )
        assert sum(p for k, p in dist.items() if k < 9) < 0.02

    def test_p_eta_monotone_in_lambda(self):
        values = []
        for lam in (1e-5, 3e-5, 6e-5, 1e-4):
            dist = capacity_distribution(
                CapacityModelConfig(failure_rate_per_hour=lam, threshold=10),
                stages=12,
            )
            values.append(dist[10])
        assert values == sorted(values)

    def test_threshold_location_follows_eta(self):
        dist = capacity_distribution(
            CapacityModelConfig(failure_rate_per_hour=1e-4, threshold=12),
            stages=16,
        )
        assert dist[12] == max(dist.values())

    def test_shorter_scheduled_period_lifts_full_capacity(self):
        slow = capacity_distribution(
            CapacityModelConfig(
                failure_rate_per_hour=5e-5, scheduled_period_hours=30000.0
            ),
            stages=12,
        )
        fast = capacity_distribution(
            CapacityModelConfig(
                failure_rate_per_hour=5e-5, scheduled_period_hours=10000.0
            ),
            stages=12,
        )
        assert fast[14] > slow[14]

    def test_rerate_path_matches_full_regeneration(self):
        """The topology/rate-split acceptance contract: a fixed-topology
        rate sweep through the re-rate + warm-start path must match
        per-point full regeneration to 1e-12 on every P(k)."""
        lambdas = (2e-5, 4e-5, 6e-5, 8e-5)
        configs = [
            CapacityModelConfig(failure_rate_per_hour=lam, threshold=10)
            for lam in lambdas
        ]
        with capacity_caches_disabled():
            baseline = [
                capacity_distribution(config, stages=8) for config in configs
            ]
        clear_capacity_caches(reset_stats=True)
        rerated = [
            capacity_distribution(config, stages=8) for config in configs
        ]
        for baseline_row, rerated_row in zip(baseline, rerated):
            assert baseline_row.keys() == rerated_row.keys()
            for k in baseline_row:
                assert abs(baseline_row[k] - rerated_row[k]) <= 1e-12

    def test_rate_sweep_assembles_once(self):
        """Configs differing only in lambda share one assembled
        topology."""
        clear_capacity_caches(reset_stats=True)
        for lam in (2e-5, 5e-5, 9e-5):
            capacity_distribution(
                CapacityModelConfig(failure_rate_per_hour=lam, threshold=10),
                stages=8,
            )
        stats = capacity_cache_stats()["assemble"]
        assert stats.misses == 1
        assert stats.hits == 2

    def test_solver_stats_track_iterative_and_warm_starts(self):
        # stages=24 unfolds this topology past _ITERATIVE_MIN_STATES
        # (5,928 states), so the sweep runs warm-started GMRES.
        clear_capacity_caches(reset_stats=True)
        for lam in (2e-5, 5e-5, 9e-5):
            capacity_distribution(
                CapacityModelConfig(failure_rate_per_hour=lam, threshold=10),
                stages=24,
            )
        stats = capacity_solver_stats()
        assert stats["iterative"] == 3
        assert stats["warm_started"] == 2  # all but the cold first point
        assert stats["gmres_iterations"] > 0
        assert stats["structure_fallbacks"] == 0
        # At stages=8 (696 states) every point is one direct solve.
        clear_capacity_caches(reset_stats=True)
        for lam in (2e-5, 5e-5, 9e-5):
            capacity_distribution(
                CapacityModelConfig(failure_rate_per_hour=lam, threshold=10),
                stages=8,
            )
        stats = capacity_solver_stats()
        assert (stats["direct"], stats["iterative"]) == (3, 0)
        assert stats["warm_started"] == stats["gmres_iterations"] == 0

    def test_stage_timings_cover_the_pipeline(self):
        clear_capacity_caches(reset_stats=True)
        capacity_distribution(
            CapacityModelConfig(failure_rate_per_hour=5e-5), stages=8
        )
        timings = capacity_stage_timings()
        assert set(timings) == {
            "assemble", "refine", "quotient", "rerate", "solve",
        }
        assert timings["assemble"] > 0.0
        assert timings["solve"] > 0.0
        # The counted path never touches the lumping stages.
        assert timings["refine"] == 0.0
        assert timings["quotient"] == 0.0

    def test_assemble_capacity_topology_is_rate_independent(self):
        """The public structure-phase entry point returns the identical
        cached object for rate-only config changes."""
        clear_capacity_caches(reset_stats=True)
        first = assemble_capacity_topology(
            CapacityModelConfig(failure_rate_per_hour=1e-5), stages=8
        )
        second = assemble_capacity_topology(
            CapacityModelConfig(failure_rate_per_hour=9e-5), stages=8
        )
        assert first is second
        distinct = assemble_capacity_topology(
            CapacityModelConfig(failure_rate_per_hour=1e-5, threshold=12),
            stages=8,
        )
        assert distinct is not first

    def test_exponential_timers_misplace_mass(self):
        """Without deterministic-timer support the distribution shifts
        visibly -- the reason the paper needed UltraSAN's deterministic
        activities."""
        config = CapacityModelConfig(failure_rate_per_hour=5e-5)
        deterministic = capacity_distribution(config, stages=24)
        exponential = capacity_distribution_exponential(config)
        tv = 0.5 * sum(
            abs(deterministic.get(k, 0.0) - exponential.get(k, 0.0))
            for k in set(deterministic) | set(exponential)
        )
        assert tv > 0.02


class TestExpandedModelReads:
    """The per-satellite model counts its failed satellites in one
    ``MarkingView.total`` read, so a repair activity's case
    probabilities cost one name-keyed read per case (one per
    satellite), not one per satellite in each of the n cases."""

    @staticmethod
    def _reads(monkeypatch, full):
        from repro.analytic.capacity import build_capacity_san_expanded
        from repro.san.marking import MarkingView

        model = build_capacity_san_expanded(
            CapacityModelConfig(full_capacity=full, in_orbit_spares=0)
        )
        activities = {
            a.name: a
            for a in model.timed_activities + model.instantaneous_activities
        }
        view = model.view(model.initial_marking())
        for s in ("sat_1", "sat_2", "sat_3"):
            view[s] = 0
        view["pending"] = 1
        marking = view.freeze()
        calls = [0]
        getitem = MarkingView.__getitem__

        def counted(self, place):
            calls[0] += 1
            return getitem(self, place)

        monkeypatch.setattr(MarkingView, "__getitem__", counted)
        probabilities = activities["replacement_arrival"].case_probabilities_at(
            model.view(marking)
        )
        cases, calls[0] = calls[0], 0
        (gate,) = activities["threshold_trigger"].input_gates
        assert gate.name == "below_threshold"
        gate.predicate(model.view(marking))
        monkeypatch.undo()
        assert probabilities[:3] == [1 / 3] * 3
        assert sum(probabilities[3:]) == 0.0
        return cases, calls[0]

    def test_reads_grow_linearly_with_the_satellite_count(self, monkeypatch):
        cases_14, gate_14 = self._reads(monkeypatch, 14)
        cases_28, gate_28 = self._reads(monkeypatch, 28)
        assert (cases_14, cases_28) == (14, 28)
        assert gate_14 == gate_28 == 2


class TestDeploymentPolicyVariants:
    """The ``deployment_policy`` / ``repair_rate_per_hour`` structural
    axes: counted-vs-expanded agreement, zero-rate re-rates in place,
    and cache-key completeness (no aliasing across policies)."""

    def setup_method(self):
        clear_capacity_caches(reset_stats=True)

    SMALL = dict(full_capacity=5, in_orbit_spares=1, threshold=4)

    @pytest.mark.parametrize("policy", ["combined", "threshold", "scheduled"])
    @pytest.mark.parametrize("repair", [None, 0.0, 5e-4])
    def test_counted_matches_lumped_expanded(self, policy, repair):
        """The lumped quotient against both oracles on the optimize
        grid's structural axes: the counted chain and the unlumped
        per-satellite chain, whose tangible markings the quotient's
        orbit sizes must sum to."""
        from repro.analytic.capacity import (
            build_capacity_san_expanded,
            capacity_distribution_expanded,
            expanded_capacity_summary,
        )

        config = CapacityModelConfig(
            failure_rate_per_hour=5e-5,
            deployment_policy=policy,
            repair_rate_per_hour=repair,
            **self.SMALL,
        )
        counted = capacity_distribution(config, stages=4)
        expanded = capacity_distribution_expanded(config, stages=4, lump=True)
        unlumped = capacity_distribution_expanded(
            config, stages=4, lump=False
        )
        for k in set(counted) | set(expanded) | set(unlumped):
            assert expanded.get(k, 0.0) == pytest.approx(
                counted.get(k, 0.0), abs=1e-12
            ), f"policy={policy} repair={repair} k={k}"
            assert expanded.get(k, 0.0) == pytest.approx(
                unlumped.get(k, 0.0), abs=1e-12
            ), f"unlumped: policy={policy} repair={repair} k={k}"
        assert capacity_solver_stats()["structure_fallbacks"] == 0
        summary = expanded_capacity_summary(config, stages=4)
        full_space = generate(build_capacity_san_expanded(config))
        assert summary["full_tangible_markings"] == len(full_space)

    def test_zero_repair_rate_rerates_in_place(self):
        """Regression: repair *presence* is structural, its value is a
        rate -- a topology assembled at rate exactly 0.0 must re-rate to
        a positive rate (and back) without a structure fallback."""
        def config(rho):
            return CapacityModelConfig(
                failure_rate_per_hour=5e-5,
                repair_rate_per_hour=rho,
                **self.SMALL,
            )

        at_zero = capacity_distribution(config(0.0), stages=4)
        assert capacity_cache_stats()["assemble"].misses == 1
        positive = capacity_distribution(config(5e-4), stages=4)
        back = capacity_distribution(config(0.0), stages=4)
        # One topology served all three points; no rejection fallbacks.
        assert capacity_cache_stats()["assemble"].misses == 1
        assert capacity_solver_stats()["structure_fallbacks"] == 0
        assert positive != at_zero  # repair actually changes P(k)
        assert back == at_zero
        # And rate 0.0 behaves exactly like structurally-absent repair.
        absent = capacity_distribution(config(None), stages=4)
        for k in set(absent) | set(at_zero):
            assert at_zero.get(k, 0.0) == pytest.approx(
                absent.get(k, 0.0), abs=1e-12
            )

    #: A different valid value per field, for the perturbation below.
    PERTURBED = dict(
        full_capacity=6,
        in_orbit_spares=2,
        failure_rate_per_hour=7e-5,
        threshold=3,
        scheduled_period_hours=20000.0,
        replacement_latency_hours=96.0,
        deployment_policy="threshold",
        repair_rate_per_hour=0.0,
    )

    @pytest.mark.parametrize(
        "spec",
        dataclasses.fields(CapacityModelConfig),
        ids=lambda spec: spec.name,
    )
    def test_topology_key_separates_structural_axes(self, spec):
        """Regression: every structural axis -- spares, threshold,
        policy kind, repair presence -- is part of the assemble-cache
        key, and no rate is (the old hand-listed key once aliased
        policies onto one topology, poisoning every later re-rate).
        Parametrised over the config's fields, so a new field must
        carry a tag and is covered here automatically."""
        role = spec.metadata.get("role")
        assert role in ("structural", "rate", "presence"), spec.name
        base = CapacityModelConfig(**self.SMALL)
        changed = dataclasses.replace(
            base, **{spec.name: self.PERTURBED[spec.name]}
        )
        assert getattr(changed, spec.name) != getattr(base, spec.name)
        assemble_capacity_topology(base, stages=2)
        misses = capacity_cache_stats()["assemble"].misses
        assemble_capacity_topology(changed, stages=2)
        added = capacity_cache_stats()["assemble"].misses - misses
        if role == "rate":
            assert capacity_topology_key(
                changed, 2
            ) == capacity_topology_key(base, 2)
            assert added == 0
        else:
            assert capacity_topology_key(
                changed, 2
            ) != capacity_topology_key(base, 2)
            assert added == 1
        if role == "presence":
            # Presence is structural, the value is a rate.
            at = {
                value: capacity_topology_key(
                    dataclasses.replace(base, **{spec.name: value}), 2
                )
                for value in (None, 0.0, 5e-4)
            }
            assert at[None] != at[0.0]
            assert at[0.0] == at[5e-4]

    def test_structural_variants_differ_in_steady_state(self):
        """The policies genuinely differ in steady state (threshold-only
        planes cannot restock spares; scheduled-only planes lack the
        sustain trigger) -- aliasing their topologies would have hidden
        that."""
        variants = [
            CapacityModelConfig(**self.SMALL),
            CapacityModelConfig(deployment_policy="threshold", **self.SMALL),
            CapacityModelConfig(deployment_policy="scheduled", **self.SMALL),
            CapacityModelConfig(repair_rate_per_hour=0.0, **self.SMALL),
        ]
        distributions = [
            tuple(
                sorted(capacity_distribution(config, stages=4).items())
            )
            for config in variants
        ]
        assert len(set(distributions)) == len(variants)
        assert capacity_cache_stats()["assemble"].misses == len(variants)

    def test_distribution_cache_key_includes_policy_fields(self):
        """Solve-cache completeness: spare count, deployment policy and
        eta each produce distinct distribution-cache entries."""
        from repro.analytic.capacity import _DISTRIBUTION_CACHE

        base = dict(failure_rate_per_hour=5e-5)
        configs = [
            CapacityModelConfig(**self.SMALL, **base),
            CapacityModelConfig(
                full_capacity=5, in_orbit_spares=2, threshold=4, **base
            ),
            CapacityModelConfig(
                full_capacity=5, in_orbit_spares=1, threshold=3, **base
            ),
            CapacityModelConfig(
                deployment_policy="threshold", **self.SMALL, **base
            ),
        ]
        for config in configs:
            capacity_distribution(config, stages=2)
        assert len(_DISTRIBUTION_CACHE) == len(configs)


def _tail(distribution, k):
    """``P(K >= k)``."""
    return sum(p for j, p in distribution.items() if j >= k)


def _assert_dominates(better, worse, what):
    """``better``'s capacity is stochastically at least ``worse``'s:
    ``P(K >= k)`` no smaller, to 1e-12, at every ``k``."""
    for k in set(better) | set(worse):
        high, low = _tail(better, k), _tail(worse, k)
        assert high >= low - 1e-12, f"{what}: P(K >= {k}) {high} < {low}"


class TestCapacityMonotonicity:
    """Metamorphic properties of ``P(k)``: a plane fails no less often
    at a higher ``lambda``, and holds no less capacity with more
    in-orbit spares or a faster repair."""

    @settings(max_examples=60, deadline=None)
    @given(
        full=st.integers(2, 6),
        spares=st.integers(0, 2),
        threshold_offset=st.integers(0, 5),
        policy=st.sampled_from(["combined", "threshold", "scheduled"]),
        repair=st.one_of(st.none(), st.just(0.0), st.floats(1e-5, 1e-2)),
        lam=st.floats(1e-6, 1e-3),
        factor=st.floats(1.01, 10.0),
        stages=st.integers(1, 4),
    )
    def test_capacity_tail_is_monotone(
        self, full, spares, threshold_offset, policy, repair, lam, factor, stages
    ):
        config = CapacityModelConfig(
            full_capacity=full,
            in_orbit_spares=spares,
            threshold=max(1, full - threshold_offset),
            deployment_policy=policy,
            repair_rate_per_hour=repair,
            failure_rate_per_hour=lam,
            scheduled_period_hours=5000.0,
            replacement_latency_hours=200.0,
        )

        def pk(**changes):
            changed = dataclasses.replace(config, **changes)
            return capacity_distribution(changed, stages=stages)

        base = pk()
        _assert_dominates(base, pk(failure_rate_per_hour=lam * factor), "lambda")
        _assert_dominates(pk(in_orbit_spares=spares + 1), base, "spares")
        if repair is not None:
            _assert_dominates(
                pk(repair_rate_per_hour=(repair + 1e-4) * factor), base, "repair"
            )

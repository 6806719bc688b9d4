"""Tests for :mod:`repro.optimize` (spare-policy design-space sweep).

Covers the design-space builders (determinism, topology grouping,
policy validation), the cell evaluator and its Eq. (3) composition,
the Pareto/recommendation/scorecard layer, the golden-pinned smoke
grid, and the :class:`GroundSparePolicy` edge cases -- each edge case
cross-checked analytic-vs-Monte-Carlo with Wilson containment on iid
capacity draws (``sample_capacity_states``).
"""

import json
import pathlib

import pytest

from repro.analytic.capacity import (
    capacity_distribution_expanded,
    clear_capacity_caches,
)
from repro.errors import ConfigurationError
from repro.experiments import optimize_exp
from repro.faults.stats import wilson_interval
from repro.optimize import (
    DesignPoint,
    GroundSparePolicy,
    classify_fallbacks,
    composed_alert_qos,
    design_grid,
    evaluate_cell,
    grid_topology_count,
    minimum_capacity,
    pareto_frontier,
    recommend_policy,
    smoke_grid,
    spare_cost,
)
from repro.simulation.plane_process import sample_capacity_states

_GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "golden" / "optimize_golden.json"
)


class TestGroundSparePolicy:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="policy kind"):
            GroundSparePolicy(kind="adhoc")

    def test_rejects_negative_spares(self):
        with pytest.raises(ConfigurationError, match="in_orbit_spares"):
            GroundSparePolicy(in_orbit_spares=-1)

    def test_rejects_fractional_threshold(self):
        """Regression: accepted until ``DesignPoint.config()``, which
        runs inside a campaign chunk."""
        with pytest.raises(ConfigurationError, match="threshold"):
            GroundSparePolicy(threshold=2.5)

    def test_to_config_maps_every_field(self):
        policy = GroundSparePolicy(
            kind="threshold",
            in_orbit_spares=3,
            threshold=11,
            scheduled_period_hours=5000.0,
            replacement_latency_hours=72.0,
            repair_rate_per_hour=1e-4,
        )
        config = policy.to_config(
            full_capacity=14, failure_rate_per_hour=2e-5
        )
        assert config.deployment_policy == "threshold"
        assert config.in_orbit_spares == 3
        assert config.threshold == 11
        assert config.scheduled_period_hours == 5000.0
        assert config.replacement_latency_hours == 72.0
        assert config.repair_rate_per_hour == 1e-4
        assert config.failure_rate_per_hour == 2e-5

    def test_equal_policies_compare_equal(self):
        assert GroundSparePolicy() == GroundSparePolicy()
        assert GroundSparePolicy(repair_rate_per_hour=0.0) != (
            GroundSparePolicy(repair_rate_per_hour=None)
        )


class TestDesignGrid:
    def test_default_grid_size_and_topologies(self):
        cells = design_grid()
        assert len(cells) == 1134
        assert grid_topology_count(cells) == 42

    def test_grid_is_deterministic_and_topology_grouped(self):
        a = design_grid()
        b = design_grid()
        assert a == b
        # Topology-grouped: each group's cells are contiguous, so the
        # number of group *changes* equals the number of groups - 1.
        groups = [cell.topology_group() for cell in a]
        changes = sum(
            1 for i in range(1, len(groups)) if groups[i] != groups[i - 1]
        )
        assert changes == grid_topology_count(a) - 1

    def test_smoke_grid_pins_none_vs_zero_repair(self):
        cells = smoke_grid()
        assert len(cells) == 24
        repair_axis = {
            cell.policy.repair_rate_per_hour for cell in cells
        }
        assert repair_axis == {None, 0.0}

    def test_minimum_capacity_scales_reference_ratio(self):
        assert minimum_capacity(14) == 10
        assert minimum_capacity(28) == 20
        assert minimum_capacity(1) == 1
        assert minimum_capacity(7) == 5  # ceil(5.0)

    def test_plane_scale_validated(self):
        # 1.5 is the regression: a fractional scale used to construct.
        for scale in (0, 1.5):
            with pytest.raises(ConfigurationError, match="plane_scale"):
                DesignPoint(
                    plane_scale=scale,
                    full_capacity=14,
                    failure_rate_per_hour=1e-5,
                    policy=GroundSparePolicy(),
                )


class TestComposedQoS:
    def test_zero_capacity_contributes_nothing(self):
        assert composed_alert_qos({0: 1.0}) == 0.0

    def test_matches_manual_mixture(self):
        from repro.analytic.qos_model import conditional_distribution
        from repro.core.config import EvaluationParams
        from repro.core.qos import QoSLevel
        from repro.core.schemes import Scheme

        params = EvaluationParams()
        pk = {0: 0.1, 10: 0.5, 14: 0.4}
        expected = sum(
            p
            * conditional_distribution(
                params.constellation.plane_geometry(k), params, Scheme.OAQ
            ).at_least(QoSLevel.SEQUENTIAL_DUAL)
            for k, p in pk.items()
            if k >= 1
        )
        assert composed_alert_qos(pk) == pytest.approx(expected, abs=1e-15)

    def test_saturates_beyond_pairwise_domain(self):
        # The closed forms are only valid for Tc * k <= 2 * theta
        # (k <= 20 for the reference geometry); larger capacities are
        # evaluated at the bound instead of crashing or extrapolating.
        at_bound = composed_alert_qos({20: 1.0})
        beyond = composed_alert_qos({28: 1.0})
        assert beyond == pytest.approx(at_bound, abs=1e-15)


class TestCostModel:
    def point(self, **kwargs):
        policy = GroundSparePolicy(**kwargs)
        return DesignPoint(
            plane_scale=1,
            full_capacity=14,
            failure_rate_per_hour=1e-4,
            policy=policy,
        )

    def test_threshold_policy_has_no_campaign_term(self):
        cost = spare_cost(self.point(kind="threshold"), 14.0)
        # spares + lambda * 8760 * E[K]; no campaign term.
        assert cost == pytest.approx(2 + 1e-4 * 8760 * 14.0)

    def test_campaign_term_for_scheduled_policies(self):
        base = spare_cost(
            self.point(kind="combined", scheduled_period_hours=8760.0), 14.0
        )
        slower = spare_cost(
            self.point(kind="combined", scheduled_period_hours=17520.0), 14.0
        )
        assert base - slower == pytest.approx(1.0)  # one campaign @ weight 2

    def test_repair_offsets_launch_consumption(self):
        without = spare_cost(self.point(kind="threshold"), 13.0)
        with_repair = spare_cost(
            self.point(kind="threshold", repair_rate_per_hour=1e-3), 13.0
        )
        assert with_repair < without
        # Consumption never goes negative however strong the repair.
        floor = spare_cost(
            self.point(kind="threshold", repair_rate_per_hour=10.0), 13.0
        )
        assert floor == pytest.approx(2.0)


class TestParetoLayer:
    ROWS = [
        {"cost": 1.0, "availability": 0.90, "qos_alert": 0.5},
        {"cost": 2.0, "availability": 0.99, "qos_alert": 0.6},
        {"cost": 3.0, "availability": 0.95, "qos_alert": 0.55},  # dominated
        {"cost": 0.5, "availability": 0.80, "qos_alert": 0.7},
    ]

    def test_frontier_drops_dominated_rows(self):
        frontier = pareto_frontier(self.ROWS)
        costs = [row["cost"] for row in frontier]
        assert costs == [0.5, 1.0, 2.0]

    def test_frontier_keeps_objective_ties(self):
        twin = [dict(self.ROWS[0]), dict(self.ROWS[0])]
        assert len(pareto_frontier(twin)) == 2

    OBJECTIVES = ("cost", "availability", "qos_alert")

    def golden_rows_with_noise(self):
        """The golden smoke rows, then the same rows with +-1e-12 on
        every objective: signs alternating by row and, so that the
        twins two rows apart get opposite signs, by pair of rows; both
        phases of each."""
        with open(_GOLDEN_PATH) as fh:
            rows = json.load(fh)["rows"]
        yield rows
        for stride in (1, 2):
            for sign in (1.0, -1.0):
                yield [
                    {
                        **row,
                        **{
                            key: row[key]
                            + sign * (-1) ** (i // stride + j) * 1e-12
                            for j, key in enumerate(self.OBJECTIVES)
                        },
                    }
                    for i, row in enumerate(rows)
                ]

    def cell_id(self, row):
        return json.dumps(
            {k: v for k, v in row.items() if k not in self.OBJECTIVES},
            sort_keys=True,
        )

    def test_frontier_ignores_last_bit_noise(self):
        """The no-repair and zero-repair twins differ only in their last
        bits: both are kept, and noise of that size leaves the
        frontier's cells and their order unchanged (tied cells in grid
        order)."""
        exact, *noisy = self.golden_rows_with_noise()
        assert len({self.cell_id(row) for row in exact}) == len(exact)
        cells = [self.cell_id(row) for row in pareto_frontier(exact)]
        assert len(cells) == 10
        for rows in noisy:
            frontier = pareto_frontier(rows)
            assert [self.cell_id(row) for row in frontier] == cells

    def test_recommendation_ignores_last_bit_noise(self):
        """Twins whose cost differs only in its last bits (0 against
        2.9e-14 on the default grid) tie, and the tie goes to grid
        order, not to rounding; likewise for the least-bad cell."""
        twins = [
            {"cell": name, "cost": cost, "availability": 0.99, "qos_alert": 0.6}
            for name, cost in (("first", 2.9e-14), ("second", 0.0))
        ]
        met = recommend_policy(twins, availability_target=0.9)
        assert met["cell"]["cell"] == "first"
        twins[1]["availability"] += 1e-13
        unmet = recommend_policy(twins, availability_target=0.999)
        assert unmet["constraints_met"] is False
        assert unmet["cell"]["cell"] == "first"

    def test_recommendation_picks_cheapest_feasible(self):
        rec = recommend_policy(
            self.ROWS, availability_target=0.89, qos_target=0.45
        )
        assert rec["constraints_met"] is True
        assert rec["cell"]["cost"] == 1.0

    def test_recommendation_flags_unmet_constraints(self):
        rec = recommend_policy(
            self.ROWS, availability_target=0.999999, qos_target=0.9
        )
        assert rec["constraints_met"] is False
        assert rec["cell"]["availability"] == 0.99  # least-bad cell
        assert recommend_policy([])["cell"] is None

    def test_classify_fallbacks_contract(self):
        rows = [
            {"structure_fallbacks": 0, "solver_fallbacks": 0},
            {"structure_fallbacks": 0, "solver_fallbacks": 2},
            {"structure_fallbacks": 1, "solver_fallbacks": 0},
        ]
        scorecard = classify_fallbacks(rows)
        assert scorecard["cells"] == 3
        assert scorecard["clean"] == 1
        assert [e["cell"] for e in scorecard["explained"]] == [1]
        assert [e["cell"] for e in scorecard["unexplained"]] == [2]


class TestGoldenSmokeGrid:
    """The pinned smoke grid: 24 cells crossing every structural axis,
    solved on the quotient with zero unexplained fallbacks.  Regenerate
    with the snippet in the golden file's sibling docstring (or rerun
    the generation block in this repo's PR history) after intentional
    behaviour changes."""

    def setup_method(self):
        clear_capacity_caches(reset_stats=True)

    def test_smoke_grid_solves_without_solver_fallbacks(self):
        """Every smoke-grid chain is below the iterative threshold or
        converges warm: no GMRES solve falls back to the direct path."""
        result = optimize_exp.run(cells=smoke_grid())
        assert result.metadata["solver_stats"]["solver_fallbacks"] == 0

    def test_smoke_grid_matches_golden(self):
        with open(_GOLDEN_PATH) as fh:
            golden = json.load(fh)
        cells = smoke_grid()
        assert len(cells) == golden["cells"]
        rows = [evaluate_cell(c, stages=golden["stages"]) for c in cells]
        scorecard = classify_fallbacks(rows)
        assert scorecard["unexplained"] == []
        assert len(pareto_frontier(rows)) == golden["frontier_size"]
        assert (
            recommend_policy(rows)["constraints_met"]
            is golden["recommendation_constraints_met"]
        )
        for row, pinned in zip(rows, golden["rows"]):
            for key, value in pinned.items():
                if isinstance(value, float):
                    assert row[key] == pytest.approx(
                        value, abs=1e-9
                    ), f"{key} drifted in {pinned}"
                else:
                    assert row[key] == value, f"{key} drifted in {pinned}"


def _containment(config, *, k_floor, samples=240, seed=20267):
    """Analytic P(K >= k_floor) must land in the MC Wilson interval."""
    analytic = capacity_distribution_expanded(config, stages=8, lump=True)
    p_analytic = sum(p for k, p in analytic.items() if k >= k_floor)
    # Warmup past several replacement cycles; window = one scheduled
    # period so the uniform draw averages the deterministic cycle.
    values = sample_capacity_states(
        config,
        samples=samples,
        warmup_hours=3 * config.scheduled_period_hours,
        window_hours=config.scheduled_period_hours,
        seed=seed,
    )
    successes = sum(1 for v in values if v >= k_floor)
    interval = wilson_interval(successes, samples, confidence=0.999)
    assert interval.low <= p_analytic <= interval.high, (
        f"analytic P(K>={k_floor})={p_analytic:.4f} outside Wilson "
        f"[{interval.low:.4f}, {interval.high:.4f}] "
        f"({successes}/{samples} MC successes)"
    )


@pytest.mark.slow
class TestPolicyEdgeCases:
    """Satellite: GroundSparePolicy edge cases, analytic vs MC."""

    def setup_method(self):
        clear_capacity_caches(reset_stats=True)

    def test_zero_in_orbit_spares(self):
        config = GroundSparePolicy(
            kind="combined", in_orbit_spares=0, threshold=5,
            scheduled_period_hours=8760.0,
        ).to_config(full_capacity=6, failure_rate_per_hour=2e-4)
        _containment(config, k_floor=5)

    def test_threshold_at_capacity_boundary(self):
        # eta == full_capacity: any failure leaves active < eta, so the
        # trigger deploys immediately -- the most aggressive threshold.
        config = GroundSparePolicy(
            kind="threshold", in_orbit_spares=2, threshold=6,
        ).to_config(full_capacity=6, failure_rate_per_hour=2e-4)
        _containment(config, k_floor=6)

    def test_scheduled_period_shorter_than_launch_delay(self):
        # phi < replacement latency: restores outpace in-flight
        # replacements, so arrive-or-discard markings (arrival at a
        # fully-healthy plane) are actually visited.
        config = GroundSparePolicy(
            kind="combined", in_orbit_spares=1, threshold=5,
            scheduled_period_hours=100.0,
            replacement_latency_hours=168.0,
            repair_rate_per_hour=1e-3,
        ).to_config(full_capacity=6, failure_rate_per_hour=2e-4)
        _containment(config, k_floor=5)

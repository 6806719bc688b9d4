"""Tests for the fault-injection campaign engine (``repro.faults``).

The campaign acceptance test reproduces the analytic conditional QoS
model from a seeded 200-run fault-free campaign for both schemes --
the empirical ``P(Y >= y)`` must contain the closed form
(``plan_reference``) inside its 95% Wilson interval -- and the
fail-silent campaign must match the degraded (BAQ-shaped) reference
the same way.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analytic.qos_model import conditional_distribution
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.faults import (
    ANY,
    Campaign,
    FaultPlan,
    GROUND,
    plan_reference,
    wilson_interval,
)
from repro.experiments import faults_exp
from repro.experiments.faults_exp import plan_battery
from repro.faults.injector import fault_schedule
from repro.faults.stats import _normal_quantile
from repro.simulation.batch import ScenarioTemplate

PARAMS = EvaluationParams(signal_termination_rate=0.2)
GEOMETRY = PARAMS.constellation.plane_geometry(9)  # underlapping plane


# ----------------------------------------------------------------------
# Wilson interval
# ----------------------------------------------------------------------
class TestWilsonInterval:
    def test_known_value(self):
        # Classic textbook case: 180/200 at 95%.
        interval = wilson_interval(180, 200)
        assert interval.low == pytest.approx(0.8506, abs=2e-4)
        assert interval.high == pytest.approx(0.9343, abs=2e-4)
        assert interval.contains(interval.point)

    def test_zero_successes_stays_in_unit_interval(self):
        interval = wilson_interval(0, 50)
        assert interval.low == 0.0
        assert 0.0 < interval.high < 0.1
        assert interval.contains(0.0)

    def test_all_successes_stays_in_unit_interval(self):
        interval = wilson_interval(50, 50)
        assert interval.high == 1.0
        assert 0.9 < interval.low < 1.0

    @pytest.mark.parametrize("confidence", [0.95, 0.99, 0.9999])
    def test_contains_its_point_estimate(self, confidence):
        # Regression: at 0 and n successes the computed endpoints landed
        # a few ulps inside [0, 1] and excluded s/n itself.
        escaped = [
            (successes, trials)
            for trials in range(1, 400)
            for successes in range(trials + 1)
            if not wilson_interval(
                successes, trials, confidence=confidence
            ).contains(successes / trials)
        ]
        assert escaped == []

    def test_wider_confidence_widens_interval(self):
        narrow = wilson_interval(30, 100, confidence=0.90)
        wide = wilson_interval(30, 100, confidence=0.99)
        assert wide.high - wide.low > narrow.high - narrow.low

    @pytest.mark.parametrize(
        "successes, trials, confidence",
        [(1, 0, 0.95), (-1, 10, 0.95), (11, 10, 0.95), (5, 10, 0.0), (5, 10, 1.0)],
    )
    def test_invalid_inputs_raise(self, successes, trials, confidence):
        with pytest.raises(ConfigurationError):
            wilson_interval(successes, trials, confidence=confidence)

    @pytest.mark.parametrize(
        "successes, trials, field",
        [(1, 2.5, "trials"), (1, True, "trials"), (0.5, 2, "successes")],
    )
    def test_non_integral_counts_raise_naming_the_field(
        self, successes, trials, field
    ):
        """Regression: ``wilson_interval(1, 2.5)`` was accepted."""
        with pytest.raises(ConfigurationError, match=field):
            wilson_interval(successes, trials)

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 0.9999])
    def test_normal_quantile_matches_scipy(self, confidence):
        from scipy.stats import norm

        expected = norm.ppf(0.5 + confidence / 2.0)
        assert _normal_quantile(confidence) == pytest.approx(expected, abs=1e-15)


#: The scipy solver modules a fault campaign or a protocol run never
#: needs: ``repro.san.ctmc`` imports ``scipy.sparse`` at the first CTMC
#: it builds and ``repro.analytic.qos_model`` imports ``scipy.integrate``
#: (which loads ``scipy.optimize`` and ``scipy.special``) at its first
#: quadrature.
_SOLVER_MODULES = (
    "scipy.sparse",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.special",
)


def _loaded_after(code, modules):
    """Which of ``modules`` a fresh interpreter has in ``sys.modules``
    after running ``code``."""
    probe = (
        f"{code}\nimport sys\n"
        f"print('loaded:', *(m for m in {tuple(modules)!r} if m in sys.modules))"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    stdout = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    last = stdout.strip().splitlines()[-1].split()
    assert last[0] == "loaded:"
    return last[1:]


def test_importing_the_fault_layer_stays_light():
    # The fault layer sits below the scenario corpus and the experiment
    # harness, and its one normal quantile needs no scipy.stats.
    assert (
        _loaded_after(
            "import repro.faults",
            ("repro.experiments", "repro.scenarios", "scipy.stats"),
        )
        == []
    )
    # No import of the protocol-side entry points loads a solver.
    assert (
        _loaded_after(
            "import repro, repro.simulation\n"
            "import repro.experiments.faults_exp, "
            "repro.experiments.montecarlo_exp",
            _SOLVER_MODULES,
        )
        == []
    )


def test_a_campaign_and_a_protocol_cell_load_no_solver():
    code = (
        "from repro.experiments import faults_exp\n"
        "from repro.core.config import EvaluationParams\n"
        "from repro.core.schemes import Scheme\n"
        "from repro.simulation.qos_montecarlo import "
        "simulate_conditional_distribution_protocol\n"
        "faults_exp.run(runs=20, seed=1)\n"
        "params = EvaluationParams()\n"
        "simulate_conditional_distribution_protocol("
        "params.constellation.plane_geometry(12), params, Scheme.OAQ, "
        "samples=200, seed=1)"
    )
    assert _loaded_after(code, _SOLVER_MODULES) == []


def test_the_solvers_load_at_first_use():
    # Deferred, not removed: a capacity solve loads scipy.sparse (and
    # no quadrature), and a general-distribution quadrature loads
    # scipy.integrate.
    capacity = (
        "from repro.analytic.capacity import CapacityModelConfig, "
        "capacity_distribution\n"
        "capacity_distribution(CapacityModelConfig())"
    )
    assert _loaded_after(capacity, ("scipy.sparse", "scipy.integrate")) == [
        "scipy.sparse"
    ]
    quadrature = (
        "from repro.analytic.qos_model import "
        "conditional_distribution_general\n"
        "from repro.core.config import EvaluationParams\n"
        "from repro.core.distributions import Exponential\n"
        "from repro.core.schemes import Scheme\n"
        "params = EvaluationParams()\n"
        "conditional_distribution_general("
        "params.constellation.plane_geometry(9), params.tau, "
        "Exponential(params.mu), Exponential(params.nu), Scheme.OAQ)"
    )
    # (scipy.integrate itself pulls in scipy.sparse.)
    assert _loaded_after(quadrature, ("scipy.integrate",)) == ["scipy.integrate"]


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_normalises_mapping_and_sorts(self):
        plan = FaultPlan(name="x", fail_silent={"S3": 1.0, "S2": 0.5})
        assert plan.fail_silent == (("S2", 0.5), ("S3", 1.0))

    def test_is_picklable_and_round_trips(self):
        plan = FaultPlan(
            name="everything",
            fail_silent={"S2": 0.0},
            crosslink_loss=0.1,
            link_loss=(("S1", ANY, 0.2),),
            downlink_blackouts=((1.0, 2.0),),
            membership_staleness=3.0,
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_fault_free_detection(self):
        assert FaultPlan.fault_free().is_fault_free
        assert not FaultPlan.lossy(0.1).is_fault_free

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"fail_silent": {"S2": -1.0}},
            {"fail_successors_at": -0.5},
            {"fail_successor_count": 1},  # count without at
            {"fail_successors_at": 0.0, "fail_successor_count": 0},
            {"crosslink_loss": 1.5},
            {"link_loss": (("a", "b", -0.1),)},
            {"downlink_blackouts": ((2.0, 1.0),)},
            {"downlink_blackouts": ((-1.0, 1.0),)},
            {"membership_staleness": -1.0},
        ],
    )
    def test_invalid_plans_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**{"name": "bad", **kwargs})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fail_silent", {"S2": float("nan")}),
            ("fail_silent", [["S1"]]),
            ("fail_silent", [["S1", "soon"]]),
            ("fail_successors_at", float("nan")),
            ("fail_successor_count", True),
            ("fail_successor_count", 1.5),
            ("crosslink_loss", "0.2"),
            ("crosslink_loss", float("nan")),
            ("link_loss", [["S1", "S2"]]),
            ("link_loss", [["S1", "S2", float("nan")]]),
            ("downlink_blackouts", [[float("nan"), 5.0]]),
            ("downlink_blackouts", [[1.0]]),
            ("membership_staleness", float("nan")),
            ("name", 5),
            ("crosslink_loss", float("inf")),
            ("fail_successors_at", float("inf")),
        ],
    )
    def test_malformed_fields_raise_naming_the_field(self, field, value):
        """NaN would compare False in every vector rule ("never fails"),
        and malformed entries used to escape as raw ValueError /
        TypeError -- from the constructor and from ``from_dict``."""
        data = {"name": "bad", field: value}
        if field == "fail_successor_count":
            data["fail_successors_at"] = 0.0
        with pytest.raises(ConfigurationError, match=field):
            FaultPlan(**data)
        with pytest.raises(ConfigurationError, match=field):
            FaultPlan.from_dict(data)

    @staticmethod
    def _loss_hook(plan):
        """The scalar network's loss hook of ``plan``'s schedule."""
        names = ["S1", "S2", "S3", "S4"]
        return fault_schedule(plan, names).loss_hook(names, GROUND)

    def test_blackout_windows_are_half_open(self):
        hook = self._loss_hook(FaultPlan.downlink_blackout(1.0, 2.0))
        assert hook(0.999, "S1", GROUND) == 0.0
        assert hook(1.0, "S1", GROUND) == 1.0
        assert hook(1.999, "S1", GROUND) == 1.0
        assert hook(2.0, "S1", GROUND) == 0.0

    def test_link_loss_wildcards_compose_as_erasure_channels(self):
        plan = FaultPlan(
            name="x", link_loss=(("S1", ANY, 0.5), (ANY, "S2", 0.5))
        )
        # Both entries match S1 -> S2: survival 0.5 * 0.5.
        assert plan.link_probability("S1", "S2") == pytest.approx(0.75)
        # Only the wildcard-destination entry matches S3 -> S2.
        assert plan.link_probability("S3", "S2") == pytest.approx(0.5)
        assert plan.link_probability("S3", "S4") == 0.0
        # The scalar hook reads the same numbers off the schedule.
        hook = self._loss_hook(plan)
        assert hook(0.0, "S1", "S2") == plan.link_probability("S1", "S2")
        assert hook(0.0, "S3", "S2") == plan.link_probability("S3", "S2")

    def test_blackout_only_hits_ground_destination(self):
        hook = self._loss_hook(FaultPlan.downlink_blackout(0.0, 10.0))
        assert hook(5.0, "S1", GROUND) == 1.0
        assert hook(5.0, "S1", "S2") == 0.0
        assert hook(15.0, "S1", GROUND) == 0.0

    def test_failure_times_expands_successors_of_detector(self):
        plan = FaultPlan.successors_fail_silent(2.0, count=2)
        names = ["S1", "S2", "S3", "S4"]
        assert plan.failure_times(names, "S2") == {"S3": 2.0, "S4": 2.0}
        # Explicit entry keeps the earlier of the two times.
        plan = FaultPlan(
            name="x", fail_silent={"S3": 1.0}, fail_successors_at=2.0
        )
        assert plan.failure_times(names, "S2") == {"S3": 1.0, "S4": 2.0}

    def test_failure_times_rejects_unknown_satellites(self):
        plan = FaultPlan(name="x", fail_silent={"S9": 0.0})
        with pytest.raises(ConfigurationError):
            plan.failure_times(["S1", "S2"], "S1")

    def test_campaign_rejects_duplicate_plan_names(self):
        with pytest.raises(ConfigurationError):
            Campaign(
                PARAMS,
                capacity=9,
                plans=(FaultPlan.fault_free(), FaultPlan.fault_free()),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("confidence", 1.5),
            ("confidence", 0.0),
            ("n_jobs", 0),
            ("runs", 2.5),
            ("runs", True),
        ],
    )
    def test_campaign_checks_settings_before_running(self, field, value):
        # Regression: a bad confidence surfaced only when the finished
        # campaign's intervals were read, a bad n_jobs or a fractional
        # run count only in run().
        with pytest.raises(ConfigurationError, match=field):
            Campaign(
                PARAMS, capacity=9, plans=(FaultPlan.fault_free(),), **{field: value}
            )


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
class TestInjector:
    """A plan's :func:`fault_schedule` -- its one runtime form --
    played on the scalar driver through ``replicate(faults=...)``."""

    def test_signals_are_paired_across_plans(self):
        template = ScenarioTemplate(GEOMETRY, PARAMS)
        healthy = template.replicate(42)
        onset, duration = healthy.onset_position, healthy.signal.duration
        faults = fault_schedule(
            FaultPlan.successors_fail_silent(0.0), template.names
        )
        faulty = template.replicate(42, faults=faults)
        assert faulty.onset_position == onset
        assert faulty.signal.duration == duration
        # The schedule's detector row fails every successor of the
        # satellite that detects this onset.
        detector = "S1" if onset < GEOMETRY.single_coverage_length else "S2"
        faulty.run()
        failed = [name for name in template.names if template.network.is_failed(name)]
        assert failed == template.names[template.names.index(detector) + 1 :]

    def test_blackout_forces_level_zero(self):
        template = ScenarioTemplate(GEOMETRY, PARAMS)
        faults = fault_schedule(
            FaultPlan.downlink_blackout(0.0, 1e6), template.names
        )
        for seed in range(10):
            outcome = template.replicate(seed, faults=faults).run()
            assert outcome.achieved_level is QoSLevel.MISSED

    def test_total_crosslink_loss_still_delivers_single_coverage(self):
        # loss applies to crosslinks and downlink alike at p=1 -> level 0;
        # per-link loss on satellite-satellite links only keeps level 1.
        plan = FaultPlan(name="isolate", link_loss=((ANY, "S2", 1.0), ("S2", ANY, 1.0)))
        template = ScenarioTemplate(GEOMETRY, PARAMS)
        outcome = template.replicate(
            1,
            onset_position=8.5,
            signal_duration=25.0,
            faults=fault_schedule(plan, template.names),
        ).run()
        # S1 detects and its downlink is unaffected.
        assert outcome.achieved_level is QoSLevel.SINGLE

    def test_stale_view_loses_level_two_fresh_view_recovers_it(self):
        # Deadline relaxed so the *second* successor's footprint is
        # still timely; the first successor is dead from t=0.
        params = EvaluationParams(deadline_minutes=12.0)
        results = {}
        for label, staleness in (("stale", 1e9), ("fresh", 0.0)):
            plan = FaultPlan(
                name=label,
                fail_successors_at=0.0,
                fail_successor_count=1,
                membership_staleness=staleness,
            )
            template = ScenarioTemplate(GEOMETRY, params)
            # Onset 8.5 lies in single coverage: S1 detects, S2 is dead.
            outcome = template.replicate(
                1,
                onset_position=8.5,
                signal_duration=25.0,
                faults=fault_schedule(plan, template.names),
            ).run()
            results[label] = outcome.achieved_level
        assert results["stale"] is QoSLevel.SINGLE
        assert results["fresh"] is QoSLevel.SEQUENTIAL_DUAL


# ----------------------------------------------------------------------
# Campaign determinism
# ----------------------------------------------------------------------
class TestCampaignDeterminism:
    def test_same_seed_is_byte_identical_across_reruns_and_n_jobs(self):
        plans = (FaultPlan.fault_free(), FaultPlan.lossy(0.3))
        kwargs = dict(capacity=9, plans=plans, runs=40, seed=11)
        first = Campaign(PARAMS, **kwargs).run()
        rerun = Campaign(PARAMS, **kwargs).run()
        pooled = Campaign(PARAMS, **kwargs, n_jobs=2).run()
        assert first.outcomes == rerun.outcomes
        assert first.outcomes == pooled.outcomes

    def test_numpy_integer_runs_match_int_runs(self):
        # Regression: a numpy run count reached the campaign rows and
        # failed their canonical-JSON round trip in run().
        kwargs = dict(capacity=9, plans=(FaultPlan.fault_free(),), seed=4)
        plain = Campaign(PARAMS, runs=30, **kwargs).run()
        numpy_runs = Campaign(PARAMS, runs=np.int64(30), **kwargs).run()
        assert numpy_runs.outcomes == plain.outcomes

    def test_different_seed_changes_counts(self):
        plans = (FaultPlan.lossy(0.3),)
        a = Campaign(PARAMS, capacity=9, plans=plans, runs=60, seed=1).run()
        b = Campaign(PARAMS, capacity=9, plans=plans, runs=60, seed=2).run()
        assert a.outcomes != b.outcomes

    def test_outcome_accessor_and_counts_are_consistent(self):
        result = Campaign(
            PARAMS, capacity=9, plans=(FaultPlan.fault_free(),), runs=30, seed=5
        ).run()
        assert [(o.plan.name, o.scheme) for o in result.outcomes] == [
            ("fault-free", Scheme.OAQ),
            ("fault-free", Scheme.BAQ),
        ]
        for outcome in result.outcomes:
            assert sum(outcome.level_counts) == outcome.runs == 30
            assert outcome.p_at_least(QoSLevel.MISSED) == 1.0


# ----------------------------------------------------------------------
# Model domain: at most two footprints over a point (k <= 20 here)
# ----------------------------------------------------------------------
class TestModelDomain:
    LIMIT = "active_satellites k=.* pairwise-overlap limit 20"

    @pytest.mark.parametrize("capacity", [21, 30])
    def test_beyond_pairwise_overlap_is_rejected(self, capacity):
        geometry = PARAMS.constellation.plane_geometry(capacity)
        with pytest.raises(ConfigurationError, match=self.LIMIT):
            conditional_distribution(geometry, PARAMS, Scheme.OAQ)
        with pytest.raises(ConfigurationError, match=self.LIMIT):
            ScenarioTemplate(geometry, PARAMS)
        with pytest.raises(ConfigurationError, match=self.LIMIT):
            faults_exp.run(runs=2, capacity=capacity)


# ----------------------------------------------------------------------
# Analytic cross-checks (the acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestAnalyticCrossChecks:
    LEVELS = (
        QoSLevel.SINGLE,
        QoSLevel.SEQUENTIAL_DUAL,
        QoSLevel.SIMULTANEOUS_DUAL,
    )

    def escaped_levels(self, outcome, reference):
        """The levels whose ``P(Y >= y)`` reference escapes the
        outcome's Wilson interval."""
        return [
            level
            for level in self.LEVELS
            if not outcome.wilson(level).contains(reference.at_least(level))
        ]

    def run_and_check(self, plan, *, runs, seed):
        result = Campaign(
            PARAMS, capacity=9, plans=(plan,), runs=runs, seed=seed
        ).run()
        assert {o.scheme for o in result.outcomes} == {Scheme.OAQ, Scheme.BAQ}
        for outcome in result.outcomes:
            assert outcome.runs == runs
            reference = plan_reference(plan, GEOMETRY, PARAMS, outcome.scheme)
            assert reference is not None
            assert not self.escaped_levels(outcome, reference), outcome
        return result

    def test_fault_free_campaign_reproduces_conditional_model(self):
        self.run_and_check(FaultPlan.fault_free(), runs=200, seed=7)

    def test_fail_silent_campaign_degrades_to_baq_distribution(self):
        result = self.run_and_check(
            FaultPlan.successors_fail_silent(0.0), runs=200, seed=7
        )
        for outcome in result.outcomes:
            # Level 2 is gone entirely: the chain is dead.
            assert outcome.p_at_least(QoSLevel.SEQUENTIAL_DUAL) == 0.0

    def test_wrong_reference_escapes_wilson_interval(self):
        result = Campaign(
            PARAMS, capacity=9, plans=(FaultPlan.fault_free(),), runs=200, seed=3
        ).run()
        (outcome,) = [o for o in result.outcomes if o.scheme is Scheme.BAQ]
        # BAQ empirically has no level 2; the OAQ reference says ~0.22.
        wrong = conditional_distribution(GEOMETRY, PARAMS, Scheme.OAQ)
        assert QoSLevel.SEQUENTIAL_DUAL in self.escaped_levels(outcome, wrong)


class TestPlanReference:
    def test_battery_table(self):
        """Over the faults experiment's battery x k in {9, 12} x both
        schemes: fault-free has the scheme's own conditional model;
        successors-fail-all has BAQ's on the underlapping plane only (on
        an overlapping one the detector's simultaneous measurement still
        gives level 3); every other plan has none."""
        for capacity in (9, 12):
            geometry = PARAMS.constellation.plane_geometry(capacity)
            assert geometry.overlapping == (capacity == 12)
            for scheme in (Scheme.OAQ, Scheme.BAQ):
                references = {
                    plan.name: plan_reference(plan, geometry, PARAMS, scheme)
                    for plan in plan_battery()
                }
                expected = {name: None for name in references}
                expected["fault-free"] = conditional_distribution(
                    geometry, PARAMS, scheme
                )
                if not geometry.overlapping:
                    expected["successors-fail-all"] = conditional_distribution(
                        geometry, PARAMS, Scheme.BAQ
                    )
                assert references == expected, (capacity, scheme)

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.successors_fail_silent(5.0),
            FaultPlan(name="all-plus-loss", fail_successors_at=0.0,
                      crosslink_loss=0.1),
            FaultPlan(name="all-plus-stale", fail_successors_at=0.0,
                      membership_staleness=1.0),
            FaultPlan(name="named", fail_silent={"S2": 0.0}),
        ],
        ids=lambda plan: plan.name,
    )
    def test_anything_else_has_no_reference(self, plan):
        assert plan_reference(plan, GEOMETRY, PARAMS, Scheme.OAQ) is None

"""Tests for :mod:`repro.simulation.vector` -- the struct-of-arrays
vectorized replication engine.

The load-bearing contract: on identical randomness tapes, the vector
path's ``(level, detected)`` pair is **exactly equal** to the scalar
event-driven oracle's for every replication, across all four protocol
branches (overlap/underlap x OAQ/BAQ) under done-propagation (the
one messaging variant the engine models) -- including a zero crosslink delay, which the vector model does not cover
and which must shunt every row to the oracle via the divergence mask,
and exact event-time ties, which must shunt just the tied rows.  Fault
schedules (fail-silent satellites, crosslink loss, stale membership
views, downlink blackouts) are pinned the same way, row for row, on
every fault plan the campaign battery and the scenario corpus use.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.config import EvaluationParams
from repro.core.qos import QoSLevel
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.experiments.faults_exp import plan_battery
from repro.faults.campaign import Campaign
from repro.faults.injector import fault_schedule
from repro.faults.plan import ANY, FaultPlan
from repro.faults.stats import wilson_interval
from repro.protocol.satellite import MessagingVariant
from repro.simulation import vector as vector_mod
from repro.simulation.batch import ScenarioTemplate
from repro.simulation.qos_montecarlo import (
    simulate_conditional_distribution_protocol,
)
from repro.simulation.vector import (
    FaultSchedule,
    draw_protocol_tapes,
    reset_vector_batch_stats,
    sample_levels_vector,
    scalar_reference_levels,
    vector_batch_stats,
)

PARAMS = EvaluationParams(signal_termination_rate=0.2)
#: k=9 underlaps (coordination chains form), k=12 overlaps
#: (simultaneous double coverage) -- the two physical regimes.
CAPACITIES = (9, 12)
#: The messaging variants the vector engine models; successor-
#: responsibility runs on the scalar engine only.
VECTOR_VARIANTS = [MessagingVariant.DONE_PROPAGATION]


def _vector_and_oracle(template, seed, count, params=PARAMS, faults=None):
    """Run the vector engine and the scalar oracle on the same spawned
    seed: twin generators replay identical signal variates and tapes."""
    child = np.random.SeedSequence(seed)
    rng_vector = np.random.default_rng(child)
    rng_oracle = np.random.default_rng(child)
    geometry = template.geometry
    onsets = rng_vector.uniform(0.0, geometry.l1, size=count)
    durations = rng_vector.exponential(1.0 / params.mu, size=count)
    rng_oracle.uniform(0.0, geometry.l1, size=count)
    rng_oracle.exponential(1.0 / params.mu, size=count)

    levels, detected = sample_levels_vector(
        template, rng_vector, onsets, durations, faults
    )
    tapes = draw_protocol_tapes(template, rng_oracle, count, faults)
    oracle_levels, oracle_detected = scalar_reference_levels(
        template, onsets, durations, tapes, faults=faults
    )
    return levels, detected, oracle_levels, oracle_detected


class TestExactness:
    """Vector-path counts equal scalar-path counts on the same spawned
    seeds, per replication, for every scheme branch."""

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    @pytest.mark.parametrize("variant", VECTOR_VARIANTS)
    def test_levels_match_oracle_exactly(self, capacity, scheme, variant):
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(
            geometry, PARAMS, scheme=scheme, variant=variant
        )
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=20030622 + capacity, count=1_500
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_supported_cells_decide_without_fallback(self, capacity):
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        reset_vector_batch_stats()
        _vector_and_oracle(template, seed=7, count=2_000)
        stats = vector_batch_stats()
        assert stats["calls"] == 1
        assert stats["replications"] == 2_000
        assert stats["fallbacks"] == 0
        assert stats["fallback_fraction"] == 0.0


class TestEngineDispatch:
    """``sample_levels`` and the protocol sampler dispatch to the vector
    engine, the only production sampler."""

    def test_sample_levels_engine_vector_matches_direct_call(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        child = np.random.SeedSequence(3)
        rng_a = np.random.default_rng(child)
        rng_b = np.random.default_rng(child)
        onsets = np.linspace(0.0, geometry.l1 * 0.99, 64)
        durations = np.full(64, 30.0)
        via_template = template.sample_levels(rng_a, onsets, durations)
        direct = sample_levels_vector(template, rng_b, onsets, durations)
        np.testing.assert_array_equal(via_template[0], direct[0])
        np.testing.assert_array_equal(via_template[1], direct[1])

    def test_protocol_sampler_engine_plumbing(self):
        """Deterministic under a fixed seed, and every sample is one
        vector-engine replication."""
        geometry = PARAMS.constellation.plane_geometry(9)
        since = obs.snapshot()
        first = simulate_conditional_distribution_protocol(
            geometry, PARAMS, Scheme.OAQ, samples=500, seed=11
        )
        assert obs.delta(since).get("mc.vector.replications", 0) == 500
        again = simulate_conditional_distribution_protocol(
            geometry, PARAMS, Scheme.OAQ, samples=500, seed=11
        )
        assert first == again

    def test_successor_responsibility_is_scalar_only(self):
        """The vector engine models done-propagation only: an SR
        template's ``sample_levels`` names ``variant``, and its scalar
        ``replicate`` still runs."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(
            geometry,
            PARAMS,
            scheme=Scheme.OAQ,
            variant=MessagingVariant.SUCCESSOR_RESPONSIBILITY,
        )
        with pytest.raises(ConfigurationError, match="variant"):
            template.sample_levels(
                np.random.default_rng(0), np.array([1.0]), np.array([5.0])
            )
        template.replicate(0).run()


class TestDivergenceFallback:
    """What the vector model leaves to the oracle, it leaves exactly
    and deterministically."""

    def test_lossy_crosslinks_decide_on_tapes(self):
        """Uniform crosslink loss draws a loss tape and decides every
        row on the vector path but the lost done-propagation alerts a
        predecessor's guard may recover."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        faults = fault_schedule(FaultPlan.lossy(0.2), template.names)
        tapes = draw_protocol_tapes(template, np.random.default_rng(0), 8, faults)
        assert tapes.loss.shape == (8, tapes.comp.shape[1] + 1)
        since = obs.snapshot()
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=13, count=300, faults=faults
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)
        moved = obs.delta(since)
        fallbacks = moved.get("mc.vector.fallbacks", 0)
        assert 0 < fallbacks < 30
        assert moved.get("mc.vector.fallbacks.lost_alert", 0) == fallbacks

    def test_lossless_templates_draw_no_loss_tape(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        rng = np.random.default_rng(0)
        tapes = draw_protocol_tapes(template, rng, 8)
        assert tapes.loss.shape == (8, 0)
        # comp, jit, spill seed: the stream a lossless cell always drew.
        replay = np.random.default_rng(0)
        replay.exponential(1.0, size=tapes.comp.shape)
        replay.uniform(size=tapes.jit.shape)
        assert tapes.spill_seed == int(replay.integers(0, 2**63, dtype=np.uint64))

    def test_zero_crosslink_delay_diverges_every_row(self):
        params = EvaluationParams(
            signal_termination_rate=0.2, crosslink_delay_minutes=0.0
        )
        geometry = params.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, params, scheme=Scheme.OAQ)
        tapes = draw_protocol_tapes(template, np.random.default_rng(0), 4)
        depth = vector_mod._tape_depth(template)
        assert tapes.comp.shape == tapes.jit.shape == (4, depth)
        since = obs.snapshot()
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=13, count=300, params=params
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)
        moved = obs.delta(since)
        assert moved.get("mc.vector.fallbacks", 0) == 300
        assert moved.get("mc.vector.fallbacks.template", 0) == 300


class TestCraftedTies:
    def test_exact_overlap_tie_shunts_to_oracle(self):
        """A double-coverage completion landing exactly on the deadline
        guard is a kernel-order-dependent tie: the vector path must not
        guess, it must mark the row for the oracle."""
        geometry = PARAMS.constellation.plane_geometry(12)
        assert geometry.overlapping
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        alpha = geometry.single_coverage_length
        tau = PARAMS.tau
        x = np.array([alpha / 2.0, alpha / 2.0])
        dur = np.array([50.0, 50.0])
        tapes = draw_protocol_tapes(template, np.random.default_rng(2), 2)
        # Row 0: initial computation at c1=1.0 withholds (error above
        # threshold, no TC-2); its guard fires at 1 + (tau - 1) and the
        # first dc onset at w0 = alpha - x completes exactly then.
        guard = 1.0 + max(0.0, tau - 1.0)
        w0 = alpha - x[0]
        tapes.comp[0, 0] = 1.0
        tapes.comp[0, 1] = guard - w0
        assert w0 + tapes.comp[0, 1] == guard  # the tie is float-exact
        diverge = vector_mod._Divergence(2)
        levels, detected, _, _ = vector_mod._overlap_levels(
            template, x, dur, tapes, diverge
        )
        assert list(diverge.masks["tie"]) == [True, False]
        assert list(diverge.union()) == [True, False]
        # The full pipeline resolves the tied row via the oracle; the
        # untied row must already agree with it.
        oracle_levels, oracle_detected = scalar_reference_levels(
            template, x, dur, tapes
        )
        assert levels[1] == oracle_levels[1]
        assert detected[1] == oracle_detected[1]


@st.composite
def random_templates(draw):
    """A random protocol template over the scenario space: capacity
    (overlapping and underlapping planes), deadline, rates, delays, TC-1
    threshold and scheme."""
    params = EvaluationParams(
        deadline_minutes=draw(st.sampled_from([0.8, 2.5, 5.0, 11.0])),
        signal_termination_rate=draw(st.sampled_from([0.05, 0.2, 1.0])),
        computation_rate=draw(st.sampled_from([2.0, 10.0, 30.0, 120.0])),
        crosslink_delay_minutes=draw(st.sampled_from([0.001, 0.05, 0.3])),
        geolocation_time_minutes=draw(st.sampled_from([0.0, 0.1, 0.5, 1.5])),
        error_threshold_km=draw(st.sampled_from([0.3, 1.0, 8.0, 45.0])),
    )
    geometry = params.constellation.plane_geometry(
        draw(st.integers(min_value=4, max_value=15))
    )
    return ScenarioTemplate(
        geometry,
        params,
        scheme=draw(st.sampled_from([Scheme.OAQ, Scheme.BAQ])),
    )


class TestRandomTemplatesProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        template=random_templates(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_template_exactness(self, template, seed):
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=seed, count=150, params=template.params
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)

    @settings(max_examples=20, deadline=None)
    @given(
        template=random_templates(),
        loss=st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_lossy_template_exactness(self, template, loss, seed):
        faults = fault_schedule(FaultPlan.lossy(loss), template.names)
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=seed, count=150, params=template.params, faults=faults
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)

    @settings(max_examples=30, deadline=None)
    @given(
        template=random_templates(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_levels_respect_coverage_invariants(self, template, seed):
        """Row by row, ``sample_levels`` only reports levels the plane's
        coverage allows: undetected rows are level 0; an overlapping
        plane never reaches level 2 (no chain) and an underlapping one
        never level 3 (no double coverage); BAQ never refines (no level
        2); on an overlapping plane level 3 needs the first
        double-coverage onset ``max(0, alpha - x)`` by the deadline, and
        under BAQ a double coverage at detection (``x >= alpha``)."""
        geometry = template.geometry
        params = template.params
        rng = np.random.default_rng(seed)
        count = 300
        onsets = rng.uniform(0.0, geometry.l1, size=count)
        durations = rng.exponential(1.0 / params.mu, size=count)
        levels, detected = template.sample_levels(rng, onsets, durations)

        assert np.all(levels[~detected] == 0)
        forbidden = 2 if geometry.overlapping else 3
        assert not np.any(levels == forbidden)
        alpha = geometry.single_coverage_length
        level3 = levels == 3
        if geometry.overlapping:
            first_onset = np.maximum(0.0, alpha - onsets)
            assert np.all(first_onset[level3] <= params.tau + 1e-9)
        if template.scheme is Scheme.BAQ:
            assert not np.any(levels == 2)
            assert np.all(onsets[level3] >= alpha)


class TestCampaignAdoption:
    PLANS = (
        FaultPlan.fault_free(),
        FaultPlan.lossy(0.1),
        FaultPlan.successors_fail_silent(0.0, count=1, name="next-fails"),
        FaultPlan(
            name="fresh-view",
            fail_successors_at=0.0,
            fail_successor_count=1,
            membership_staleness=0.0,
        ),
    )

    def test_vector_campaign_independent_of_fanout(self):
        kwargs = dict(
            params=PARAMS, capacity=9, plans=self.PLANS, runs=400, seed=21
        )
        base = Campaign(**kwargs).run()
        fanned = Campaign(n_jobs=2, **kwargs).run()
        for left, right in zip(base.outcomes, fanned.outcomes):
            assert left.level_counts == right.level_counts
            assert left.detected == right.detected
        # Statistically pinned against per-seed replicate runs fed the
        # same schedule: each estimate lies in the other's 99.99% Wilson
        # interval.
        geometry = PARAMS.constellation.plane_geometry(9)
        seeds = np.random.SeedSequence(21).generate_state(400, dtype=np.uint64)
        for outcome in base.outcomes:
            template = ScenarioTemplate(geometry, PARAMS, scheme=outcome.scheme)
            faults = fault_schedule(outcome.plan, template.names)
            counts = np.zeros(4, dtype=int)
            for seed in seeds:
                level, _ = template.replicate(
                    int(seed), faults=faults
                ).run_level()
                counts[level] += 1
            for level in (1, 2, 3):
                vector_k = outcome.count_at_least(QoSLevel(level))
                scalar_k = int(counts[level:].sum())
                for k, other in ((vector_k, scalar_k), (scalar_k, vector_k)):
                    interval = wilson_interval(k, 400, confidence=0.9999)
                    assert (
                        interval.low - 1e-9 <= other / 400 <= interval.high + 1e-9
                    ), (outcome.plan.name, outcome.scheme, level, k, other)

    def test_every_cell_takes_vector_path(self):
        since = obs.snapshot()
        Campaign(PARAMS, capacity=9, plans=self.PLANS, runs=60, seed=4).run()
        moved = obs.delta(since)
        # Four plans x two schemes, all on the vector engine; at this
        # seed no row -- the lossy plan's included -- needs the oracle.
        assert moved.get("mc.vector.replications", 0) == 480
        reasons = {
            name: value
            for name, value in moved.items()
            if name.startswith("mc.vector.fallbacks")
        }
        assert reasons == {}


class TestFaultSchedules:
    """The fault schedule's vector rules against the scalar oracle."""

    @staticmethod
    def _plans():
        # The campaign battery plus every fault kind the scenario
        # corpus samples, with a short blackout that diverges.
        return plan_battery() + [
            FaultPlan.downlink_blackout(0.0, 20.0),
            FaultPlan.downlink_blackout(0.0, 3.0),
            FaultPlan.downlink_blackout(1.0, 2.5),
            FaultPlan.lossy(0.3),
        ]

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    @pytest.mark.parametrize("variant", VECTOR_VARIANTS)
    def test_fault_plans_match_oracle_exactly(self, capacity, scheme, variant):
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(
            geometry, PARAMS, scheme=scheme, variant=variant
        )
        for plan in self._plans():
            faults = fault_schedule(plan, template.names)
            levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
                template, seed=31 + capacity, count=400, faults=faults
            )
            np.testing.assert_array_equal(levels, oracle_levels, plan.name)
            np.testing.assert_array_equal(detected, oracle_detected, plan.name)

    @pytest.mark.parametrize("variant", VECTOR_VARIANTS)
    @pytest.mark.parametrize("staleness", [None, 0.0])
    def test_fail_times_at_and_around_event_times(self, variant, staleness):
        """The first successor's fail time swept across the row's event
        times (exactly, and one ulp either side): dead at or before the
        request's delivery, no effect after the decision, and every
        fail time in between -- exact ties included -- in the mask."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(
            geometry, PARAMS, scheme=Scheme.OAQ, variant=variant
        )
        delta = PARAMS.delta
        x = np.array([8.5])  # S1 detects at 0, S2 arrives at 1.5
        dur = np.array([60.0])
        # A row whose chain reaches S2 (the official alert comes from
        # S2 or a later member).
        for seed in range(200):
            tapes = draw_protocol_tapes(template, np.random.default_rng(seed), 1)
            official = (
                template.replicate(
                    vector_mod._TapeRNG(tapes, 0),
                    onset_position=x[0],
                    signal_duration=dur[0],
                )
                .run()
                .official_alert
            )
            if official is not None and official.sent_by != "S1":
                break
        assert official.sent_by != "S1"
        t1 = tapes.comp[0, 0]
        delivery = t1 + delta
        arrival = geometry.l1 - x[0]
        t2 = arrival + tapes.comp[0, 1]
        decision = official.sent_at
        checked = 0
        for event in (t1, delivery, arrival, t2, decision):
            for fail in (np.nextafter(event, 0.0), event, np.nextafter(event, np.inf)):
                times = np.full((2, template.satellite_count), np.inf)
                times[:, 1] = fail
                faults = FaultSchedule(fail_times=times, staleness=staleness)
                since = obs.snapshot()
                levels, detected = sample_levels_vector(
                    template, np.random.default_rng(seed), x, dur, faults
                )
                masked = obs.delta(since).get("mc.vector.fallbacks", 0) == 1
                oracle = scalar_reference_levels(
                    template,
                    x,
                    dur,
                    draw_protocol_tapes(template, np.random.default_rng(seed), 1),
                    faults=faults,
                )
                assert (levels[0], detected[0]) == (oracle[0][0], oracle[1][0])
                skipped = staleness is not None and fail <= t1 - staleness
                assert masked == (not skipped and delivery < fail <= decision)
                checked += 1
        assert checked == 15

    @pytest.mark.parametrize("variant", VECTOR_VARIANTS)
    def test_stale_view_loses_level_two_fresh_view_recovers_it(self, variant):
        """Vector twin of the scalar injector test: tau = 12 keeps the
        second successor's footprint timely while the first is dead."""
        params = EvaluationParams(deadline_minutes=12.0)
        geometry = params.constellation.plane_geometry(9)
        template = ScenarioTemplate(
            geometry, params, scheme=Scheme.OAQ, variant=variant
        )
        rows = 500
        x = np.full(rows, 8.5)
        dur = np.full(rows, 25.0)
        results = {}
        for label, staleness in (("stale", 1e9), ("fresh", 0.0)):
            plan = FaultPlan(
                name=label,
                fail_successors_at=0.0,
                fail_successor_count=1,
                membership_staleness=staleness,
            )
            faults = fault_schedule(plan, template.names)
            since = obs.snapshot()
            levels, _ = sample_levels_vector(
                template, np.random.default_rng(1), x, dur, faults
            )
            assert obs.delta(since).get("mc.vector.fallbacks", 0) == 0
            oracle_levels, _ = scalar_reference_levels(
                template,
                x,
                dur,
                draw_protocol_tapes(template, np.random.default_rng(1), rows),
                faults=faults,
            )
            np.testing.assert_array_equal(levels, oracle_levels)
            results[label] = levels
        assert not np.any(results["stale"] == 2)
        assert np.any(results["fresh"] == 2)

    def test_schedule_shape_and_values_are_validated(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        roster = template.satellite_count
        bad = [
            FaultSchedule(fail_times=np.full((2, roster - 1), np.inf)),
            FaultSchedule(fail_times=np.full((2, roster), np.nan)),
            FaultSchedule(fail_times=np.full((2, roster), -1.0)),
            FaultSchedule(fail_times=np.full((2, roster), np.inf), staleness=np.nan),
            FaultSchedule(
                fail_times=np.full((2, roster), np.inf), blackouts=((2.0, 1.0),)
            ),
        ]
        bad_losses = [
            FaultSchedule(
                fail_times=np.full((2, roster), np.inf), crosslink_loss=loss
            )
            for loss in (1.5, -0.1, np.nan, "0.2", True)
        ]
        for faults in bad + bad_losses:
            with pytest.raises(ConfigurationError):
                template.sample_levels(
                    np.random.default_rng(0), np.ones(3), np.ones(3), faults
                )
            # The scalar engine reads the same schedule and rejects it
            # the same way.
            with pytest.raises(ConfigurationError):
                template.replicate(0, faults=faults)
        for faults in bad_losses:
            with pytest.raises(ConfigurationError, match="crosslink_loss"):
                faults.validate(roster)

    def test_schedule_scalars_are_checked_by_type(self):
        """Regression: a string staleness or blackout bound escaped
        ``validate`` as a raw ``TypeError``, a blackout window that is
        not a ``(start, end)`` pair as a raw unpacking ``ValueError``,
        and string fail times the constructor as a raw ``ValueError``."""
        never = np.full((2, 5), np.inf)
        for faults, field in (
            (FaultSchedule(never, staleness="1"), "staleness"),
            (FaultSchedule(never, staleness=np.inf), "staleness"),
            (FaultSchedule(never, blackouts=(("a", 2.0),)), "blackouts start"),
            (FaultSchedule(never, blackouts=((0.0, None),)), "blackouts end"),
            (FaultSchedule(never, blackouts=((1.0,),)), "blackouts entries"),
            (FaultSchedule(never, blackouts=((0.0, 1.0, 2.0),)), "blackouts entries"),
            (FaultSchedule(never, blackouts=(1.0,)), "blackouts must be"),
            (FaultSchedule(never, blackouts=5.0), "blackouts must be"),
            (FaultSchedule(never, crosslink_loss=None), "crosslink_loss"),
        ):
            with pytest.raises(ConfigurationError, match=field):
                faults.validate(5)
        for table in ("fail_times", "link_loss"):
            with pytest.raises(ConfigurationError, match=table):
                FaultSchedule(**{"fail_times": never, table: [["a"] * 5] * 2})

    def test_link_loss_table_is_validated(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        roster = template.satellite_count
        times = np.full((2, roster), np.inf)
        for links in (np.zeros((roster, roster)), np.full((roster, roster + 1), 1.5)):
            faults = FaultSchedule(fail_times=times, link_loss=links)
            with pytest.raises(ConfigurationError, match="link_loss"):
                template.sample_levels(
                    np.random.default_rng(0), np.ones(3), np.ones(3), faults
                )

    def test_link_loss_table_matches_the_plan(self):
        plan = FaultPlan(
            name="links", link_loss=(("S1", ANY, 0.2), (ANY, "ground", 0.5))
        )
        names = ["S1", "S2", "S3"]
        table = fault_schedule(plan, names).link_loss
        assert table.shape == (3, 4)
        for i, source in enumerate(names):
            for j, destination in enumerate(names + ["ground"]):
                assert table[i, j] == plan.link_probability(source, destination)
        assert fault_schedule(FaultPlan.lossy(0.2), names).link_loss is None


#: Satellites every k = 9 / 12 template's roster holds.
_PLAN_NAMES = ("S1", "S2", "S3", "S4")


@st.composite
def random_fault_plans(draw):
    """A random fault plan mixing every fault kind: explicit fail-silent
    satellites, the successor rule, a membership view, uniform and
    per-link loss (``*`` and ``ground`` endpoints) and downlink
    blackout windows."""
    successors_at = draw(st.sampled_from([None, 0.0, 1.0, 4.0]))
    count = None
    if successors_at is not None:
        count = draw(st.sampled_from([None, 1, 2]))
    return FaultPlan(
        name="random",
        fail_silent=draw(
            st.dictionaries(
                st.sampled_from(_PLAN_NAMES),
                st.sampled_from([0.0, 0.5, 1.5, 5.0]),
                max_size=3,
            )
        ),
        fail_successors_at=successors_at,
        fail_successor_count=count,
        membership_staleness=draw(st.sampled_from([None, 0.0, 1e9])),
        crosslink_loss=draw(st.sampled_from([0.0, 0.2, 1.0])),
        link_loss=draw(
            st.lists(
                st.tuples(
                    st.sampled_from(_PLAN_NAMES + (ANY,)),
                    st.sampled_from(_PLAN_NAMES + (ANY, "ground")),
                    st.sampled_from([0.1, 0.5, 1.0]),
                ),
                max_size=2,
            )
        ),
        downlink_blackouts=draw(
            st.lists(
                st.sampled_from([(0.0, 3.0), (1.0, 2.5), (2.0, 20.0)]),
                max_size=2,
                unique=True,
            )
        ),
    )


class TestRandomFaultPlansProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        plan=random_fault_plans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_both_engines_read_one_schedule(self, plan, seed):
        """``sample_levels`` and ``scalar_reference_levels``, each fed
        only ``fault_schedule(plan, names)``, agree row for row."""
        count = 150
        for capacity in CAPACITIES:
            geometry = PARAMS.constellation.plane_geometry(capacity)
            for scheme in (Scheme.OAQ, Scheme.BAQ):
                template = ScenarioTemplate(geometry, PARAMS, scheme=scheme)
                faults = fault_schedule(plan, template.names)
                child = np.random.SeedSequence(seed)
                rng_vector = np.random.default_rng(child)
                rng_oracle = np.random.default_rng(child)
                for rng in (rng_vector, rng_oracle):
                    onsets = rng.uniform(0.0, geometry.l1, size=count)
                    durations = rng.exponential(1.0 / PARAMS.mu, size=count)
                levels, detected = template.sample_levels(
                    rng_vector, onsets, durations, faults
                )
                tapes = draw_protocol_tapes(template, rng_oracle, count, faults)
                oracle_levels, oracle_detected = scalar_reference_levels(
                    template, onsets, durations, tapes, faults=faults
                )
                label = (capacity, scheme.name)
                np.testing.assert_array_equal(levels, oracle_levels, label)
                np.testing.assert_array_equal(detected, oracle_detected, label)


class TestCrosslinkLoss:
    """Crosslink loss decided on the tapes, row for row against the
    oracle: a lost request is a dead successor, a lost alert is level 0
    unless a predecessor's guard may recover it."""

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    @pytest.mark.parametrize("variant", VECTOR_VARIANTS)
    @pytest.mark.parametrize("loss", [0.05, 0.2, 0.5, 1.0])
    def test_uniform_loss_matches_oracle_exactly(
        self, capacity, scheme, variant, loss
    ):
        self._pin(FaultPlan.lossy(loss), capacity, scheme, variant)

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    @pytest.mark.parametrize("variant", VECTOR_VARIANTS)
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(
                name="loss-blackout",
                crosslink_loss=0.2,
                downlink_blackouts=((1.0, 2.5),),
            ),
            FaultPlan(name="s1-links", link_loss=(("S1", ANY, 0.2),)),
        ],
        ids=lambda plan: plan.name,
    )
    def test_loss_plans_match_oracle_exactly(self, capacity, scheme, variant, plan):
        self._pin(plan, capacity, scheme, variant)

    @staticmethod
    def _pin(plan, capacity, scheme, variant):
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(
            geometry, PARAMS, scheme=scheme, variant=variant
        )
        faults = fault_schedule(plan, template.names)
        since = obs.snapshot()
        levels, detected, oracle_levels, oracle_detected = _vector_and_oracle(
            template, seed=47 + capacity, count=600, faults=faults
        )
        np.testing.assert_array_equal(levels, oracle_levels)
        np.testing.assert_array_equal(detected, oracle_detected)
        reasons = {
            name
            for name, value in obs.delta(since).items()
            if name.startswith("mc.vector.fallbacks.") and value
        }
        allowed = {"mc.vector.fallbacks.blackout"}
        if scheme is Scheme.OAQ:
            allowed.add("mc.vector.fallbacks.lost_alert")
        assert reasons <= allowed

    def test_certain_loss_decides_every_row_without_draws(self):
        """p = 1 drops every message without a draw: no loss tape, and
        every detected row is level 0 on the vector path."""
        geometry = PARAMS.constellation.plane_geometry(9)
        plan = FaultPlan(name="s1-cut", link_loss=(("S1", ANY, 1.0),))
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        faults = fault_schedule(plan, template.names)
        assert draw_protocol_tapes(
            template, np.random.default_rng(0), 5, faults
        ).loss.shape == (5, 0)
        x = np.full(50, 1.0)  # S1 detects
        since = obs.snapshot()
        levels, detected = template.sample_levels(
            np.random.default_rng(0), x, np.full(50, 30.0), faults
        )
        assert obs.delta(since).get("mc.vector.fallbacks", 0) == 0
        assert detected.all() and not levels.any()


class TestCorpusProtocolMcCheck:
    def test_forced_protocol_mc_check_passes(self):
        from repro.scenarios.generator import generate_corpus
        from repro.scenarios.runner import run_case

        _, cases = generate_corpus(2, 20260, name="vector-test")
        for case in cases:
            cell = run_case(case, extra_checks=("protocol_mc",))
            outcome = cell.check("protocol_mc")
            assert outcome.passed, outcome.details
            assert outcome.details["level_mismatches"] == 0
            assert outcome.details["detected_mismatches"] == 0
            assert "protocol_mc_fallback_fraction" in cell.metrics

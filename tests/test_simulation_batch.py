"""Tests for :mod:`repro.simulation.batch` -- the batched Monte-Carlo
replication engine, the one scalar driver of the protocol.

The load-bearing contract: a template reset between replications
leaves no trace, so for any seed ``template.replicate(seed).run()`` on
a template that has run other samples is **bit-identical** to the same
call on a freshly built template, across all four protocol branches
(overlap/underlap x OAQ/BAQ).  Everything downstream (the vector
engine's tape-driven oracle, the protocol experiment, the batched QoS
sampler's statistical pins) rests on that reuse.
"""

import numpy as np
import pytest

from repro.core.config import EvaluationParams
from repro.core.schemes import Scheme
from repro.errors import ConfigurationError
from repro.faults.injector import fault_schedule
from repro.faults.plan import FaultPlan
from repro.faults.stats import wilson_interval
from repro.simulation.batch import (
    ScenarioTemplate,
    batch_stage_timings,
    reset_batch_stage_timings,
)
from repro.simulation.vector import FaultSchedule

PARAMS = EvaluationParams(signal_termination_rate=0.2)
#: k=9 underlaps (coverage gap; coordination chains form), k=12
#: overlaps (simultaneous double coverage) -- the two physical regimes.
CAPACITIES = (9, 12)
SEEDS = range(120)


def _fail_silent(template, times):
    """The fault schedule that fails ``times``' satellites (a
    ``name -> minute`` mapping; ``inf`` never) whichever satellite
    detects."""
    row = [times.get(name, np.inf) for name in template.names]
    return FaultSchedule(fail_times=np.array([row, row], dtype=float))


#: Fail times that are NaN, sized for the k = 9 template's roster.
_NAN_FAULTS = _fail_silent(
    ScenarioTemplate(PARAMS.constellation.plane_geometry(9), PARAMS),
    {"S1": np.nan},
)


def _outcome_key(outcome):
    official = outcome.official_alert
    return (
        int(outcome.achieved_level),
        outcome.detection_time,
        outcome.duplicates,
        len(outcome.all_alerts),
        None if official is None else (official.sent_at, official.sent_by),
        outcome.signal.duration,
    )


class TestTemplateBitIdentity:
    """A reused template replays every sample exactly as a template
    built for that sample alone (the reset leaks no state)."""

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_replicate_matches_fresh_scenario(self, capacity, scheme):
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(geometry, PARAMS, scheme=scheme)
        for seed in SEEDS:
            fresh = ScenarioTemplate(geometry, PARAMS, scheme=scheme)
            expected = fresh.replicate(seed).run()
            replayed = template.replicate(seed).run()
            assert _outcome_key(replayed) == _outcome_key(expected), (
                f"k={capacity} {scheme.name} seed={seed}"
            )

    def test_explicit_signal_overrides_draws(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        template.replicate(2).run()
        replication = template.replicate(
            3, onset_position=1.0, signal_duration=4.0
        )
        assert replication.onset_position == 1.0
        assert replication.signal.duration == 4.0
        expected = ScenarioTemplate(
            geometry, PARAMS, scheme=Scheme.OAQ
        ).replicate(3, onset_position=1.0, signal_duration=4.0).run()
        assert _outcome_key(replication.run()) == _outcome_key(expected)

    def test_fail_silent_matches_fresh_scenario(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        faults = _fail_silent(template, {"S2": 0.0})
        for seed in range(40):
            expected = ScenarioTemplate(
                geometry, PARAMS, scheme=Scheme.OAQ
            ).replicate(seed, faults=faults).run()
            replayed = template.replicate(seed, faults=faults).run()
            assert _outcome_key(replayed) == _outcome_key(expected)
            # The failure is cleared by the next reset.
            template.replicate(seed).run()


class TestReplicationLifecycle:
    def test_stale_replication_rejected(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        first = template.replicate(0)
        template.replicate(1)
        with pytest.raises(ConfigurationError):
            first.run()

    def test_unknown_fail_silent_name_rejected(self):
        """A plan naming a satellite outside the roster fails to
        resolve, and a schedule sized for another roster is rejected
        before anything is scheduled."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        plan = FaultPlan(name="x", fail_silent={"S99": 0.0})
        with pytest.raises(ConfigurationError, match="S99"):
            fault_schedule(plan, template.names)
        wider = FaultSchedule(
            fail_times=np.full((2, template.satellite_count + 1), np.inf)
        )
        with pytest.raises(ConfigurationError, match="fail_times"):
            template.replicate(0, faults=wider)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            (dict(signal_duration=np.nan), "duration"),
            (dict(signal_duration=-1.0), "duration"),
            # The id predates the schedule, when fail times came as a
            # ``fail_silent`` mapping.
            pytest.param(
                dict(faults=_NAN_FAULTS), "fail_times", id="kwargs2-fail_silent"
            ),
        ],
    )
    def test_rejects_nan_inputs(self, kwargs, named):
        """Regression: a NaN duration used to come back as an
        undetected level 0, and a NaN fail time failed the node at
        t = 0."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        with pytest.raises(ConfigurationError, match=named):
            template.replicate(0, **kwargs)

    def test_infinite_and_negative_fail_times_accepted(self):
        """``inf`` never fails and ``0`` fails at the onset.  A negative
        time, which a ``fail_silent`` mapping used to accept as "at the
        onset", is now rejected by the schedule, as a fault plan
        rejects it."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        kwargs = dict(onset_position=8.0, signal_duration=6.0)
        healthy = template.replicate(1, **kwargs).run()
        never = template.replicate(
            1, faults=_fail_silent(template, {"S1": np.inf}), **kwargs
        ).run()
        assert _outcome_key(never) == _outcome_key(healthy)
        at_onset = template.replicate(
            1, faults=_fail_silent(template, {"S1": 0.0}), **kwargs
        ).run()
        assert at_onset.detection_time is not None
        assert at_onset.official_alert is None
        with pytest.raises(ConfigurationError, match="fail_times"):
            template.replicate(
                1, faults=_fail_silent(template, {"S1": -3.0}), **kwargs
            )

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_run_level_matches_full_run(self, capacity):
        """The early-stopping ``run_level`` fast path reports the same
        (level, detected) pair as the full outcome."""
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        for seed in range(80):
            level, detected = template.replicate(seed).run_level()
            outcome = template.replicate(seed).run()
            assert level == int(outcome.achieved_level)
            assert detected == (outcome.detection_time is not None)


class TestSampleLevels:
    def test_rejects_mismatched_shapes(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            template.sample_levels(rng, np.zeros(3), np.ones(4))

    def test_rejects_out_of_range_onsets(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            template.sample_levels(
                rng, np.array([geometry.l1 + 1.0]), np.ones(1)
            )

    @pytest.mark.parametrize(
        "onsets, durations, named",
        [
            ([0.0, 1.0], [-5.0, np.nan], "durations"),
            ([0.0, 1.0], [1.0, -1e-9], "durations"),
            ([np.nan, 1.0], [1.0, 1.0], "onsets"),
        ],
    )
    def test_rejects_nan_and_negative_inputs(self, onsets, durations, named):
        """Regression: NaN onsets and NaN or negative durations used to
        come back silently as level 0 / undetected."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        with pytest.raises(ConfigurationError, match=named):
            template.sample_levels(
                np.random.default_rng(0),
                np.array(onsets),
                np.array(durations),
            )

    def test_deterministic_under_fixed_seed(self):
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        onsets = np.random.default_rng(1).uniform(0.0, geometry.l1, 200)
        durations = np.random.default_rng(2).exponential(1 / PARAMS.mu, 200)
        a_levels, a_detected = template.sample_levels(
            np.random.default_rng(7), onsets, durations
        )
        b_levels, b_detected = template.sample_levels(
            np.random.default_rng(7), onsets, durations
        )
        assert np.array_equal(a_levels, a_levels.astype(a_levels.dtype))
        assert np.array_equal(a_levels, b_levels)
        assert np.array_equal(a_detected, b_detected)

    def test_detection_consistent_with_levels(self):
        """A run that achieved any level > 0 necessarily detected the
        signal; level 0 (missed) means no detection."""
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        rng = np.random.default_rng(11)
        onsets = rng.uniform(0.0, geometry.l1, 400)
        durations = rng.exponential(1 / PARAMS.mu, 400)
        levels, detected = template.sample_levels(rng, onsets, durations)
        assert np.all(detected[levels > 0])
        assert not np.any(detected[levels == 0])

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("scheme", [Scheme.OAQ, Scheme.BAQ])
    def test_statistically_consistent_with_legacy_path(
        self, capacity, scheme
    ):
        """``sample_levels`` (the vector engine) shares one generator
        across the batch, so it is not draw-order compatible with
        per-seed :meth:`replicate` runs -- the contract is statistical:
        every per-seed level frequency must fall inside the vector
        estimate's 99.9% Wilson interval."""
        geometry = PARAMS.constellation.plane_geometry(capacity)
        template = ScenarioTemplate(geometry, PARAMS, scheme=scheme)
        samples = 1500
        rng = np.random.default_rng(42)
        onsets = rng.uniform(0.0, geometry.l1, samples)
        durations = rng.exponential(1 / PARAMS.mu, samples)
        levels, _ = template.sample_levels(rng, onsets, durations)

        seeded_counts = np.zeros(4, dtype=int)
        for seed in range(600):
            level, _ = template.replicate(seed).run_level()
            seeded_counts[level] += 1
        for level in range(4):
            batch_count = int(np.count_nonzero(levels == level))
            interval = wilson_interval(batch_count, samples, confidence=0.999)
            seeded_rate = seeded_counts[level] / 600
            slack = 0.045  # finite per-seed sample's own noise
            assert interval.low - slack <= seeded_rate <= interval.high + slack


class TestStageTimings:
    def test_stages_accumulate_and_reset(self):
        reset_batch_stage_timings()
        geometry = PARAMS.constellation.plane_geometry(9)
        template = ScenarioTemplate(geometry, PARAMS, scheme=Scheme.OAQ)
        template.replicate(0).run()
        rng = np.random.default_rng(0)
        template.sample_levels(
            rng,
            rng.uniform(0.0, geometry.l1, 10),
            rng.exponential(1 / PARAMS.mu, 10),
        )
        timings = batch_stage_timings()
        assert set(timings) == {
            "template",
            "replicate",
            "run",
            "vector",
            "vector_fallback",
        }
        assert all(
            timings[stage] > 0.0
            for stage in ("template", "replicate", "run", "vector")
        )
        assert timings["vector_fallback"] >= 0.0
        reset_batch_stage_timings()
        assert all(
            value == 0.0 for value in batch_stage_timings().values()
        )

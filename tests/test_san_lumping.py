"""Tests for repro.san.lumping (exact symmetry lumping).

Canonical-representative reachability (``lumped_state_space``) is
cross-validated against full-space solves on small symmetric models,
and the capacity integration is pinned against the counted paper
model and the fig7 goldens.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.analytic.capacity import (
    CapacityModelConfig,
    capacity_distribution,
    capacity_distribution_expanded,
    capacity_solver_stats,
    capacity_stage_timings,
    clear_capacity_caches,
    expanded_capacity_summary,
)
from repro.core.distributions import Deterministic
from repro.errors import ModelError
from repro.san import (
    Case,
    InputGate,
    InstantaneousActivity,
    LumpedStateSpace,
    OutputGate,
    Place,
    SANModel,
    TimedActivity,
    assemble,
    canonical_marking,
    generate,
    lumped_state_space,
    orbit_size,
)

_GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "experiments_golden.json"


def plane_model(
    n=3,
    fail_rates=None,
    repair=0.7,
    det_reset=False,
    initial_up=None,
    declare_groups=True,
):
    """A small symmetric plane: ``n`` binary satellites, uniform repair
    of a random failed one, optional deterministic full reset."""
    sats = [f"s{i}" for i in range(1, n + 1)]
    if fail_rates is None:
        fail_rates = [0.02] * n
    if initial_up is None:
        initial_up = [1] * n
    places = [Place(s, up) for s, up in zip(sats, initial_up)] + [
        Place("pool", 1)
    ]

    def down(m):
        return sum(1 - m[s] for s in sats)

    failures = [
        TimedActivity.exponential(f"fail_{s}", rate, input_arcs={s: 1})
        for s, rate in zip(sats, fail_rates)
    ]

    def repair_case(s):
        def probability(m):
            d = down(m)
            return (1 - m[s]) / d if d else 0.0

        return Case(probability=probability, output_arcs={s: 1, "pool": 1})

    activities = failures + [
        TimedActivity.exponential(
            "repair",
            repair,
            input_arcs={"pool": 1},
            input_gates=[InputGate("any_down", predicate=lambda m: down(m) > 0)],
            cases=[repair_case(s) for s in sats],
        )
    ]
    if det_reset:

        def restore(m):
            for s in sats:
                m[s] = 1
            m["pool"] = 1

        activities.append(
            TimedActivity(
                "reset",
                Deterministic(40.0),
                input_gates=[
                    InputGate("some_down", predicate=lambda m: down(m) > 0)
                ],
                cases=[Case(output_gates=[OutputGate("restore", restore)])],
            )
        )
    return SANModel(
        places,
        activities,
        name="toy-plane",
        exchangeable_groups=[sats] if declare_groups else (),
    )


def degrading_plane_model(n=3, spares=2):
    """Satellites as two-place members ``(up_i, degraded_i)`` that
    degrade, fail faster once degraded and are replaced from a second
    exchangeable group of one-place ground spares that refill."""
    sats = [(f"up{i}", f"degraded{i}") for i in range(1, n + 1)]
    pool = [f"spare{j}" for j in range(1, spares + 1)]
    places = [Place(name, 1 if name.startswith("up") else 0) for sat in sats for name in sat]
    places += [Place(spare, 1) for spare in pool]

    def down(m):
        return sum(1 - m[up] for up, _ in sats)

    def stocked(m):
        return sum(m[spare] for spare in pool)

    activities = []
    for up, degraded in sats:
        activities.append(
            TimedActivity.exponential(
                f"degrade_{up}",
                0.3,
                input_gates=[
                    InputGate(
                        "healthy",
                        predicate=lambda m, up=up, degraded=degraded: m[up] == 1
                        and m[degraded] == 0,
                    )
                ],
                cases=[Case(output_arcs={degraded: 1})],
            )
        )

        def clear(m, degraded=degraded):
            m[degraded] = 0

        activities.append(
            TimedActivity.exponential(
                f"fail_{up}",
                lambda m, degraded=degraded: 0.1 + 0.4 * m[degraded],
                input_arcs={up: 1},
                cases=[Case(output_gates=[OutputGate("clear", clear)])],
            )
        )

    def replace_case(up, spare):
        def probability(m):
            d, s = down(m), stocked(m)
            return (1 - m[up]) * m[spare] / (d * s) if d and s else 0.0

        def consume(m):
            m[spare] = 0

        return Case(
            probability=probability,
            output_arcs={up: 1},
            output_gates=[OutputGate("consume", consume)],
        )

    activities.append(
        TimedActivity.exponential(
            "replace",
            0.5,
            input_gates=[
                InputGate(
                    "down_and_stocked",
                    predicate=lambda m: down(m) > 0 and stocked(m) > 0,
                )
            ],
            cases=[replace_case(up, spare) for up, _ in sats for spare in pool],
        )
    )
    for spare in pool:
        activities.append(
            TimedActivity.exponential(
                f"refill_{spare}",
                0.25,
                input_gates=[
                    InputGate("empty", predicate=lambda m, spare=spare: m[spare] == 0)
                ],
                cases=[Case(output_arcs={spare: 1})],
            )
        )
    return SANModel(
        places,
        activities,
        name="degrading-plane",
        exchangeable_groups=[sats, pool],
    )


def up_count_distribution(space, pi, sats):
    """Aggregate a state distribution by total up-satellite count."""
    result = {}
    for marking, probability in zip(space.markings, np.asarray(pi).tolist()):
        as_dict = space.model.marking_dict(marking)
        k = sum(as_dict[s] for s in sats)
        result[k] = result.get(k, 0.0) + probability
    return result


class TestGroupAction:
    def test_canonical_marking_sorts_group_members(self):
        model = plane_model(n=3)
        # (s1, s2, s3, pool) = (1, 0, 1, 1) -> members sorted ascending.
        assert canonical_marking(model, (1, 0, 1, 1)) == (0, 1, 1, 1)
        assert canonical_marking(model, (0, 1, 1, 1)) == (0, 1, 1, 1)

    def test_orbit_size_is_multinomial(self):
        model = plane_model(n=4)
        assert orbit_size(model, (1, 1, 1, 1, 1)) == 1
        assert orbit_size(model, (0, 1, 1, 1, 1)) == 4
        assert orbit_size(model, (0, 0, 1, 1, 1)) == 6

    def test_undeclared_groups_rejected(self):
        model = plane_model(n=3, declare_groups=False)
        with pytest.raises(ModelError, match="nothing to lump"):
            lumped_state_space(model)

    def test_group_declaration_validation(self):
        with pytest.raises(ModelError, match="unknown place"):
            SANModel(
                [Place("a", 1), Place("b", 1)],
                [TimedActivity.exponential("t", 1.0, input_arcs={"a": 1})],
                exchangeable_groups=[["a", "ghost"]],
            )
        with pytest.raises(ModelError, match="place-disjoint"):
            SANModel(
                [Place("a", 1), Place("b", 1)],
                [TimedActivity.exponential("t", 1.0, input_arcs={"a": 1})],
                exchangeable_groups=[["a", "b"], ["a", "b"]],
            )


class TestLumpedStateSpace:
    def test_quotient_counts_orbits(self):
        model = plane_model(n=3)
        space = lumped_state_space(model)
        full = generate(plane_model(n=3))
        # Representatives are up-counts 0..3; orbit sizes sum to the
        # full tangible count.
        assert isinstance(space, LumpedStateSpace)
        assert len(space) == 4
        assert space.full_state_count == len(full) == 8
        assert "orbit representatives" in space.describe()

    def test_quotient_steady_state_matches_full(self):
        sats = ["s1", "s2", "s3"]
        full_chain = assemble(generate(plane_model(n=3)), stages=4)
        quotient_chain = assemble(lumped_state_space(plane_model(n=3)), stages=4)
        model = plane_model(n=3)
        pi_full = full_chain.rerate(full_chain.rates).steady_state_solve().pi
        pi_quotient = (
            quotient_chain.rerate(quotient_chain.rates).steady_state_solve().pi
        )
        full_pk = up_count_distribution(
            full_chain.space, full_chain.marking_marginals(pi_full), sats
        )
        quotient_pk = up_count_distribution(
            quotient_chain.space,
            quotient_chain.marking_marginals(pi_quotient),
            sats,
        )
        assert set(full_pk) == set(quotient_pk)
        for k in full_pk:
            assert quotient_pk[k] == pytest.approx(full_pk[k], abs=1e-12)

    def test_deterministic_timer_quotient_matches_full(self):
        sats = ["s1", "s2", "s3"]
        model = plane_model(n=3, det_reset=True)
        full_chain = assemble(generate(model), stages=6)
        quotient_chain = assemble(
            lumped_state_space(plane_model(n=3, det_reset=True)), stages=6
        )
        pi_full = full_chain.rerate(full_chain.rates).steady_state_solve().pi
        pi_quotient = (
            quotient_chain.rerate(quotient_chain.rates).steady_state_solve().pi
        )
        full_pk = up_count_distribution(
            full_chain.space, full_chain.marking_marginals(pi_full), sats
        )
        quotient_pk = up_count_distribution(
            quotient_chain.space,
            quotient_chain.marking_marginals(pi_quotient),
            sats,
        )
        for k in full_pk:
            assert quotient_pk[k] == pytest.approx(full_pk[k], abs=1e-12)

    def test_asymmetric_rates_fail_verification(self):
        model = plane_model(n=3, fail_rates=[0.02, 0.02, 0.05])
        with pytest.raises(ModelError, match="not a symmetry"):
            lumped_state_space(model)

    def test_asymmetric_initial_distribution_rejected(self):
        model = plane_model(n=3, initial_up=[0, 1, 1])
        with pytest.raises(ModelError, match="initial distribution"):
            lumped_state_space(model)

    def test_explosion_guard_applies_to_quotient(self):
        from repro.errors import StateSpaceExplosionError

        model = plane_model(n=6)
        with pytest.raises(StateSpaceExplosionError):
            lumped_state_space(model, max_states=3)

    def test_vanishing_generator_image_rejected(self):
        # ``mark`` is enabled in (a, b, x) = (1, 0, 0) but not in its
        # mirror (0, 1, 0), which failing ``a`` first reaches as a
        # tangible representative.
        model = SANModel(
            [Place("a", 1), Place("b", 1), Place("x", 0)],
            [
                TimedActivity.exponential("fail_a", 0.1, input_arcs={"a": 1}),
                TimedActivity.exponential("fail_b", 0.1, input_arcs={"b": 1}),
            ],
            instantaneous_activities=[
                InstantaneousActivity(
                    "mark",
                    input_gates=[
                        InputGate(
                            "a_only",
                            predicate=lambda m: m["a"] == 1
                            and m["b"] == 0
                            and m["x"] == 0,
                        )
                    ],
                    cases=[Case(output_arcs={"x": 1})],
                )
            ],
            exchangeable_groups=[["a", "b"]],
        )
        with pytest.raises(ModelError, match="vanishing"):
            lumped_state_space(model)

    def test_multi_place_members_and_two_groups_match_full(self):
        model = degrading_plane_model()
        space = lumped_state_space(model)
        full = generate(model)
        assert space.full_state_count == len(full.markings) == 27 * 4
        # Three satellites over {down, up, degraded} x two spares over
        # {empty, stocked}: C(5, 3) * C(3, 2) orbit representatives.
        assert len(space) == 10 * 3
        full_chain = assemble(full)
        quotient_chain = assemble(space)
        pi_full = full_chain.rerate(full_chain.rates).steady_state_solve().pi
        pi_quotient = (
            quotient_chain.rerate(quotient_chain.rates).steady_state_solve().pi
        )
        by_orbit = {}
        marginals = full_chain.marking_marginals(pi_full)
        for marking, probability in zip(full.markings, marginals.tolist()):
            representative = canonical_marking(model, marking)
            by_orbit[representative] = by_orbit.get(representative, 0.0) + probability
        quotient = quotient_chain.marking_marginals(pi_quotient).tolist()
        assert set(by_orbit) == set(space.markings)
        for marking, probability in zip(space.markings, quotient):
            assert probability == pytest.approx(by_orbit[marking], abs=1e-12)

    def test_each_marking_is_fired_once(self, monkeypatch):
        model = plane_model(n=5, det_reset=True)
        sats = [f"s{i}" for i in range(1, 6)]
        calls = []
        enabled_timed = SANModel.enabled_timed

        def counted(self, marking):
            calls.append(marking)
            return enabled_timed(self, marking)

        monkeypatch.setattr(SANModel, "enabled_timed", counted)
        space = lumped_state_space(model)
        # A generator image differs from its representative exactly
        # where two adjacent members hold different markings.
        images = 0
        for marking in space.markings:
            ups = [model.marking_dict(marking)[s] for s in sats]
            images += sum(left != right for left, right in zip(ups, ups[1:]))
        assert images > 0
        assert len(calls) == len(space.markings) + images


class TestCapacityLumping:
    def setup_method(self):
        clear_capacity_caches(reset_stats=True)

    def test_expanded_quotient_is_counted_chain(self):
        summary = expanded_capacity_summary(CapacityModelConfig(), stages=8)
        assert summary["orbit_representatives"] == 17
        assert summary["full_tangible_markings"] == 2**14 + 2
        assert summary["marking_reduction"] > 900

    def test_lumped_expanded_matches_counted_and_fig7_goldens(self):
        with open(_GOLDEN_PATH) as fh:
            golden = json.load(fh)["fig7"]
        for row in golden["rows"]:
            lam = float(row["lambda"])
            config = CapacityModelConfig(failure_rate_per_hour=lam)
            counted = capacity_distribution(config, stages=24)
            lumped = capacity_distribution_expanded(
                config, stages=24, lump=True
            )
            for k in set(counted) | set(lumped):
                assert lumped.get(k, 0.0) == pytest.approx(
                    counted.get(k, 0.0), abs=1e-12
                ), f"lambda={lam} k={k}"
            for header, pinned in row.items():
                if not header.startswith("P(K="):
                    continue
                k = int(header[len("P(K=") : -1])
                assert lumped.get(k, 0.0) == pytest.approx(
                    pinned, abs=1e-9
                ), f"golden {header} at lambda={lam}"

    def test_sweep_refines_once_and_warm_starts(self):
        # stages=24 makes the quotient 5,928 states, past
        # _ITERATIVE_MIN_STATES, so the sweep runs warm-started GMRES.
        configs = [
            CapacityModelConfig(failure_rate_per_hour=1e-5 * (1 + 0.2 * i))
            for i in range(22)
        ]
        capacity_distribution_expanded(configs[0], stages=24, lump=True)
        refine_after_first = capacity_stage_timings()["refine"]
        assert refine_after_first > 0.0
        for config in configs[1:]:
            capacity_distribution_expanded(config, stages=24, lump=True)
        # One refinement + one quotient assembly for the whole sweep.
        assert capacity_stage_timings()["refine"] == refine_after_first
        stats = capacity_solver_stats()
        assert stats["structure_fallbacks"] == 0
        assert stats["warm_started"] >= len(configs) - 1
        # Below the threshold (stages=8, 696 states) every point is one
        # direct solve and nothing is warm-started.
        clear_capacity_caches(reset_stats=True)
        for config in configs[:3]:
            capacity_distribution_expanded(config, stages=8, lump=True)
        stats = capacity_solver_stats()
        assert (stats["direct"], stats["iterative"]) == (3, 0)
        assert stats["warm_started"] == 0

    def test_lumped_failure_falls_back_to_full_chain(self, monkeypatch):
        import repro.analytic.capacity as capacity

        def boom(model, **kwargs):
            raise ModelError("injected: not lumpable")

        monkeypatch.setattr(capacity, "lumped_state_space", boom)
        before = capacity_solver_stats()["structure_fallbacks"]
        # A small plane keeps the unlumped expanded fallback (2^4 + 1
        # markings) cheap enough for a unit test.
        config = CapacityModelConfig(
            full_capacity=4, in_orbit_spares=1, threshold=3
        )
        fallback = capacity_distribution_expanded(config, stages=1, lump=True)
        assert capacity_solver_stats()["structure_fallbacks"] == before + 1
        monkeypatch.undo()
        clear_capacity_caches()
        unlumped = capacity_distribution_expanded(config, stages=1, lump=False)
        for k in set(fallback) | set(unlumped):
            assert fallback.get(k, 0.0) == pytest.approx(
                unlumped.get(k, 0.0), abs=1e-12
            )

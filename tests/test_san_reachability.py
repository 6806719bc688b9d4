"""Tests for repro.san.reachability (tangible state-space generation)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic.capacity import (
    CapacityModelConfig,
    build_capacity_san,
    build_capacity_san_expanded,
)
from repro.core.distributions import Deterministic
from repro.errors import ModelError, StateSpaceExplosionError
from repro.san import (
    Case,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
    TimedActivity,
    assemble,
    generate,
    lumped_state_space,
)


def mm1k_model(arrival=1.0, service=2.0, capacity=3):
    """M/M/1/K queue as a SAN."""
    arrive = TimedActivity.exponential(
        "arrive",
        arrival,
        input_gates=[
            InputGate("not_full", predicate=lambda m: m["queue"] < capacity)
        ],
        cases=[Case(output_arcs={"queue": 1})],
    )
    serve = TimedActivity.exponential("serve", service, input_arcs={"queue": 1})
    return SANModel([Place("queue", 0)], [arrive, serve], name="mm1k")


class TestBasicGeneration:
    def test_mm1k_state_count(self):
        space = generate(mm1k_model(capacity=3))
        assert len(space) == 4  # queue = 0..3
        assert not space.general

    def test_transition_rates(self):
        space = generate(mm1k_model(arrival=1.0, service=2.0, capacity=2))
        rates = {
            (space.markings[t.source], space.markings[t.target]): t.rate
            for t in space.markovian
        }
        assert rates[((0,), (1,))] == pytest.approx(1.0)
        assert rates[((1,), (0,))] == pytest.approx(2.0)

    def test_initial_distribution(self):
        space = generate(mm1k_model())
        assert space.initial_distribution == [(1.0, 0)]

    def test_explosion_guard(self):
        grow = TimedActivity.exponential(
            "grow",
            1.0,
            input_gates=[InputGate("always", predicate=lambda m: True)],
            cases=[Case(output_arcs={"p": 1})],
        )
        model = SANModel([Place("p", 0)], [grow])
        with pytest.raises(StateSpaceExplosionError):
            generate(model, max_states=50)

    def test_explosion_error_reports_limit_marking_and_lumping_hint(self):
        grow = TimedActivity.exponential(
            "grow",
            1.0,
            input_gates=[InputGate("always", predicate=lambda m: True)],
            cases=[Case(output_arcs={"p": 1})],
        )
        model = SANModel([Place("p", 0)], [grow])
        with pytest.raises(StateSpaceExplosionError) as excinfo:
            generate(model, max_states=50)
        error = excinfo.value
        assert error.limit == 50
        assert error.marking == {"p": 50}
        message = str(error)
        assert "limit of 50 markings" in message
        assert "{'p': 50}" in message
        assert "exchangeable place groups" in message
        assert "repro.san.lumping" in message

    def test_absorbing_marking_allowed(self):
        drain = TimedActivity.exponential("drain", 1.0, input_arcs={"p": 1})
        model = SANModel([Place("p", 2)], [drain])
        space = generate(model)
        assert len(space) == 3  # 2, 1, 0 (absorbing)


class TestVanishingElimination:
    def test_instantaneous_chain_collapses(self):
        """A timed firing followed by two instantaneous moves produces a
        single tangible successor."""
        step = TimedActivity.exponential(
            "step", 1.0, input_arcs={"a": 1}, cases=[Case(output_arcs={"b": 1})]
        )
        move1 = InstantaneousActivity(
            "m1", input_arcs={"b": 1}, cases=[Case(output_arcs={"c": 1})]
        )
        move2 = InstantaneousActivity(
            "m2", input_arcs={"c": 1}, cases=[Case(output_arcs={"d": 1})]
        )
        model = SANModel(
            [Place("a", 1), Place("b", 0), Place("c", 0), Place("d", 0)],
            [step],
            [move1, move2],
        )
        space = generate(model)
        markings = {model.marking_dict(m)["d"] for m in space.markings}
        # Only (a=1) and (d=1) are tangible; b/c never hold tokens.
        assert len(space) == 2
        assert markings == {0, 1}

    def test_probabilistic_cases_split_rates(self):
        split = TimedActivity.exponential(
            "split",
            3.0,
            input_arcs={"a": 1},
            cases=[
                Case(probability=0.25, output_arcs={"left": 1}),
                Case(probability=0.75, output_arcs={"right": 1}),
            ],
        )
        model = SANModel(
            [Place("a", 1), Place("left", 0), Place("right", 0)], [split]
        )
        space = generate(model)
        rates = sorted(t.rate for t in space.markovian)
        assert rates == [pytest.approx(0.75), pytest.approx(2.25)]

    def test_priority_orders_instantaneous(self):
        """Higher-priority instantaneous activities fire first."""
        low = InstantaneousActivity(
            "low", priority=0, input_arcs={"x": 1}, cases=[Case(output_arcs={"lo": 1})]
        )
        high = InstantaneousActivity(
            "high", priority=5, input_arcs={"x": 1}, cases=[Case(output_arcs={"hi": 1})]
        )
        feed = TimedActivity.exponential(
            "feed",
            1.0,
            input_gates=[InputGate("go", predicate=lambda m: m["x"] == 0 and m["hi"] == 0 and m["lo"] == 0)],
            cases=[Case(output_arcs={"x": 1})],
        )
        model = SANModel(
            [Place("x", 0), Place("hi", 0), Place("lo", 0)], [feed], [low, high]
        )
        space = generate(model)
        reached = {tuple(m) for m in space.markings}
        assert (0, 1, 0) in reached  # high fired
        assert (0, 0, 1) not in reached  # low never got the token

    def test_equal_priority_conflict_rejected(self):
        a = InstantaneousActivity("a", input_arcs={"x": 1})
        b = InstantaneousActivity("b", input_arcs={"x": 1})
        model = SANModel([Place("x", 1)], [], [a, b])
        with pytest.raises(ModelError):
            generate(model)

    def test_instantaneous_cycle_detected(self):
        ping = InstantaneousActivity(
            "ping", input_arcs={"a": 1}, cases=[Case(output_arcs={"b": 1})]
        )
        pong = InstantaneousActivity(
            "pong", input_arcs={"b": 1}, cases=[Case(output_arcs={"a": 1})]
        )
        model = SANModel([Place("a", 1), Place("b", 0)], [], [ping, pong])
        with pytest.raises(ModelError):
            generate(model)


class TestBadGateWrites:
    """A gate that drives a place negative is reported against the
    activity and case whose completion ran it."""

    @staticmethod
    def _draining_case():
        def drain(m):
            m["b"] -= 1

        return Case(probability=0.5, output_gates=[OutputGate("drain", drain)])

    def test_timed_completion_names_activity_and_case(self):
        move = TimedActivity.exponential(
            "move",
            1.0,
            input_arcs={"a": 1},
            cases=[Case(probability=0.5, output_arcs={"b": 1}), self._draining_case()],
        )
        model = SANModel([Place("a", 1), Place("b", 0)], [move])
        with pytest.raises(
            ModelError, match=r"activity 'move' case 1: place 'b' assigned invalid"
        ):
            generate(model)

    def test_instantaneous_completion_names_activity_and_case(self):
        tick = TimedActivity.exponential(
            "tick", 1.0, input_arcs={"a": 1}, cases=[Case(output_arcs={"c": 1})]
        )
        settle = InstantaneousActivity(
            "settle",
            input_arcs={"c": 1},
            cases=[Case(probability=0.5), self._draining_case()],
        )
        model = SANModel(
            [Place("a", 1), Place("b", 0), Place("c", 0)], [tick], [settle]
        )
        with pytest.raises(
            ModelError, match=r"activity 'settle' case 1: place 'b' assigned invalid"
        ):
            generate(model)


class TestGeneralTransitions:
    def test_deterministic_activity_recorded_as_general(self):
        timer = TimedActivity(
            "timer", Deterministic(5.0), input_arcs={"p": 1}
        )
        model = SANModel([Place("p", 1)], [timer])
        space = generate(model)
        assert space.general
        assert len(space.general) == 1
        assert space.general[0].activity == "timer"
        targets = space.general[0].targets
        assert len(targets) == 1
        assert targets[0][0] == pytest.approx(1.0)

    def test_general_by_source_grouping(self):
        timer = TimedActivity("t", Deterministic(1.0), input_arcs={"p": 1})
        model = SANModel([Place("p", 2)], [timer])
        space = generate(model)
        grouped = space.general_by_source()
        assert set(grouped) == {space.index[(2,)], space.index[(1,)]}


def _exchangeable_plane(order):
    """A symmetric failure/repair plane whose satellite places are
    declared and wired in ``order`` -- any two orders are the same
    model up to a renaming of exchangeable places."""
    sats = [f"s{i}" for i in order]

    def down(m):
        return sum(1 - m[s] for s in sats)

    def repair_case(s):
        def probability(m):
            d = down(m)
            return (1 - m[s]) / d if d else 0.0

        return Case(probability=probability, output_arcs={s: 1, "pool": 1})

    activities = [
        TimedActivity.exponential(f"fail_{s}", 0.01, input_arcs={s: 1})
        for s in sats
    ] + [
        TimedActivity.exponential(
            "repair",
            0.5,
            input_arcs={"pool": 1},
            input_gates=[InputGate("down", predicate=lambda m: down(m) > 0)],
            cases=[repair_case(s) for s in sats],
        )
    ]
    return SANModel(
        [Place(s, 1) for s in sats] + [Place("pool", 1)],
        activities,
        name="exchangeable-plane",
        exchangeable_groups=[sats],
    )


class TestExchangeablePermutationIsomorphism:
    """Permuting exchangeable satellite places must produce an
    isomorphic reachability graph: the state space only relabels."""

    @settings(max_examples=24, deadline=None)
    @given(order=st.permutations(list(range(1, 5))))
    def test_generate_is_isomorphic_under_permutation(self, order):
        base = generate(_exchangeable_plane(list(range(1, 5))))
        permuted = generate(_exchangeable_plane(list(order)))
        assert len(permuted) == len(base)
        assert len(permuted.markovian) == len(base.markovian)
        base_rates = sorted(t.rate for t in base.markovian)
        permuted_rates = sorted(t.rate for t in permuted.markovian)
        # The symmetry permutes transitions but preserves each rate
        # exactly (same float operations in a different order).
        assert permuted_rates == base_rates


# ----------------------------------------------------------------------
# State numbering
# ----------------------------------------------------------------------
def _hex(value):
    return float(value).hex()


def _space_digest(space):
    """sha256 over the markings, initial distribution and transitions
    in state order, floats written exactly."""
    digest = hashlib.sha256()
    digest.update(repr(space.markings).encode())
    digest.update(
        repr([(_hex(p), s) for p, s in space.initial_distribution]).encode()
    )
    digest.update(
        repr(
            [
                (t.source, t.activity, _hex(t.rate), t.target, _hex(t.probability))
                for t in space.markovian
            ]
        ).encode()
    )
    digest.update(
        repr(
            [
                (
                    t.source,
                    t.activity,
                    repr(t.distribution),
                    tuple((_hex(p), s) for p, s in t.targets),
                )
                for t in space.general
            ]
        ).encode()
    )
    return digest.hexdigest()


def _chain_digest(chain):
    """sha256 over an assembled chain's arrays, slots and initial
    distribution."""
    digest = hashlib.sha256()
    for array in (
        chain.codes,
        chain.marking_of_state,
        chain.transition_source,
        chain.transition_target,
        chain.transition_slot,
        chain.transition_weight,
    ):
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(
        repr(
            [
                (
                    slot.marking_index,
                    slot.activity,
                    slot.kind,
                    slot.stages,
                    tuple(map(_hex, slot.case_probabilities)),
                )
                for slot in chain.slots
            ]
        ).encode()
    )
    digest.update(
        repr([(_hex(p), s) for p, s in chain.initial_distribution]).encode()
    )
    return digest.hexdigest()


def _pinned_space(name):
    kind, _, variant = name.partition("-")
    if kind == "counted":
        policy, repair = variant.split("-")
        config = CapacityModelConfig(
            deployment_policy=policy,
            repair_rate_per_hour=None if repair == "None" else float(repair),
        )
        return generate(build_capacity_san(config))
    if kind == "unlumped":
        config = CapacityModelConfig(full_capacity=4, in_orbit_spares=2, threshold=3)
        return generate(build_capacity_san_expanded(config))
    config = (
        CapacityModelConfig()
        if variant == "default"
        else CapacityModelConfig(full_capacity=28, in_orbit_spares=4, threshold=20)
    )
    return lumped_state_space(build_capacity_san_expanded(config))


#: ``(state space, assemble(..., stages=6))`` digests, recorded before
#: generation and lumping shared one search.  A change here renumbers
#: states or moves a transition: every cached topology, warm start and
#: golden built on the old numbering is suspect.
PINNED = {
    "counted-combined-None": (
        "f1e20c929504a219bf48040dcede0920daf4e7a5f920f68659604b5147a4fa10",
        "0a8e7b4efaa66b6fdb7d733eab1427ba192c4719d3ed973df834172abcb49f9b",
    ),
    "counted-combined-0.0": (
        "906ebb13e8575257ebffcf5475d3e709adf7536946ac3c0e77e01b44db721676",
        "ff50c3a019a942e0263bca41c43c66dbcfc7b413398ce0c4be1bd846bbfc31ac",
    ),
    "counted-threshold-None": (
        "6460b09d86cdbea8ece0496e2268da597ec51c7af256d7cd4e09253de6d1ce69",
        "cce115d7cf7f0ef4b1564fbedf65f9d9f9fde0c6fc4be56798766ae9e3181491",
    ),
    "counted-threshold-0.0": (
        "acaaacf7210860d92bac5bab187edb3b89d6a663faccd6c190d026d82d70bcb0",
        "14f0adc951e02eba2e4aba800121bc2788936c44f0f010a9336e086c6ea6b40d",
    ),
    "counted-scheduled-None": (
        "2dd6a19b3bce67ee2fafd530cb44c436e9d30cc905f6ef58feadf0dafc46154b",
        "769151a8511fa2c5a9cf18d993dde5f9700a0b1ca8fb07a15d7c86cfce89b06d",
    ),
    "counted-scheduled-0.0": (
        "345baeacc6663058fe588eeff3fd78843827a1013421e55ec005a9bafd44275d",
        "2f7a468292d992d650709999f615773dc6519a159169ea67e301797fd671ea98",
    ),
    "unlumped-4": (
        "7cb6dc6c8bffd016581d511581f668fe877d08ec8a51de8301fc4c15bd5f4194",
        "b8e250929cfe4a90551a5c351aca24b93148b84438c7b42ffd7dbb500d6611f5",
    ),
    "lumped-default": (
        "ba501a354ebf028d553ddc1a51343debeb40a6f4f09b9a76fd346755fbc09cb7",
        "5eadca82e0f861a26e2a28f35a7f336d245d24d5d7480b648be3d6ef61966aa8",
    ),
    "lumped-scale2": (
        "55f3d9330b93d1215266150aa53c6f2010e2be4c915d7179bbbeb7916579f9ff",
        "549bc2d0e6b59aec3ecece31d9c9458f35ae3acad03ec79cb4f85737ea8d92e8",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_state_numbering_is_pinned(name):
    space = _pinned_space(name)
    assert (_space_digest(space), _chain_digest(assemble(space, stages=6))) == (
        PINNED[name]
    )

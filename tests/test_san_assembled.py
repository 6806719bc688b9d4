"""Tests for repro.san.assembled (the topology/rate split): assembled
chains must encode their states faithfully and re-rate to the same
answers as a fresh rebuild; the capacity layer's rate fields must reach
slot rates only."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytic import capacity
from repro.analytic.capacity import (
    CapacityModelConfig,
    build_capacity_san,
    build_capacity_san_expanded,
    capacity_distribution,
)
from repro.core.distributions import Deterministic, Erlang
from repro.errors import ModelError
from repro.san.ctmc import CTMC
from repro.san import (
    Case,
    InputGate,
    Place,
    SANModel,
    TimedActivity,
    assemble,
    generate,
    lumped_state_space,
)


def on_off_model(up_rate=0.5, repair_time=2.0, name="on-off"):
    """Exponential failure, deterministic repair."""
    fail = TimedActivity.exponential("fail", up_rate, input_arcs={"up": 1})
    repair = TimedActivity(
        "repair",
        Deterministic(repair_time),
        input_gates=[InputGate("down", predicate=lambda m: m["up"] == 0)],
        cases=[Case(output_arcs={"up": 1})],
    )
    return SANModel([Place("up", 1)], [fail, repair], name=name)


def dual_repair_model(fail=0.5, slow=1.0, fast=4.0):
    """Two redundant repair pathways: zeroing one keeps the chain
    irreducible through the other."""
    a = TimedActivity.exponential("fail", fail, input_arcs={"up": 1})
    down_gate = InputGate("down", predicate=lambda m: m["up"] == 0)
    slow_repair = TimedActivity.exponential(
        "slow_repair",
        slow,
        input_gates=[down_gate],
        cases=[Case(output_arcs={"up": 1})],
    )
    fast_repair = TimedActivity.exponential(
        "fast_repair",
        fast,
        input_gates=[down_gate],
        cases=[Case(output_arcs={"up": 1})],
    )
    return SANModel(
        [Place("up", 1)],
        [a, slow_repair, fast_repair],
        name="dual-repair",
    )


def capacity_space(lam=5e-5):
    config = CapacityModelConfig(failure_rate_per_hour=lam, threshold=10)
    return generate(build_capacity_san(config))


class TestEquivalenceWithUnfold:
    """The Erlang unfolding's integer state codes."""

    def test_integer_codes_decode_faithfully(self):
        """Every augmented state has its own code, and its mixed-radix
        digits round-trip: marking index, then one stage digit per
        general activity, zero unless the activity is enabled."""
        space = capacity_space()
        assembled = assemble(space, stages=6)
        codes = assembled.codes.tolist()
        assert len(codes) == assembled.num_states
        assert len(set(codes)) == len(codes)  # codes are injective
        enabled = [set() for _ in range(len(space))]
        for transition in space.general:
            enabled[transition.source].add(transition.activity)
        span = assembled.stage_span
        digits = list(
            zip(
                assembled.general_names,
                assembled.stage_strides,
                assembled.stage_capacities,
            )
        )
        for code, marking_index in zip(
            codes, assembled.marking_of_state.tolist()
        ):
            marking, remainder = divmod(code, span)
            assert marking == marking_index
            rebuilt = marking * span
            for name, stride, capacity in digits:
                stage = (remainder // stride) % capacity
                if name not in enabled[marking]:
                    assert stage == 0
                rebuilt += stage * stride
            assert rebuilt == code


class TestRerate:
    def test_rerate_matches_fresh_rebuild_at_new_rates(self):
        """Assemble once at one lambda, re-rate across a sweep: every
        point must match a from-scratch assembly to 1e-12."""
        space = capacity_space(lam=2e-5)
        assembled = assemble(space, stages=8)
        for lam in (4e-5, 7e-5, 9.6e-5):
            fresh = assemble(capacity_space(lam=lam), stages=8)
            rerated = assembled.rerate(fresh.rates)
            rebuilt = fresh.rerate(fresh.rates)
            pi_rerated = rerated.steady_state()
            pi_rebuilt = rebuilt.steady_state()
            marginals = assembled.marking_marginals(pi_rerated)
            rebuilt_marginals = fresh.marking_marginals(pi_rebuilt)
            assert np.max(np.abs(marginals - rebuilt_marginals)) <= 1e-12

    def test_zero_rate_is_a_rate_not_a_topology_change(self):
        """Regression: a rate hitting exactly 0.0 is a re-rate, not a
        structural change.  Enabling is arcs + gates only, so a model
        whose activity evaluates to rate zero assembles the same slots,
        and the zero rate re-rates in place (the zero-rate transitions
        drop out in the CTMC build); the old ``Exponential``
        constructor rejected rate 0.0 outright, which misclassified
        rate-only sweep points (e.g. a repair-rate axis crossing zero)
        as topology changes."""

        space = generate(dual_repair_model())
        assembled = assemble(space, stages=1)
        # Positive -> zero: same slots, and the steady state matches a
        # fresh build at the zeroed rate.
        zero = assemble(generate(dual_repair_model(fast=0.0)), stages=1)
        assert zero.slots == assembled.slots
        pi_rerated = assembled.rerate(zero.rates).steady_state()
        fresh_zero = zero.rerate(zero.rates)
        assert np.max(
            np.abs(pi_rerated - fresh_zero.steady_state())
        ) <= 1e-12
        # Only the surviving pathway remains: pi(up) = slow/(slow+fail).
        marginals = assembled.marking_marginals(pi_rerated)
        up_index = space.model.place_index.position("up")
        up_mass = sum(
            p
            for marking_index, p in enumerate(marginals.tolist())
            if space.markings[marking_index][up_index] == 1
        )
        assert up_mass == pytest.approx(1.0 / 1.5, abs=1e-12)
        # Zero -> positive on a topology *assembled at zero*: also fine.
        assembled_at_zero = assemble(
            generate(dual_repair_model(fast=0.0)), stages=1
        )
        hot = assemble(generate(dual_repair_model(fast=4.0)), stages=1)
        back = assembled_at_zero.rerate(hot.rates)
        fresh = hot.rerate(hot.rates)
        assert np.max(
            np.abs(back.steady_state() - fresh.steady_state())
        ) <= 1e-12

    @pytest.mark.parametrize(
        "space, other",
        [
            (capacity_space(lam=2e-5), capacity_space(lam=7e-5)),
            (generate(dual_repair_model()), generate(dual_repair_model(fast=0.0))),
        ],
        ids=["capacity", "zero-rate-slot"],
    )
    def test_rerate_csr_equals_from_arrays(self, space, other):
        """The rate matrix summed into the topology's CSR pattern is the
        one CTMC.from_arrays builds from the transition arrays: same
        pattern, no explicit zeros (a zero-rate slot's transitions
        leave it), data equal to 1e-15 relative."""
        assembled = assemble(space, stages=8)
        slot_rates = assemble(other, stages=8).rates
        rates = slot_rates[assembled.transition_slot] * assembled.transition_weight
        expected = CTMC.from_arrays(
            assembled.num_states,
            assembled.transition_source,
            assembled.transition_target,
            rates,
        )._rate_matrix
        matrix = assembled.rerate(slot_rates)._rate_matrix
        assert matrix.shape == expected.shape
        assert np.array_equal(matrix.indptr, expected.indptr)
        assert np.array_equal(matrix.indices, expected.indices)
        assert np.all(matrix.data > 0.0)
        assert np.max(np.abs(matrix.data / expected.data - 1.0)) <= 1e-15
        if other.model.name == "dual-repair":
            assert np.count_nonzero(rates == 0.0) > 0

    def test_rate_vector_length_validated(self):
        space = generate(on_off_model())
        assembled = assemble(space, stages=4)
        for size in (len(assembled.slots) - 1, len(assembled.slots) + 1):
            with pytest.raises(ModelError, match="shape"):
                assembled.rerate(np.ones(size))


def _capacity_space(config, formulation):
    if formulation == "counted":
        return generate(build_capacity_san(config))
    return lumped_state_space(build_capacity_san_expanded(config))


def _assert_same_structure(chain, other):
    """Same markings, state codes, transitions, weights, slots and
    initial distribution, bit for bit: the rate-free part of a chain."""
    assert chain.space.markings == other.space.markings
    for name in (
        "codes",
        "transition_source",
        "transition_target",
        "transition_slot",
        "transition_weight",
    ):
        assert np.array_equal(getattr(chain, name), getattr(other, name)), name
    assert chain.slots == other.slots
    assert chain.initial_distribution == other.initial_distribution


_RATE_VALUES = {
    "failure_rate_per_hour": st.floats(1e-6, 1e-2),
    "scheduled_period_hours": st.floats(10.0, 1e5),
    "replacement_latency_hours": st.floats(1.0, 1e3),
    "repair_rate_per_hour": st.one_of(st.just(0.0), st.floats(1e-5, 1e-1)),
}


@st.composite
def _capacity_configs(draw):
    full = draw(st.integers(2, 5))
    return CapacityModelConfig(
        full_capacity=full,
        in_orbit_spares=draw(st.integers(0, 2)),
        threshold=draw(st.integers(1, full)),
        deployment_policy=draw(
            st.sampled_from(["combined", "threshold", "scheduled"])
        ),
        repair_rate_per_hour=draw(
            st.one_of(st.none(), _RATE_VALUES["repair_rate_per_hour"])
        ),
        **{
            name: draw(values)
            for name, values in _RATE_VALUES.items()
            if name != "repair_rate_per_hour"
        },
    )


class TestTopologyValidation:
    """A re-rate checks no topology: the capacity layer's rate fields
    reach slot rates only, which these tests hold."""

    @settings(max_examples=50, deadline=None)
    @given(
        config=_capacity_configs(),
        stages=st.integers(1, 4),
        data=st.data(),
    )
    def test_rate_fields_reach_slot_rates_only(self, config, stages, data):
        """Perturbing any one rate field of a counted or lumped config
        leaves the assembled structure as it is, and the cached
        topology re-rated to the perturbed config is, bit for bit, the
        CSR matrix of a fresh assembly of that config's own model."""
        for formulation in ("counted", "lumped"):
            entry = capacity._build_topology(config, stages, formulation)
            for name, values in _RATE_VALUES.items():
                if getattr(config, name) is None:
                    continue
                point = dataclasses.replace(config, **{name: data.draw(values)})
                own = assemble(_capacity_space(point, formulation), stages=stages)
                _assert_same_structure(entry.chain, own)
                rerated = entry.chain.rerate(entry.rates(point))._rate_matrix
                fresh = own.rerate(own.rates)._rate_matrix
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(
                        getattr(rerated, part), getattr(fresh, part)
                    ), (formulation, name, part)

    def test_matching_erlang_substitutes_for_deterministic(self):
        """A Deterministic timer and an Erlang of exactly the assembled
        stage count unfold to the same structure, so the Erlang model's
        rates re-rate the Deterministic chain."""
        stages = 6
        assembled = assemble(generate(on_off_model()), stages=stages)
        fail = TimedActivity.exponential("fail", 0.5, input_arcs={"up": 1})
        repair = TimedActivity(
            "repair",
            Erlang(stages, stages / 3.0),  # mean 3 instead of 2
            input_gates=[InputGate("down", predicate=lambda m: m["up"] == 0)],
            cases=[Case(output_arcs={"up": 1})],
        )
        substituted = assemble(
            generate(SANModel([Place("up", 1)], [fail, repair])), stages=stages
        )
        _assert_same_structure(assembled, substituted)
        ctmc = assembled.rerate(substituted.rates)
        pi = assembled.marking_marginals(ctmc.steady_state())
        up_index = assembled.space.index[(1,)]
        # Availability (1/lam) / (1/lam + d) with the new mean d = 3.
        assert pi[up_index] == pytest.approx(2.0 / 5.0, abs=1e-9)


class TestShape:
    def test_describe_mentions_counts(self):
        assembled = assemble(generate(on_off_model()), stages=4)
        text = assembled.describe()
        assert str(assembled.num_states) in text
        assert "rate slots" in text

    def test_rejects_bad_stage_count(self):
        space = generate(on_off_model())
        for stages in (0, 2.5, True, "3"):
            with pytest.raises(ModelError, match="stages"):
                assemble(space, stages=stages)
        with pytest.raises(ModelError, match="stages"):
            capacity_distribution(CapacityModelConfig(), stages=2.5)

    def test_accepts_numpy_integer_stage_count(self):
        space = generate(on_off_model())
        assert (
            assemble(space, stages=np.int64(3)).num_states
            == assemble(space, stages=3).num_states
        )

"""Tests for repro.san.model and repro.san.marking."""

import pytest

from repro.errors import ModelError
from repro.san import (
    Case,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
    TimedActivity,
)
from repro.san.marking import MarkingView, PlaceIndex


class TestPlaceIndex:
    def test_positions(self):
        index = PlaceIndex(["a", "b", "c"])
        assert index.position("b") == 1
        assert "c" in index
        assert "z" not in index

    def test_rejects_duplicates(self):
        with pytest.raises(ModelError):
            PlaceIndex(["a", "a"])

    def test_unknown_place_raises(self):
        index = PlaceIndex(["a"])
        with pytest.raises(ModelError):
            index.position("missing")


class TestMarkingView:
    def test_read_write(self):
        view = MarkingView(PlaceIndex(["a", "b"]), (3, 0))
        assert view["a"] == 3
        view["b"] = 5
        assert view.freeze() == (3, 5)

    def test_add_remove(self):
        view = MarkingView(PlaceIndex(["a"]), (3,))
        view.add("a", 2)
        view.remove("a", 4)
        assert view["a"] == 1

    def test_rejects_negative_tokens(self):
        view = MarkingView(PlaceIndex(["a"]), (1,))
        with pytest.raises(ModelError):
            view.remove("a", 2)

    def test_as_dict(self):
        view = MarkingView(PlaceIndex(["x", "y"]), (1, 2))
        assert view.as_dict() == {"x": 1, "y": 2}

    def test_total_sums_a_group_of_places(self):
        index = PlaceIndex(["a", "b", "c"])
        view = MarkingView(index, (1, 0, 4))
        assert view.total(("a", "c")) == 5
        assert view.total(("b",)) == 0
        assert view.total(()) == 0
        view["b"] = 2
        assert view.total(("c", "b", "a")) == 7
        assert index.positions(("c", "a")) == (2, 0)
        with pytest.raises(ModelError):
            view.total(("a", "missing"))


def simple_model():
    """One place drained by a timed activity behind a gate."""
    drain = TimedActivity.exponential(
        "drain",
        1.0,
        input_arcs={"tokens": 1},
        input_gates=[InputGate("gate", predicate=lambda m: m["tokens"] >= 2)],
    )
    return SANModel([Place("tokens", 3)], [drain])


class TestEnablingAndFiring:
    def test_input_arcs_gate_enabling(self):
        model = simple_model()
        assert model.enabled_timed(model.view((3,)))  # gate: tokens >= 2
        assert not model.enabled_timed(model.view((1,)))

    def test_firing_consumes_and_produces(self):
        produce = TimedActivity.exponential(
            "move",
            1.0,
            input_arcs={"src": 2},
            cases=[Case(output_arcs={"dst": 1})],
        )
        model = SANModel([Place("src", 4), Place("dst", 0)], [produce])
        marking = produce.fire(model.place_index, (4, 0), 0)
        assert marking == (2, 1)

    def test_output_gate_function_applied(self):
        reset = TimedActivity.exponential(
            "reset",
            1.0,
            input_gates=[InputGate("always", predicate=lambda m: True)],
            cases=[
                Case(
                    output_gates=[
                        OutputGate("zero", lambda m: m.__setitem__("x", 0))
                    ]
                )
            ],
        )
        model = SANModel([Place("x", 7)], [reset])
        assert reset.fire(model.place_index, (7,), 0) == (0,)

    def test_marking_dependent_rate(self):
        activity = TimedActivity.exponential(
            "fail", lambda m: 0.5 * m["x"], input_arcs={"x": 1}
        )
        model = SANModel([Place("x", 4)], [activity])
        dist = activity.distribution_at(model.view((4,)))
        assert dist.rate == pytest.approx(2.0)

    def test_case_probabilities_must_sum_to_one(self):
        broken = InstantaneousActivity(
            "choice",
            input_arcs={"x": 1},
            cases=[Case(probability=0.6), Case(probability=0.6)],
        )
        model = SANModel([Place("x", 1)], [], [broken])
        with pytest.raises(ModelError):
            broken.case_probabilities_at(model.view((1,)))

    def test_marking_dependent_case_probability(self):
        activity = InstantaneousActivity(
            "choice",
            input_arcs={"x": 1},
            cases=[
                Case(probability=lambda m: 1.0 if m["x"] > 1 else 0.0),
                Case(probability=lambda m: 0.0 if m["x"] > 1 else 1.0),
            ],
        )
        model = SANModel([Place("x", 3)], [], [activity])
        assert activity.case_probabilities_at(model.view((3,))) == [1.0, 0.0]


class TestModelValidation:
    def test_rejects_duplicate_activity_names(self):
        a = TimedActivity.exponential("x", 1.0, input_arcs={"p": 1})
        b = TimedActivity.exponential("x", 2.0, input_arcs={"p": 1})
        with pytest.raises(ModelError):
            SANModel([Place("p", 1)], [a, b])

    def test_rejects_unknown_place_in_arc(self):
        a = TimedActivity.exponential("x", 1.0, input_arcs={"nope": 1})
        with pytest.raises(ModelError):
            SANModel([Place("p", 1)], [a])

    def test_rejects_unknown_place_in_case(self):
        a = TimedActivity.exponential(
            "x", 1.0, input_arcs={"p": 1}, cases=[Case(output_arcs={"nope": 1})]
        )
        with pytest.raises(ModelError):
            SANModel([Place("p", 1)], [a])

    def test_rejects_zero_multiplicity_arc(self):
        with pytest.raises(ModelError):
            TimedActivity.exponential("x", 1.0, input_arcs={"p": 0})

    def test_rejects_negative_output_arc_naming_activity_and_place(self):
        """Regression: the model built and failed partway through
        ``generate`` with a message naming neither."""
        a = TimedActivity.exponential(
            "x", 1.0, input_arcs={"a": 1}, cases=[Case(output_arcs={"b": -1})]
        )
        with pytest.raises(
            ModelError, match=r"activity 'x': output arc to 'b' has multiplicity -1"
        ):
            SANModel([Place("a", 1), Place("b", 0)], [a])

    def test_rejects_fractional_input_arc_naming_activity_and_place(self):
        """Regression: a 1.5 arc built and left 0.5 tokens behind."""
        with pytest.raises(
            ModelError, match=r"activity 'x': input arc from 'a' has multiplicity 1\.5"
        ):
            SANModel(
                [Place("a", 2)],
                [TimedActivity.exponential("x", 1.0, input_arcs={"a": 1.5})],
            )

    def test_negative_initial_marking_stays_a_model_error(self):
        with pytest.raises(ModelError, match="negative initial marking"):
            Place("a", -1)

    def test_initial_marking(self):
        model = simple_model()
        assert model.initial_marking() == (3,)

"""One rule for numbers from outside: ``repro.errors`` decides.

An integer is a ``numbers.Integral`` that is not a ``bool``, a number a
finite ``numbers.Real`` that is not a ``bool``, a string a ``str``
(``repro/errors.py``).  Every config dataclass applies the rule to its
declared scalar fields through ``check_fields``; entry points call
``require_integer`` / ``require_finite``.  The guard below keeps the
rule in one place: outside a short allow-list, no module under
``src/repro`` tests ``numbers.Integral``, ``numbers.Real`` or
``isinstance(x, bool)`` itself.  The property test feeds every
declared scalar field, and every field holding a nested config, of
every config class a bad value and checks the error names that field.
"""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.analytic.capacity import CapacityModelConfig
from repro.core.config import ConstellationConfig, EvaluationParams
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.geolocation.measurements import Emitter, Measurement
from repro.geometry.plane import PlaneGeometry
from repro.optimize.design import DesignPoint, GroundSparePolicy
from repro.orbits.footprint import Footprint
from repro.orbits.frames import GeodeticPoint
from repro.orbits.kepler import CircularOrbit
from repro.protocol.signal import Signal
from repro.san import Place
from repro.scenarios.schema import ScenarioCase
from repro.simulation.vector import FaultSchedule

PACKAGE_ROOT = Path(repro.__file__).parent

#: Modules that may still test the types themselves, and why.
ALLOWED = {
    "repro/errors.py": "the rule itself",
    "repro/san/ctmc.py": "num_states raises ModelError, which the CTMC tests pin",
    "repro/san/assembled.py": "stages raises ModelError, which the SAN tests pin",
    "repro/scenarios/scorer.py": "compares scorecard values; it validates nothing",
    "repro/campaign/journal.py": "_field checks a journal record against any JSON kind",
}


def _type_tests(path: Path):
    """``(line, what)`` for every hand-written integer/number/bool test
    in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "numbers"
            and node.attr in ("Integral", "Real")
        ):
            yield node.lineno, f"numbers.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            yield node.lineno, "from numbers import ..."
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Name)
            and node.args[1].id == "bool"
        ):
            yield node.lineno, "isinstance(..., bool)"


def _modules():
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        yield path.relative_to(PACKAGE_ROOT.parent).as_posix(), path


def test_only_the_allow_list_tests_types_by_hand():
    found = {
        f"{name}:{line}": what
        for name, path in _modules()
        if name not in ALLOWED
        for line, what in _type_tests(path)
    }
    assert not found, "use repro.errors' checks instead:\n" + "\n".join(
        f"{where} {what}" for where, what in found.items()
    )


def test_every_allow_list_entry_is_still_needed():
    modules = dict(_modules())
    stale = [name for name in ALLOWED if not list(_type_tests(modules[name]))]
    assert not stale, f"drop these from ALLOWED: {stale}"


# ----------------------------------------------------------------------
# Property: any bad scalar is rejected by name
# ----------------------------------------------------------------------
#: A valid instance of every class that takes outside input (the
#: defaults, or reference values where a class has none).  The fault
#: schedule is checked by ``validate``, against a 5-satellite roster.
BASES = {
    "ConstellationConfig": ConstellationConfig(),
    "EvaluationParams": EvaluationParams(),
    "CapacityModelConfig": CapacityModelConfig(),
    "PlaneGeometry": PlaneGeometry(90.0, 9.0, 14),
    "FaultPlan": FaultPlan(),
    "ScenarioCase": ScenarioCase(case_id="case", family="family"),
    "GroundSparePolicy": GroundSparePolicy(),
    "DesignPoint": DesignPoint(
        plane_scale=1,
        full_capacity=14,
        failure_rate_per_hour=1e-5,
        policy=GroundSparePolicy(),
    ),
    "FaultSchedule": FaultSchedule(np.full((2, 5), np.inf)),
    "Place": Place("a", 1),
    "Signal": Signal("s", 0.0, 6.0),
    "CircularOrbit": CircularOrbit(500.0, 0.1),
    "Footprint": Footprint.reference(),
    "Emitter": Emitter(GeodeticPoint(0.5, 0.2)),
    "Measurement": Measurement(
        "doppler", 60.0, np.zeros(3), np.zeros(3), 900.0e6, 50.0, "sat-1"
    ),
}

_BAD = {
    "int": [math.nan, math.inf, -math.inf, True, "1", 2.5],
    "float": [math.nan, math.inf, -math.inf, True, "1"],
    "str": [math.nan, math.inf, True],
    # A field holding a nested config (``EvaluationParams.constellation``,
    # ``DesignPoint.policy``, ``ScenarioCase.fault_plan``): anything but
    # an instance of the declared class, another config included.
    "config": ["x", 1.0, True, {}, PlaneGeometry(90.0, 9.0, 14)],
}


def _scalar_fields(instance):
    """``(name, kind, optional)`` of each declared ``int``/``float``/
    ``str`` field and of each field declared as one of the config
    classes (kind ``"config"``), ``Optional[...]`` unwrapped."""
    for spec in dataclasses.fields(instance):
        kind = spec.type
        optional = kind.startswith("Optional[")
        if optional:
            kind = kind[len("Optional[") : -1]
        if kind in BASES:
            yield spec.name, "config", optional
        elif kind in _BAD:
            yield spec.name, kind, optional


def _build(cls, changes):
    instance = dataclasses.replace(BASES[cls], **changes)
    if isinstance(instance, FaultSchedule):
        instance.validate(5)
    return instance


CASES = [
    (name, field, bad)
    for name, base in BASES.items()
    for field, kind, optional in _scalar_fields(base)
    for bad in _BAD[kind] + ([] if optional else [None])
]


def test_every_class_declares_scalar_fields():
    assert all(list(_scalar_fields(base)) for base in BASES.values())
    nested = {
        (name, field)
        for name, base in BASES.items()
        for field, kind, _ in _scalar_fields(base)
        if kind == "config"
    }
    assert nested == {
        ("EvaluationParams", "constellation"),
        ("DesignPoint", "policy"),
        ("ScenarioCase", "fault_plan"),
    }


@settings(max_examples=50, deadline=None)
@given(case=st.sampled_from(CASES))
def test_a_bad_scalar_is_rejected_naming_its_field(case):
    name, field, bad = case
    with pytest.raises(ConfigurationError, match=rf"\b{re.escape(field)}\b"):
        _build(name, {field: bad})


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: EvaluationParams(constellation="x"), "constellation"),
        (lambda: DesignPoint(1, 14, 1e-5, policy="x"), "policy"),
        (lambda: ScenarioCase("case", "family", fault_plan={}), "fault_plan"),
    ],
    ids=[
        "EvaluationParams.constellation",
        "DesignPoint.policy",
        "ScenarioCase.fault_plan",
    ],
)
def test_a_nested_config_of_the_wrong_type_is_rejected_by_name(build, field):
    """Regression: a string ``constellation`` escaped as a raw
    ``AttributeError`` and a string ``policy`` was accepted until
    ``DesignPoint.config()``."""
    with pytest.raises(ConfigurationError, match=rf"{field} must be a "):
        build()


@pytest.mark.parametrize("name", sorted(BASES))
def test_defaults_construct_and_numpy_scalars_pass(name):
    """The valid base rebuilds, and numpy ints / floats stand in for
    Python ones wherever a field declares ``int`` / ``float``."""
    base = BASES[name]
    assert _build(name, {}) == base or isinstance(base, FaultSchedule)
    numpy_kind = {"int": np.int64, "float": np.float64}
    for field, kind, _ in _scalar_fields(base):
        value = getattr(base, field)
        if kind in numpy_kind and value is not None:
            _build(name, {field: numpy_kind[kind](value)})

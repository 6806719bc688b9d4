"""Reachability: every public unit of ``repro`` has a caller outside tests.

A module-level public function or class under ``src/repro`` must be
referenced, outside its own body, by code under ``src``, ``perfbench``,
``examples`` or ``benchmarks``: the tables, CLIs, examples and
workloads.  A re-export (an import in a package ``__init__``, or an
``__all__`` entry) is not a reference; it only repeats the name.  A
unit that only tests reach stays only as a test's oracle or tool, on
``TEST_ONLY`` with the test that uses it.  Everything else that no
entry point reaches is dead weight: delete it with the tests that
check only it.

The match is by name (an ``ast.Name``, an attribute or an imported
alias), so a unit sharing its name with a reached one passes: the
guard is a lower bound on what is dead, not a call graph.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
PRODUCTION = ("src", "perfbench", "examples", "benchmarks")

#: Public units only tests reach: ``module.name`` -> (the test that
#: uses it, how).
TEST_ONLY = {
    "repro.analytic.capacity.assemble_capacity_topology": (
        "tests/test_analytic_capacity.py",
        "tool: reads the topology cache the capacity solves share",
    ),
    "repro.core.distributions.Uniform": (
        "tests/test_analytic_qos_model.py",
        "input to the general integrator and to the phase-type rejection",
    ),
    "repro.geometry.theorems.theorem1_admits": (
        "tests/test_properties.py",
        "oracle: Theorem 1's predicate against the simultaneous window",
    ),
    "repro.geometry.theorems.theorem2_admits": (
        "tests/test_properties.py",
        "oracle: Theorem 2's predicate against the sequential window",
    ),
    "repro.orbits.kepler.KeplerianOrbit": (
        "tests/test_orbits_kepler.py",
        "oracle: the general propagator CircularOrbit must match",
    ),
    "repro.san.lumping.canonical_marking": (
        "tests/test_san_lumping.py",
        "tool: the orbit representative the quotient is checked against",
    ),
    "repro.san.lumping.orbit_size": (
        "tests/test_san_lumping.py",
        "tool: the orbit sizes the quotient's class sizes must equal",
    ),
    "repro.scenarios.generator.generate_from_metadata": (
        "tests/test_scenarios_golden.py",
        "oracle: the golden corpus regenerates from its metadata",
    ),
    "repro.scenarios.schema.load_case": (
        "tests/test_scenarios_schema.py",
        "tool: the single-case round trip of the corpus schema",
    ),
    "repro.simulation.batch.reset_batch_stage_timings": (
        "tests/test_simulation_batch.py",
        "tool: zeroes the stage timers before a timed replication",
    ),
    "repro.simulation.plane_process.sample_capacity_states": (
        "tests/test_optimize.py",
        "oracle: iid plane-DES capacity draws",
    ),
    "repro.simulation.qos_montecarlo.sample_qos_level": (
        "tests/test_simulation_qos_montecarlo.py",
        "oracle: the scalar P(Y | k) draw classify_qos_levels batches",
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_units():
    """``{module.name: (path, name)}`` of every module-level public
    function and class under ``src/repro``."""
    units = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, _DEFINITIONS) and not node.name.startswith("_"):
                units[f"{module}.{node.name}"] = (path, node.name)
    return units


def _is_reexport(path: Path, statement: ast.stmt) -> bool:
    if path.name == "__init__.py" and isinstance(statement, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in statement.targets
    )


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def _referenced(roots, units):
    """Every name used under ``roots``, outside re-exports and outside
    the body of the unit it names."""
    own = set(units.values())
    names = set()
    for root in roots:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for statement in ast.parse(path.read_text(), filename=str(path)).body:
                if _is_reexport(path, statement):
                    continue
                self_name = getattr(statement, "name", None)
                if (path, self_name) not in own:
                    self_name = None
                names.update(name for name in _names(statement) if name != self_name)
    return names


def _unreached():
    units = _public_units()
    reached = _referenced(PRODUCTION, units)
    return sorted(
        qualified
        for qualified in units
        if qualified.rpartition(".")[2] not in reached
    )


def test_every_public_unit_is_reached_or_a_named_test_tool():
    unreached = [name for name in _unreached() if name not in TEST_ONLY]
    assert not unreached, (
        "no table, CLI, example or workload reaches these; delete them "
        "(with the tests that check only them) or list the test that "
        "uses each in TEST_ONLY:\n" + "\n".join(unreached)
    )


def test_every_test_only_entry_is_still_needed_and_used():
    unreached = set(_unreached())
    stale = [name for name in TEST_ONLY if name not in unreached]
    assert not stale, f"reached from production or gone; drop from TEST_ONLY: {stale}"
    unused = [
        name
        for name, (test, _) in TEST_ONLY.items()
        if name.rpartition(".")[2] not in set(_names(ast.parse((REPO_ROOT / test).read_text())))
    ]
    assert not unused, f"the named test does not use these: {unused}"

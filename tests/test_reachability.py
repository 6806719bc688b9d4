"""Reachability: every public unit, member and option of ``repro`` has
a caller outside tests.

Production code is everything under ``src``, ``perfbench``,
``examples`` and ``benchmarks``: the tables, CLIs, examples and
workloads.  Three checks hold over it.

* **Units.**  A module-level public function or class under
  ``src/repro`` must be named by reached production code.
* **Members.**  A public method or property of a ``src/repro`` class
  must be named, by attribute or by string, by reached production code.
* **Options.**  A defaulted parameter of a public function, method or
  class constructor must be set, by keyword or by position, at some
  reached production call of that name, or that call must forward
  ``**kwargs``.  The keyword axes of a ``repro.experiments`` entry
  point (``run*``, ``main``) are each table's declared inputs and are
  exempt by rule.

Reached code is found by a fixed point: module-level code (and every
file under ``perfbench``, ``examples`` and ``benchmarks``) is reached;
a unit or member is reached once reached code names it, and only then
do the names it uses count.  So a cluster of units that only name each
other is dead together.  A re-export (an import in a package
``__init__``, or an ``__all__`` entry) is not a reference; it only
repeats the name.

What only tests reach stays only as a test's oracle or tool, on a
``TEST_ONLY`` list with the test that uses it; an option that bounds
or validates stays on ``SAFETY_OPTIONS``.  Everything else is dead
weight: delete it with the tests that check only it.

The match is by name (an ``ast.Name``, an attribute, an imported alias
or a string), so a unit sharing its name with a reached one passes:
the guard is a lower bound on what is dead, not a call graph.
``python tests/test_reachability.py`` prints the whole census,
allow-listed entries included.
"""

import ast
import sys
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
    "repro.orbits.kepler.solve_kepler": (
        "tests/test_orbits_kepler.py",
        "oracle: the Kepler-equation solve KeplerianOrbit propagates with",
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

#: Public methods and properties only tests reach (directly, or
#: through a ``TEST_ONLY`` oracle): ``module.Class.member`` -> (the
#: test that uses it, how).
TEST_ONLY_MEMBERS = {
    "repro.geometry.intervals.FootprintCycle.interval_at": (
        "tests/test_geometry_intervals.py",
        "oracle part: the cycle interval sample_qos_level classifies by",
    ),
    "repro.geometry.intervals.FootprintCycle.length": (
        "tests/test_geometry_intervals.py",
        "oracle part: the cycle length the waits are measured against",
    ),
    "repro.geometry.intervals.FootprintCycle.reduce": (
        "tests/test_geometry_intervals.py",
        "oracle part: the position reduction behind every cycle query",
    ),
    "repro.geometry.intervals.FootprintCycle.wait_until_covered": (
        "tests/test_geometry_intervals.py",
        "oracle part: sample_qos_level's wait for the first footprint",
    ),
    "repro.geometry.intervals.FootprintCycle.wait_until_double_coverage": (
        "tests/test_geometry_intervals.py",
        "oracle part: the Theorem 1 and sample_qos_level overlap wait",
    ),
    "repro.geometry.intervals.FootprintCycle.wait_until_next_satellite": (
        "tests/test_geometry_intervals.py",
        "oracle part: the Theorem 2 and sample_qos_level revisit wait",
    ),
    "repro.geometry.theorems.OpportunityWindow.total_measure": (
        "tests/test_properties.py",
        "oracle: the window measure the admitted onsets must sum to",
    ),
    "repro.orbits.kepler.CircularOrbit.from_period": (
        "tests/test_orbits_kepler.py",
        "tool: an orbit of a given period, to check the propagated period",
    ),
    "repro.san.ctmc.CTMC.from_arrays": (
        "tests/test_san_ctmc.py",
        "oracle: the array-built chain a re-rated topology must equal",
    ),
    "repro.simulation.plane_process.PlaneDegradationSimulation.capacity_at": (
        "tests/test_simulation_plane_process.py",
        "oracle part: the one-time observation sample_capacity_states draws",
    ),
}

#: Options no production call sets that a test sets as an oracle or
#: tool: ``module.callable(option)`` -> (the test that sets it, how).
TEST_ONLY_OPTIONS = {
    "repro.analytic.capacity.assemble_capacity_topology(stages)": (
        "tests/test_analytic_capacity.py",
        "tool: the topology cache is read at a small stage count",
    ),
    "repro.experiments.ascii_plot.line_chart(height)": (
        "tests/test_experiments_ascii_plot.py",
        "tool: a small canvas makes the rendered grid checkable cell by cell",
    ),
    "repro.experiments.ascii_plot.line_chart(width)": (
        "tests/test_experiments_ascii_plot.py",
        "tool: a small canvas makes the rendered grid checkable cell by cell",
    ),
    "repro.experiments.ascii_plot.line_chart(y_range)": (
        "tests/test_experiments_ascii_plot.py",
        "tool: a pinned y axis places a point independently of autoscaling",
    ),
    "repro.san.ctmc.CTMC(initial_distribution)": (
        "tests/test_san_ctmc.py",
        "tool: hand-built chains that start outside state 0",
    ),
    "repro.simulation.plane_process.sample_capacity_states(seed)": (
        "tests/test_optimize.py",
        "oracle: seeded, reproducible iid capacity draws",
    ),
}

#: Options no production call sets that bound a loop or a state space,
#: or validate: ``module.callable(option)`` -> what they guard.
SAFETY_OPTIONS = {
    "repro.desim.kernel.Simulator.run(max_events)": "bounds a runaway event loop",
    "repro.orbits.kepler.solve_kepler(tolerance)": "the Newton iteration's stopping bound",
    "repro.san.assembled.assemble(max_states)": "bounds the expanded state space",
    "repro.san.lumping.lumped_state_space(max_states)": "bounds the quotient state space",
    "repro.san.reachability.generate(max_states)": "bounds the reachability graph",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)


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
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _decorators(node) -> set:
    return {
        decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
        for decorator in node.decorator_list
    }


class _Unit:
    """One node of the fixed point: a module-level definition, or a
    method of a module-level class."""

    def __init__(self, qualified, name, node, owner=None, parts=()):
        self.qualified = qualified
        self.name = name
        self.node = node
        self.owner = owner  # the class unit a method belongs to
        self.parts = parts  # the class-body statements reached with it

    def trees(self):
        return self.parts if isinstance(self.node, ast.ClassDef) else [self.node]


def _is_member(statement) -> bool:
    """A method the fixed point tracks on its own: any non-dunder
    method (a dunder runs whenever its class does)."""
    return isinstance(statement, _FUNCTIONS) and not (
        statement.name.startswith("__") and statement.name.endswith("__")
    )


def _census_sources():
    """``(roots, units)``: the reached-by-definition trees and every
    unit of the fixed point."""
    roots, units = [], []
    for root in PRODUCTION:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if root != "src" or PACKAGE_ROOT not in path.parents:
                roots.append(tree)
                continue
            module = _module_name(path)
            for statement in tree.body:
                if _is_reexport(path, statement):
                    continue
                if not isinstance(statement, _DEFINITIONS):
                    roots.append(statement)
                    continue
                qualified = f"{module}.{statement.name}"
                if not isinstance(statement, ast.ClassDef):
                    units.append(_Unit(qualified, statement.name, statement))
                    continue
                body = [part for part in statement.body if not _is_member(part)]
                owner = _Unit(
                    qualified, statement.name, statement,
                    parts=body + statement.bases + statement.decorator_list,
                )
                units.append(owner)
                for part in statement.body:
                    if _is_member(part):
                        units.append(_Unit(f"{qualified}.{part.name}", part.name, part, owner))
    return roots, units


def _fixed_point():
    """``(reached, units, reached_trees)``: the qualified names the
    fixed point reaches, every unit, and every tree that counts as
    production code."""
    roots, units = _census_sources()
    names = set()
    for tree in roots:
        names.update(_names(tree))
    reached, trees = set(), list(roots)
    changed = True
    while changed:
        changed = False
        for unit in units:
            if unit.qualified in reached or unit.name not in names:
                continue
            if unit.owner is not None and unit.owner.qualified not in reached:
                continue
            reached.add(unit.qualified)
            changed = True
            for tree in unit.trees():
                trees.append(tree)
                names.update(name for name in _names(tree) if name != unit.name)
    return reached, units, trees


def _unreached():
    """Every public module-level unit no production code reaches."""
    reached, units, _ = _fixed_point()
    return sorted(
        unit.qualified
        for unit in units
        if unit.owner is None and not unit.name.startswith("_")
        and unit.qualified not in reached
    )


def _unreached_members():
    """Every public method or property of a reached class that no
    production code reaches."""
    reached, units, _ = _fixed_point()
    return sorted(
        unit.qualified
        for unit in units
        if unit.owner is not None and not unit.name.startswith("_")
        and unit.owner.qualified in reached and unit.qualified not in reached
    )


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
def _parameters(node, skip_first: bool):
    """``(positional names, {defaulted name})`` of a function node."""
    args = node.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted = list(defaulted) + [
        arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    if skip_first:
        positional = positional[1:]
    return positional, defaulted


def _dataclass_fields(node, classes):
    """``(positional names, [defaulted name])`` of a dataclass's
    generated constructor, base dataclasses' fields first."""
    positional, defaulted = [], []
    for base in node.bases:
        base_node = classes.get(getattr(base, "id", None))
        if base_node is not None and "dataclass" in _decorators(base_node):
            base_positional, base_defaulted = _dataclass_fields(base_node, classes)
            positional += base_positional
            defaulted += base_defaulted
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign) or not isinstance(statement.target, ast.Name):
            continue
        if "ClassVar" in set(_names(statement.annotation)):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and "field" in set(_names(value.func)):
            keywords = {keyword.arg: keyword.value for keyword in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in keywords or "default_factory" in keywords
        else:
            has_default = value is not None
        positional.append(statement.target.id)
        if has_default:
            defaulted.append(statement.target.id)
    return positional, defaulted


def _callables(units):
    """``[(qualified, call name, positional names, defaulted names)]``
    of every public function, method and class constructor."""
    classes = {unit.name: unit.node for unit in units if isinstance(unit.node, ast.ClassDef)}
    found = []
    for unit in units:
        if unit.name.startswith("_"):
            continue
        node = unit.node
        if isinstance(node, ast.ClassDef):
            init = next(
                (part for part in node.body
                 if isinstance(part, _FUNCTIONS) and part.name == "__init__"),
                None,
            )
            if init is not None:
                positional, defaulted = _parameters(init, skip_first=True)
            elif "dataclass" in _decorators(node) or any(
                getattr(base, "id", None) == "NamedTuple" for base in node.bases
            ):
                positional, defaulted = _dataclass_fields(node, classes)
            else:
                continue
        else:
            decorators = _decorators(node)
            bound = unit.owner is not None and "staticmethod" not in decorators
            positional, defaulted = _parameters(node, skip_first=bound)
        if defaulted:
            found.append((unit.qualified, unit.name, positional, defaulted))
    return found


def _call_name(call: ast.Call, enclosing_class):
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and enclosing_class is not None:
            return enclosing_class, 0
        return func.id, 0
    if isinstance(func, ast.Attribute):
        if func.attr == "__init__" and isinstance(func.value, ast.Call) and enclosing_class:
            return ("super", enclosing_class), 0
        return func.attr, 0
    return None, 0


def _calls(trees, classes):
    """``{call name: [(positional count, keywords, forwards)]}`` of
    every call in ``trees``; ``forwards`` is set when the call splats
    ``*args`` or ``**kwargs``."""
    calls = {}

    def record(name, call, skip):
        keywords = {keyword.arg for keyword in call.keywords if keyword.arg is not None}
        splat_kwargs = any(keyword.arg is None for keyword in call.keywords)
        positional = call.args[skip:]
        splat_args = any(isinstance(arg, ast.Starred) for arg in positional)
        calls.setdefault(name, []).append(
            (len(positional), keywords, splat_kwargs, splat_args)
        )

    def visit(node, enclosing_class):
        if isinstance(node, ast.ClassDef):
            enclosing_class = node.name
        if isinstance(node, ast.Call):
            name, skip = _call_name(node, enclosing_class)
            if isinstance(name, tuple):  # super().__init__(...): the bases
                for base in classes.get(name[1], ()):
                    record(base, node, skip)
            elif name in ("partial",) and node.args:
                target = node.args[0]
                target = getattr(target, "id", None) or getattr(target, "attr", None)
                if target:
                    record(target, node, 1)
            elif name == "replace" and node.args:
                calls.setdefault("replace", []).append(
                    (0, {keyword.arg for keyword in node.keywords}, False, False)
                )
            elif name is not None:
                record(name, node, skip)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing_class)

    for tree in trees:
        visit(tree, None)
    return calls


def _unset_options():
    """Every defaulted option of a public callable that no reached
    production call sets: ``module.callable(option)``."""
    reached, units, trees = _fixed_point()
    bases = {
        unit.name: [getattr(base, "id", None) for base in unit.node.bases]
        for unit in units if isinstance(unit.node, ast.ClassDef)
    }
    calls = _calls(trees, bases)
    replaced = set()
    for _, keywords, _, _ in calls.get("replace", ()):
        replaced |= keywords
    unset = []
    for qualified, name, positional, defaulted in _callables(units):
        module = qualified.split(".")
        if module[1] == "experiments" and (name.startswith("run") or name == "main"):
            continue
        sites = calls.get(name, ())
        is_class = name[:1].isupper()
        for option in defaulted:
            if is_class and option in replaced:
                continue
            index = positional.index(option) if option in positional else None
            if any(
                splat_kwargs or option in keywords
                or (index is not None and (count > index or splat_args))
                for count, keywords, splat_kwargs, splat_args in sites
            ):
                continue
            unset.append(f"{qualified}({option})")
    return sorted(unset)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def _used_by(test: str, name: str) -> bool:
    """Whether ``test`` names ``name``, or sets it as a keyword."""
    tree = ast.parse((REPO_ROOT / test).read_text())
    keywords = {node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword)}
    return name in keywords or name in set(_names(tree))


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
        name for name, (test, _) in TEST_ONLY.items()
        if not _used_by(test, name.rpartition(".")[2])
    ]
    assert not unused, f"the named test does not use these: {unused}"


def test_every_public_member_is_reached_or_a_named_test_tool():
    unreached = [name for name in _unreached_members() if name not in TEST_ONLY_MEMBERS]
    assert not unreached, (
        "no production code names these methods or properties; delete "
        "them or list the test that uses each in TEST_ONLY_MEMBERS:\n"
        + "\n".join(unreached)
    )


def test_every_test_only_member_is_still_needed_and_used():
    unreached = set(_unreached_members())
    stale = [name for name in TEST_ONLY_MEMBERS if name not in unreached]
    assert not stale, (
        f"reached from production or gone; drop from TEST_ONLY_MEMBERS: {stale}"
    )
    unused = [
        name for name, (test, _) in TEST_ONLY_MEMBERS.items()
        if not _used_by(test, name.rpartition(".")[2])
    ]
    assert not unused, f"the named test does not use these: {unused}"


def test_every_option_is_set_by_production_or_kept_by_rule():
    kept = set(TEST_ONLY_OPTIONS) | set(SAFETY_OPTIONS)
    unset = [option for option in _unset_options() if option not in kept]
    assert not unset, (
        "no production call sets these options, so only their default "
        "ever runs; delete each (with the branches only it reaches), or "
        "list it in TEST_ONLY_OPTIONS with the test that sets it, or in "
        "SAFETY_OPTIONS with what it bounds:\n" + "\n".join(unset)
    )


def test_every_kept_option_is_still_unset_and_used():
    unset = set(_unset_options())
    kept = list(TEST_ONLY_OPTIONS) + list(SAFETY_OPTIONS)
    stale = [option for option in kept if option not in unset]
    assert not stale, (
        f"set by production or gone; drop from TEST_ONLY_OPTIONS or SAFETY_OPTIONS: {stale}"
    )
    unused = [
        option for option, (test, _) in TEST_ONLY_OPTIONS.items()
        if not _used_by(test, option.rpartition("(")[2].rstrip(")"))
    ]
    assert not unused, f"the named test does not set these: {unused}"


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    for title, entries, kept in (
        ("units", _unreached(), TEST_ONLY),
        ("members", _unreached_members(), TEST_ONLY_MEMBERS),
        ("options", _unset_options(), {**TEST_ONLY_OPTIONS, **SAFETY_OPTIONS}),
    ):
        print(f"# {title}: {len(entries)} ({sum(e in kept for e in entries)} kept)")
        for entry in entries:
            print(("  kept  " if entry in kept else "        ") + entry)

"""Layer boundary: every ``repro`` import points down one layer order.

The evaluation is a stack: timing distributions feed the SAN capacity
model and the closed-form conditionals, Eq. (3) composes the two, and
the protocol and fault simulations validate the result from above.
``LAYERS`` lists the subpackages bottom to top; packages in one tier
are peers.  A module may import its own package or anything in a lower
tier, never a peer or anything above.  An import in the other
direction -- at module level or inside a function, absolute or
relative -- would tie a layer to its callers, so the test walks every
statement.  A cycle is fixed by moving the module that sits in the
wrong layer, not by deferring the import into a function.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
LAYERS = (
    ("errors", "obs"),
    ("geometry", "desim"),
    ("core", "orbits"),
    ("san", "geolocation"),
    ("analytic", "protocol"),
    ("simulation", "campaign", "optimize"),
    ("faults",),
    ("scenarios",),
    ("experiments",),
)
TIER = {name: tier for tier, names in enumerate(LAYERS) for name in names}


def _imported_modules(path: Path, package: str):
    """Absolute names of every module ``path`` imports, with their line
    numbers; ``package`` resolves relative imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _layer(module: str):
    """The ``LAYERS`` entry a ``repro.*`` module belongs to, else None
    (a package missing from ``LAYERS`` fails the lookup in ``TIER``)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def test_imports_point_down_the_layer_order():
    violations = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT.parent).with_suffix("")
        if relative.parts == ("repro", "__init__"):
            continue  # ``repro/__init__`` is the public facade on top
        own = relative.parts[1]
        package = ".".join(relative.parts[:-1])
        for lineno, module in _imported_modules(path, package):
            target = _layer(module)
            if target is None or target == own:
                continue
            if TIER[target] >= TIER[own]:
                violations.setdefault(f"{relative}.py:{lineno}", module)
    assert not violations, "\n".join(
        f"{where} imports {module}" for where, module in violations.items()
    )

"""Layer boundary: the simulation core never reaches up.

``repro.desim``, ``repro.protocol`` and ``repro.simulation`` are the
kernel, the protocol's actors and the drivers that run them; the fault
plans, scenario corpus, experiments, campaign orchestration and
optimizer are built on top.  An import in the other direction -- at
module level or inside a function, absolute or relative -- would tie
the core to its callers, so the test walks every statement.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
CORE = ("desim", "protocol", "simulation")
UPPER = ("faults", "scenarios", "experiments", "campaign", "optimize")


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


def test_core_layers_import_nothing_above_them():
    forbidden = tuple(f"repro.{name}" for name in UPPER)
    violations = []
    for layer in CORE:
        for path in sorted((PACKAGE_ROOT / layer).rglob("*.py")):
            relative = path.relative_to(PACKAGE_ROOT.parent).with_suffix("")
            package = ".".join(relative.parts[:-1])
            for lineno, module in _imported_modules(path, package):
                if any(
                    module == upper or module.startswith(upper + ".")
                    for upper in forbidden
                ):
                    violations.append(f"{relative}.py:{lineno} imports {module}")
    assert not violations, "\n".join(violations)

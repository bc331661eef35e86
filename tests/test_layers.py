"""The package's layer order: each module imports only the layers below it."""

from __future__ import annotations

import ast
from pathlib import Path

import circle6

LAYERS = ("errors", "core", "localization", "classifier", "multigraph", "surgery", "cli")
PACKAGE = Path(circle6.__file__).parent


def _relative_imports(path: Path) -> set[str]:
    """The package modules a module imports with a relative import; both
    `from .core import x` and `from . import core` count as importing core."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_is_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


def test_each_layer_imports_only_earlier_layers():
    for rank, layer in enumerate(LAYERS):
        imported = _relative_imports(PACKAGE / f"{layer}.py")
        later = imported - set(LAYERS[:rank])
        assert not later, f"{layer} imports {sorted(later)}"

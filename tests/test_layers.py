"""The package's layer order: each module imports only the layers below it,
and numpy is imported only by the one floating-point check."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
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


# Run in a fresh interpreter: every exact subcommand, then the gluing check.
_NUMPY_PROBE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
import circle6, circle6.cli
from circle6 import gen_family, jang_case, save, standard_sphere
from circle6.cli import run
seen = {"import": "numpy" in sys.modules}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    s6, f = Path(tmp, "s6.json"), Path(tmp, "f.json")
    save(standard_sphere(1, 2), s6)
    save(gen_family(jang_case("F", 1, 1)), f)
    codes = [run(["classify", str(f)]), run(["localize", "--raw", str(s6)]),
             run(["graph", str(f)]), run(["sum", str(s6), str(s6)])]
    seen["exact"] = "numpy" in sys.modules
    codes.append(run(["verify-gluing", "--samples", "1" + "0" * 21]))
    seen["refused"] = "numpy" in sys.modules
    codes.append(run(["verify-gluing", "--samples", "10"]))
    seen["gluing"] = "numpy" in sys.modules
print(json.dumps({"codes": codes, **seen}))
"""


def test_numpy_is_imported_only_by_the_gluing_check():
    # numpy costs ~14 MB of resident memory, so the exact layers never load it
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert json.loads(out) == {"codes": [0, 0, 0, 0, 1, 0], "import": False, "exact": False,
                               "refused": False, "gluing": True}

"""The package's modules import in one direction: each from modules below it.

Every `from . import ...` and `from .x import ...` of a module, those inside
functions included, may name only modules earlier in LAYERS. A lazy import
is still an import: a lower layer that reaches up couples the two as much as
one at the top of the file does. A name that is no module (the package's
`__version__`) is not a layer.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "improper"
LAYERS = ("errors", "linalg", "transforms", "second_order", "entropy", "analog", "capacity",
          "fileio", "verify", "cli")
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _imported(path: Path) -> set[str]:
    """The package modules path imports by a relative import, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out & MODULES


def test_every_module_has_a_layer():
    assert MODULES == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_a_module_imports_only_from_layers_below_it(module):
    above = _imported(PACKAGE / f"{module}.py") - set(LAYERS[:LAYERS.index(module)])
    assert not above, f"{module} imports {sorted(above)}"

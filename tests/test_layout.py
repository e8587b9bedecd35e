"""The package's layout rule: no module uses another module's private names.

A private name is one that starts with a single underscore. Each module of
`src/motionshape` is parsed with `ast`; it may neither import such a name
from a sibling (`from .x import _name`) nor read one as an attribute of a
sibling module it imported (`from . import x` ... `x._name`).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "motionshape"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name


def private_uses(source: str) -> list[str]:
    """'line: what' for each use of a sibling's private name in `source`."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.split(".")[0]
                           == PACKAGE.name)
        elif isinstance(node, ast.ImportFrom) and _is_sibling(node):
            package = node.level > 0 and node.module is None
            for alias in node.names:
                if package or node.module == PACKAGE.name:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{node.lineno}: from {'.' * node.level}"
                                 f"{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("source, want", [
    ("from .inputs import _open_text\n",
     ["1: from .inputs import _open_text"]),
    ("from motionshape.core import _x as y\n",
     ["1: from motionshape.core import _x"]),
    ("from . import inputs\ninputs._read_rows(1)\n", ["2: inputs._read_rows"]),
    ("from . import pipeline as pl\nx = pl._fmt\n", ["2: pl._fmt"]),
    ("from motionshape import inputs\ninputs._quoted\n",
     ["2: inputs._quoted"]),
    ("import motionshape.inputs as mi\nmi._quoted\n", ["2: mi._quoted"]),
])
def test_checker_finds_private_uses(source, want):
    assert private_uses(source) == want


@pytest.mark.parametrize("source", [
    "from .inputs import read_trial, __all__\n",
    "from . import inputs\ninputs.read_trial\ninputs.__name__\n",
    "import numpy as np\nnp._NoValue\n",
    "def f(self):\n    return self._cache\n",
])
def test_checker_allows_public_and_foreign_names(source):
    assert private_uses(source) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_uses_a_siblings_private_names(path):
    assert private_uses(path.read_text()) == []

"""The package's layout rule, and the README's names of its code.

No module uses another module's private names. A private name is one that
starts with a single underscore. Each module of `src/motionshape` is parsed
with `ast`; it may neither import such a name from a sibling
(`from .x import _name`) nor read one as an attribute of a sibling module it
imported (`from . import x` ... `x._name`).

Only `cli.py` and `__init__.py` import `pipeline`, the stage chain, so no
module below the chain depends on it, not even for type hints.

Only `core.py` forks: no other module imports `multiprocessing` or
`concurrent.futures`, or calls `os.fork`, so the rule of who owns the
run's worker pool lives in one module.

Every name `motionshape/__init__.py` imports from a module is in that
module's `__all__`, and every `__all__` entry exists.

Every `module.name` the README's prose names in backticks, for one of the
package's modules, and every name a README `python` block imports, exists.

Every Python file of the repository parses as the oldest Python that
pyproject.toml's `requires-python` admits.
"""

import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "motionshape"
README = PACKAGE.parents[1] / "README.md"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


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


def imported_modules(source: str) -> set[str]:
    """The sibling modules `source` imports, by any import statement,
    including those under `if TYPE_CHECKING:`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith(f"{PACKAGE.name}."))
        elif isinstance(node, ast.ImportFrom) and _is_sibling(node):
            module = (node.module or "").removeprefix(PACKAGE.name)
            if module.strip("."):
                found.add(module.strip(".").split(".")[0])
            else:  # from . import x, from motionshape import x
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("source, want", [
    ("from .pipeline import stages\n", {"pipeline"}),
    ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
     "    from .pipeline import CohortReport\n", {"pipeline"}),
    ("from . import pipeline as pl\n", {"pipeline"}),
    ("from motionshape import core, pipeline\n", {"core", "pipeline"}),
    ("from motionshape.pipeline import ingest\n", {"pipeline"}),
    ("import motionshape.pipeline\n", {"pipeline"}),
    ("import pipeline\nfrom os import path\n", set()),
])
def test_imported_modules_are_found(source, want):
    assert imported_modules(source) == want


def test_only_the_cli_imports_the_stage_chain():
    assert sorted(p.name for p in PACKAGE.glob("*.py")
                  if "pipeline" in imported_modules(p.read_text())) == \
        ["__init__.py", "cli.py"]


def fork_uses(source: str) -> list[str]:
    """'line: what' for each import of a forking module and each `os.fork`
    in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "fork"
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            names = ["os.fork"]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if f"{name}.".startswith(("os.fork.", "multiprocessing.",
                                            "concurrent.futures."))]
    return found


@pytest.mark.parametrize("source, want", [
    ("import multiprocessing\n", ["1: multiprocessing"]),
    ("import os\nif os.fork() == 0:\n    pass\n", ["2: os.fork"]),
    ("from os import fork\n", ["1: os.fork"]),
    ("from concurrent.futures import ProcessPoolExecutor as P\n",
     ["1: concurrent.futures.ProcessPoolExecutor"]),
    ("from concurrent import futures\n", ["1: concurrent.futures"]),
    ("def f():\n    import multiprocessing.pool\n",
     ["2: multiprocessing.pool"]),
    ("import os\nos.getpid()\nhasattr(os, 'fork')\nos.forkpty\n"
     "import multiprocessingx, concurrent\n", []),
])
def test_fork_uses_are_found(source, want):
    assert fork_uses(source) == want


def test_only_core_forks():
    assert sorted(p.name for p in PACKAGE.glob("*.py")
                  if fork_uses(p.read_text())) == ["core.py"]


def package_imports() -> list[tuple[str, str]]:
    """(module, name) of each name `__init__.py` imports from a module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_package_imports_only_exported_names():
    imports = package_imports()
    assert imports
    assert [f"{module}.{name}" for module, name in imports
            if name not in import_module(f"{PACKAGE.name}.{module}").__all__
            ] == []


@pytest.mark.parametrize("module", [
    m for m in MODULES
    if hasattr(import_module(f"{PACKAGE.name}.{m}"), "__all__")])
def test_all_entries_exist(module):
    found = import_module(f"{PACKAGE.name}.{module}")
    assert [name for name in found.__all__ if not hasattr(found, name)] == []


def readme_references(text: str) -> list[tuple[str, str]]:
    """(module, name) of each backticked span of `text`, outside code
    blocks, that starts with `module.name` or `motionshape.module.name`
    for one of MODULES."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    start = re.compile(rf"(?:{PACKAGE.name}\.)?({'|'.join(MODULES)})\.(\w+)")
    return [m.groups() for span in re.findall(r"`([^`]+)`", prose)
            if (m := start.match(span))]


def readme_imports(text: str) -> list[tuple[str, str | None]]:
    """(module, name) of each name imported in a `python` block of `text`;
    name is None for a plain `import module`."""
    found = []
    for block in re.findall(r"^```python\n(.*?)^```", text,
                            flags=re.MULTILINE | re.DOTALL):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.Import):
                found += [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                found += [(node.module, alias.name) for alias in node.names]
    return found


@pytest.mark.parametrize("text, want", [
    ("`core.worker_pool()` and `motionshape.lattice.solve`",
     [("core", "worker_pool"), ("lattice", "solve")]),
    ("`motionshape.pipeline.stages(manifest,\nconfig)`",
     [("pipeline", "stages")]),
    ("`src/motionshape/core.py`, `np.interp`, `corex.y`, `x` core.y", []),
    ("```python\nx = `core.y`\n```\n`outputs.publish`",
     [("outputs", "publish")]),
], ids=["spans", "span over two lines", "no reference", "code block"])
def test_readme_references_are_found(text, want):
    assert readme_references(text) == want


def test_readme_references_resolve():
    refs = readme_references(README.read_text())
    assert refs
    assert [f"{module}.{name}" for module, name in refs
            if not hasattr(import_module(f"{PACKAGE.name}.{module}"), name)
            ] == []


def test_readme_imports_exist():
    imports = readme_imports(README.read_text())
    assert imports
    missing = []
    for module, name in imports:
        found = import_module(module)  # a missing module raises here
        if name is not None and not hasattr(found, name):
            missing.append(f"{module}.{name}")
    assert missing == []


@pytest.mark.parametrize("path", sorted(
    p for top in ("src", "tests", "bench", "scripts")
    for p in (PACKAGE.parents[1] / top).rglob("*.py")),
    ids=lambda p: p.relative_to(PACKAGE.parents[1]).as_posix())
def test_parses_as_python_3_10(path):
    """`requires-python = ">=3.10"`, checked for the grammar only: a 3.11
    stdlib name such as `tomllib` still parses, and fails only on 3.10."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

"""Import graph: the package loads without scipy, every public name in it has a
caller outside the tests, and every private module-level name a reader in ``src``."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy():
    """A fresh ``import shmsim.scenario, shmsim.cli`` loads no ``scipy`` or ``scipy.*`` module."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, shmsim.scenario, shmsim.cli; "
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == ""


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_definitions(tree):
    """Public module-level functions and classes, and public methods of every class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name


def _private_definitions(tree):
    """Private module-level functions, classes and assigned names, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name


def _references(tree):
    """Identifiers read, attribute names, imported names and string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_is_referenced_outside_the_tests():
    """Each public function, class and method of ``src/shmsim`` is named in src, demos or bench."""
    referenced = set()
    for _, tree in _trees("src", "demos", "bench"):
        referenced.update(_references(tree))
    unused = sorted(
        f"{path.name}:{name}"
        for path, tree in _trees("src/shmsim")
        for name in _public_definitions(tree)
        if name not in referenced
    )
    assert unused == []


def test_every_private_name_is_referenced_in_src():
    """Each private module-level function, class and constant of ``src/shmsim`` is read
    somewhere in src, so a retired helper cannot linger for the tests alone."""
    referenced = set()
    for _, tree in _trees("src"):
        referenced.update(_references(tree))
    unused = sorted(
        f"{path.name}:{name}"
        for path, tree in _trees("src/shmsim")
        for name in _private_definitions(tree)
        if name not in referenced
    )
    assert unused == []

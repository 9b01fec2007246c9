"""Dead names in the package source, found from its syntax tree.

Two checks that a linter would make, with the standard library alone:
every module-level import of ``src/stagdyn/*.py`` is used in its module,
and every module-level name and every private function is referred to
somewhere in ``src/stagdyn`` besides its definition.  Comments and
docstrings do not count as a use.  A public name may instead be part of
the documented API (a code span of the README) or be read by the
benchmark under ``perfbench/``; the tests alone keep nothing alive.
"""

import ast
import collections
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stagdyn"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _uses(tree):
    """The names a module reads: loaded names, attributes, names imported
    from another module, and the strings of ``__all__``."""
    uses = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            uses.update(elt.value for elt in node.value.elts)
    return uses


def _bound(node):
    """The names a module-level import binds."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = _tree(path)
    uses = _uses(tree)
    # an ImportFrom counts its own names as uses elsewhere; here only
    # reads inside this module count
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            uses.subtract(alias.name for alias in node.names)
    unused = [name for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in _bound(node) if uses[name] <= 0]
    assert not unused, f"{path.name}: unused imports {unused}"


def _definitions(tree):
    """Module-level names, and private functions at any depth."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and not node.name.endswith("__")
                and node not in tree.body):
            yield node.name


def test_every_defined_name_is_referred_to():
    trees = {path.name: _tree(path) for path in MODULES}
    uses = collections.Counter()
    for tree in trees.values():
        uses.update(_uses(tree))
    public = collections.Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        public.update(_uses(_tree(path)))
    for span in re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text(
            encoding="utf-8")):
        public.update(re.findall(r"\w+", span))
    dead = [f"{module}: {name}" for module, tree in trees.items()
            for name in _definitions(tree)
            if not name.startswith("__") and uses[name] == 0
            and (name.startswith("_") or public[name] == 0)]
    assert not dead, f"defined and never referred to: {dead}"

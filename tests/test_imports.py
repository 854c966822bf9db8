"""Every module-level import of the package and of the test suite is used.

A stdlib-ast check in place of a linter: a name bound by a module-level
import must be read somewhere in its module, or be listed in __all__.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "chbsim").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """Names bound by the module-level imports of `source` that the module
    never reads and does not list in __all__, sorted."""
    tree = ast.parse(source)
    bound = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                         if alias.name != "*")
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - exported)


def test_unused_imports_are_found():
    source = ("import os\nimport scipy.linalg\nfrom math import pi, tau as turn\n"
              "from json import dumps\n__all__ = ['dumps']\n"
              "def f():\n    return scipy.linalg.norm(pi)\n")
    assert unused_imports(source) == ["os", "turn"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []

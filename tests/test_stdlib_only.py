"""The runtime imports nothing outside the standard library, uses every
name it imports, and every name the package exports exists."""

import ast
import re
import sys
from pathlib import Path

import pytest

import forcing_lab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "forcing_lab"


def _imported_tops(path):
    """Top-level module names imported by `path`; None for relative imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield None if node.level else node.module.split(".")[0]


def _unused_imports(path):
    """Names `path` imports and never reads; a name read only inside a
    quoted annotation counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0],
                             node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno)
                            for alias in node.names)
    annotations = [ann for node in ast.walk(tree)
                   for ann in (getattr(node, "annotation", None),
                               getattr(node, "returns", None))
                   if isinstance(ann, ast.Constant)
                   and isinstance(ann.value, str)]
    read = {node.id for root in [tree] + [ast.parse(ann.value, mode="eval")
                                          for ann in annotations]
            for node in ast.walk(root) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                         - {PACKAGE / "__init__.py"}),
                         ids=lambda p: p.name)
def test_package_uses_what_it_imports(path):
    """`__init__.py` is left out: it imports names to re-export them."""
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_stdlib(path):
    outside = {top for top in _imported_tops(path)
               if top not in (None, PACKAGE.name)
               and top not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_declared_dependencies_are_empty():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.M)


def test_public_names_resolve_once():
    names = forcing_lab.__all__
    assert len(set(names)) == len(names), "a name is listed twice in __all__"
    missing = [name for name in names if not hasattr(forcing_lab, name)]
    assert not missing, f"__all__ lists names the package lacks: {missing}"

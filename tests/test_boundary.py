"""The dual path computes nothing with the classical oracle.

The oracle is only worth something as an independent check if the modules
it checks never call into it, directly or through an import of it.
"""

import ast
from pathlib import Path

import pytest

import screwalg

SOURCE = Path(screwalg.__file__).parent


def _imported_names(tree: ast.AST):
    """Dotted names of every import: ``from .x import y`` gives ``.x.y``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["dual", "linalg", "geometry", "theorems"])
def test_dual_path_does_not_import_the_oracle(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    names = list(_imported_names(tree))
    assert names, "no imports found; the parser is not looking at the module"
    offending = [n for n in names if "oracle" in n.split(".")]
    assert not offending, f"{module}.py imports {offending}"


def test_no_check_is_an_assert():
    """``python -O`` strips ``assert``, so no check in the library may be one."""
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules, "no modules found; the test is not looking at the package"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"

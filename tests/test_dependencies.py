"""The package depends on numpy and the standard library only.

scipy and other packages may be installed alongside, but they are not
declared dependencies, so no module of the package may import them.
"""

import ast
import sys
from pathlib import Path

import pytest

import basis_learner

ALLOWED = {"numpy", "basis_learner"} | set(sys.stdlib_module_names)
MODULES = sorted(Path(basis_learner.__file__).parent.glob("*.py"))


def imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in the module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_modules_found():
    assert {p.name for p in MODULES} >= {"basis.py", "network.py", "trainer.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    assert imported_roots(path) <= ALLOWED, sorted(imported_roots(path) - ALLOWED)


def test_checker_sees_nested_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\ndef f():\n    from scipy.linalg import qr\n    import numpy.linalg\n")
    assert imported_roots(src) == {"os", "scipy", "numpy"}

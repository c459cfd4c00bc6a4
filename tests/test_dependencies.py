"""capseq is NumPy-only: every module under ``src/capseq`` imports from
the standard library, NumPy and capseq itself, and from nothing else."""

import ast
import sys
from pathlib import Path

import capseq

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "capseq"}


def imported_roots(source: str) -> set:
    """The top-level package of every absolute import in ``source``;
    a relative import is capseq's own."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_imported_roots_reads_every_import_form():
    source = ("import os.path, numpy as np\nfrom scipy import linalg\n"
              "from . import geo\nfrom ..data import types\n"
              "def f():\n    import pandas\n")
    assert imported_roots(source) == {"os", "numpy", "scipy", "pandas"}


def test_package_imports_only_stdlib_numpy_and_itself():
    package = Path(capseq.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 20
    outside = {
        str(path.relative_to(package)): sorted(roots - ALLOWED)
        for path in modules
        if (roots := imported_roots(path.read_text(encoding="utf-8"))) - ALLOWED
    }
    assert not outside, outside

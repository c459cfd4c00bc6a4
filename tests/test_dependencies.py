"""capseq is NumPy-only: every module under ``src/capseq`` imports from
the standard library, NumPy and capseq itself, and from nothing else.
It also runs on the declared NumPy floor (``numpy>=1.24``), so it uses
no name that only NumPy 2 has."""

import ast
import sys
from pathlib import Path

import capseq

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "capseq"}

# NumPy 2 only: absent from 1.24 (``np.bool`` was removed in 1.24 and
# came back in 2.0)
NUMPY2_FUNCTIONS = {"concat", "permute_dims", "matrix_transpose", "vecdot", "unstack", "bool"}
NUMPY2_ATTRIBUTES = {"mT"}


def package_sources() -> list:
    package = Path(capseq.__file__).parent
    return [(str(path.relative_to(package)), path.read_text(encoding="utf-8"))
            for path in sorted(package.rglob("*.py"))]


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


def numpy2_names(source: str) -> set:
    """Each NumPy-2-only name ``source`` uses: ``.mT`` on anything, and a
    function read as ``np.<name>`` or ``numpy.<name>`` or imported from
    ``numpy``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in NUMPY2_ATTRIBUTES:
                found.add(f".{node.attr}")
            elif (node.attr in NUMPY2_FUNCTIONS and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")):
                found.add(f"np.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.update(f"np.{alias.name}" for alias in node.names
                         if alias.name in NUMPY2_FUNCTIONS)
    return found


def test_imported_roots_reads_every_import_form():
    source = ("import os.path, numpy as np\nfrom scipy import linalg\n"
              "from . import geo\nfrom ..data import types\n"
              "def f():\n    import pandas\n")
    assert imported_roots(source) == {"os", "numpy", "scipy", "pandas"}


def test_numpy2_names_reads_every_form():
    source = ("import numpy\nfrom numpy import vecdot, unstack as u\n"
              "a = x.mT @ w.T\nb = np.concat([a, a])\nc = numpy.permute_dims(a, (1, 0))\n"
              "d = np.matrix_transpose(a).astype(np.bool)\n"
              "e = np.concatenate([a]).astype(np.bool_)\nf = np.linalg.norm(a.T)\n")
    assert numpy2_names(source) == {".mT", "np.concat", "np.permute_dims",
                                    "np.matrix_transpose", "np.bool", "np.vecdot",
                                    "np.unstack"}


def test_package_imports_only_stdlib_numpy_and_itself():
    sources = package_sources()
    assert len(sources) > 20
    outside = {
        name: sorted(roots - ALLOWED)
        for name, source in sources
        if (roots := imported_roots(source)) - ALLOWED
    }
    assert not outside, outside


def test_package_uses_no_numpy2_only_name():
    found = {name: sorted(names) for name, source in package_sources()
             if (names := numpy2_names(source))}
    assert not found, found

"""capseq is NumPy-only: every module under ``src/capseq`` imports from
the standard library, NumPy and capseq itself, and from nothing else.
It also runs on the declared NumPy floor (``numpy>=1.24``), so it uses
no name that only NumPy 2 has."""

import ast
import sys
from collections import Counter
from pathlib import Path

import capseq

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "capseq"}

# NumPy 2 only: absent from 1.24 (``np.bool`` was removed in 1.24 and
# came back in 2.0). From 2.0 on: the ``unique_*`` functions and the
# ``np.strings`` namespace; from 2.1 on: ``np.astype`` and
# ``np.cumulative_sum``.
NUMPY2_FUNCTIONS = {"concat", "permute_dims", "matrix_transpose", "vecdot", "unstack", "bool",
                    "unique_values", "unique_counts", "unique_inverse", "unique_all",
                    "strings", "astype", "cumulative_sum"}
NUMPY2_ATTRIBUTES = {"mT"}
# keyword arguments of NumPy 2 only, by the method or function that takes
# them: ``stable=`` of ``sort`` and ``argsort`` from 2.0 on, ``sorted=`` of
# ``np.unique`` from 2.3 on
NUMPY2_KEYWORDS = {"sort": "stable", "argsort": "stable", "unique": "sorted"}


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
    """Each NumPy-2-only name ``source`` uses: ``.mT`` on anything, a
    function read as ``np.<name>`` or ``numpy.<name>`` or imported from
    ``numpy``, and a keyword of ``NUMPY2_KEYWORDS`` passed to a call of
    its method or function (``.sort(stable=...)``, ``np.unique(sorted=...)``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            keyword = NUMPY2_KEYWORDS.get(node.func.attr)
            if keyword in {k.arg for k in node.keywords}:
                found.add(f".{node.func.attr}({keyword}=)")
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


def test_numpy2_names_reads_the_unique_and_cumulative_functions_and_keywords():
    source = ("import numpy as np\nfrom numpy import unique_counts, strings\n"
              "a = np.unique_values(x) + np.unique_inverse(x) + np.unique_all(x)\n"
              "b = np.strings.upper(s)\nc = np.astype(a, float) + np.cumulative_sum(a)\n"
              "d = np.sort(a, stable=True)\ne = a.argsort(kind='stable', stable=False)\n"
              "f = np.unique(a, sorted=False)\ng = x.sort(stable=True)\n"
              "h = np.unique(a, return_index=True) + a.astype(float) + np.cumsum(a)\n"
              "i = sorted(a, key=len) + np.argsort(a, kind='stable')\nlist_of.sort(key=abs)\n")
    assert numpy2_names(source) == {"np.unique_values", "np.unique_counts",
                                    "np.unique_inverse", "np.unique_all", "np.strings",
                                    "np.astype", "np.cumulative_sum", ".sort(stable=)",
                                    ".argsort(stable=)", ".unique(sorted=)"}


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


def _names(node) -> Counter:
    """How often each name is read or written under ``node``: a variable,
    or an attribute after its dot."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(node, prefix=""):
    """(qualified name, node) of every ``def`` and ``class`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def uncalled_definitions(sources) -> list:
    """``module:qualified.name`` of each ``def`` and ``class`` of the
    (module, source) pairs ``sources`` whose name appears nowhere in them
    outside its own body. Dunder methods, which Python calls, are skipped;
    the names of an import or of ``__all__`` do not count."""
    trees = [(module, ast.parse(source)) for module, source in sources]
    used = sum((_names(tree) for _, tree in trees), Counter())
    return [f"{module}:{qualname}" for module, tree in trees
            for qualname, node in _definitions(tree)
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and used[node.name] == _names(node)[node.name]]


# defined for a caller outside src/capseq: one reason each
NO_PACKAGE_CALLER = {
    "cli.py:_Parser.error": "argparse calls it on a usage error",
    "cli.py:_Parser._parse_optional": "argparse calls it for each argument it reads",
    "metrics.py:EvalResult.aggregate": "public API: criterion 7 and perfbench read a "
                                       "model's mean row with it",
    "features/tables.py:FeatureTables.attribute_vector": "perfbench counts its calls",
    "features/tables.py:FeatureTables.load": "perfbench times it",
    "generation.py:sample_next": "perfbench times it",
}


def test_uncalled_definitions_reads_every_form():
    caller = "from .b import used\n__all__ = ['exported']\nused(1)\nx = Kept()\nx.method()\n"
    callee = ("def used(n):\n    return used(n - 1) if n else 0\n"
              "def exported():\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Kept:\n    def __init__(self):\n        pass\n"
              "    def method(self):\n        def inner():\n            pass\n"
              "        return self.helper()\n"
              "    def helper(self):\n        pass\n"
              "    def orphan(self):\n        pass\n")
    assert uncalled_definitions([("a.py", caller), ("b.py", callee)]) == [
        "b.py:exported", "b.py:recursive", "b.py:Kept.method.inner", "b.py:Kept.orphan"]


def test_every_definition_has_a_package_caller():
    found = uncalled_definitions(package_sources())
    assert not set(found) - set(NO_PACKAGE_CALLER), sorted(set(found) - set(NO_PACKAGE_CALLER))
    defined = {f"{module}:{qualname}" for module, source in package_sources()
               for qualname, _ in _definitions(ast.parse(source))}
    assert set(NO_PACKAGE_CALLER) <= defined, sorted(set(NO_PACKAGE_CALLER) - defined)

"""Reach map of ``src/capseq``: what the tests and the CLI never run.

    PYTHONPATH=src python tests/reach.py

prints two lists:

- each statement line in a ``src/capseq`` function body that the fast
  suite (``pytest -m "not slow"``) never runs;
- each ``def`` in ``src/capseq`` that the two golden CLI pipelines of
  ``golden.py`` (synth, ingest x4, features, train x3, generate x12,
  ``evaluate --models all`` and report) never call.

A line of the first list needs a test, or a reason why it stays
untested. A ``def`` of the second that only tests call is a deletion
candidate, unless it is public API or ``perfbench`` holds its name.

The collector is a ``sys.settrace`` line tracer limited to the frames of
the files under one directory; it uses only the standard library. It
sees nothing that runs in another process. pytest does not collect
this file; ``test_reach.py`` tests its collector.
"""

from __future__ import annotations

import ast
import sys
import tempfile
import threading
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "capseq"

# statements that compile to no instruction of their own: their lines
# never show in a trace
SILENT = (ast.Global, ast.Nonlocal, ast.Try)


class Collector:
    """A context in which every line run, and every function called, in
    the files under ``root`` is recorded: ``lines`` maps a file name to
    the set of its line numbers that ran, and ``calls`` holds the
    (file name, first line, name) of every code object called there.
    The trace function in place on entry is back in place on exit."""

    def __init__(self, root):
        self.root = str(root)
        self.lines: dict = {}
        self.calls: set = set()
        self._mine: dict = {}  # file name -> under root

    def _call(self, frame, event, arg):
        code = frame.f_code
        mine = self._mine.get(code.co_filename)
        if mine is None:
            mine = self._mine[code.co_filename] = code.co_filename.startswith(self.root)
        if not mine:
            return None
        self.calls.add((code.co_filename, code.co_firstlineno, code.co_name))
        lines = self.lines.setdefault(code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def _first_line(node) -> int:
    """The line a function's code object starts at: its first decorator's."""
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def functions(tree) -> list:
    """(qualified name, node) of every ``def`` under ``tree``."""
    # imported here, so that the suite's own import of the test module
    # comes first and pytest rewrites its asserts
    from test_dependencies import _definitions

    return [(name, node) for name, node in _definitions(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _statements(body):
    """Every statement under the statement list ``body``, nested ones
    included, but not the bodies of the functions and classes it defines."""
    for stmt in body:
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                for child in getattr(stmt, field, ()):
                    if isinstance(child, ast.stmt):
                        yield from _statements([child])
                    else:  # an except handler or a match case
                        yield from _statements(child.body)


def _own_lines(stmt) -> range:
    """The lines of ``stmt`` that are not its nested statements': the whole
    of a simple statement, the header of a compound one."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return range(_first_line(stmt), stmt.body[0].lineno)
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(stmt.lineno, body[0].lineno)
    return range(stmt.lineno, stmt.end_lineno + 1)


def body_statements(source: str) -> dict:
    """First line -> own lines of every statement in a function body of
    ``source``, but a docstring and the statements that run no instruction."""
    found = {}
    for _, node in functions(ast.parse(source)):
        body = node.body
        if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        for stmt in _statements(body):
            if not isinstance(stmt, SILENT):
                found[stmt.lineno] = _own_lines(stmt)
    return found


def never_run(source: str, ran: set) -> list:
    """The first line of each function-body statement of ``source`` none
    of whose own lines is in ``ran``, in order."""
    return sorted(line for line, own in body_statements(source).items()
                  if ran.isdisjoint(own))


def never_called(source: str, filename: str, calls: set) -> list:
    """(first line, qualified name) of each ``def`` of ``source``, the
    file ``filename``, whose code object is not in ``calls``."""
    return [(node.lineno, name) for name, node in functions(ast.parse(source))
            if (filename, _first_line(node), node.name) not in calls]


def fast_suite() -> Collector:
    import pytest

    with Collector(PACKAGE) as collector:
        code = pytest.main(["-q", "-m", "not slow", "-p", "no:cacheprovider", str(TESTS)])
    if code != 0:
        raise SystemExit(f"reach: the fast suite exited {code}")
    return collector


def pipelines() -> Collector:
    import golden

    with tempfile.TemporaryDirectory() as tmp, Collector(PACKAGE) as collector:
        golden.ingest_digests(Path(tmp) / "ingest")
        golden.generate_digests(Path(tmp) / "generate")
    return collector


def main() -> int:
    suite, cli = fast_suite(), pipelines()
    unrun, total, uncalled, defs = [], 0, [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        name, text = path.relative_to(PACKAGE), source.splitlines()
        total += len(body_statements(source))
        unrun += [f"{name}:{line}  {text[line - 1].strip()}"
                  for line in never_run(source, suite.lines.get(str(path), set()))]
        defs += len(functions(ast.parse(source)))
        uncalled += [f"{name}:{line}  {qualname}"
                     for line, qualname in never_called(source, str(path), cli.calls)]
    print(f"\nreach: {len(unrun)} of {total} function-body statement lines in src/capseq "
          "never run by the fast suite:")
    print("".join(f"  {entry}\n" for entry in unrun), end="")
    print(f"reach: {len(uncalled)} of {defs} defs in src/capseq never called by the "
          "golden CLI pipelines:")
    print("".join(f"  {entry}\n" for entry in uncalled), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``reach.py`` keeps a working collector: on a small module of two
functions it reports exactly the line never run. Its exit status follows
both lists: a package line never run, and uncalled defs that differ from
``UNCALLED``."""

import ast
import importlib.util
import sys

import reach

SOURCE = '''def add(a, b):
    """A docstring, which is not a statement that runs."""
    total = a + b
    return total


def sign(x):
    if x < 0:
        return -1
    return 1
'''


def test_collector_reports_exactly_the_line_never_run(tmp_path):
    path = tmp_path / "two.py"
    path.write_text(SOURCE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("two", path)
    module = importlib.util.module_from_spec(spec)
    before = sys.gettrace()
    with reach.Collector(tmp_path) as collector:
        spec.loader.exec_module(module)
        assert module.add(1, 2) == 3
    assert sys.gettrace() is before
    assert reach.never_called(SOURCE, str(path), collector.calls) == [(7, "sign")]
    with collector:
        assert module.sign(5) == 1
    assert reach.never_run(SOURCE, collector.lines[str(path)]) == [9]
    assert reach.never_called(SOURCE, str(path), collector.calls) == []


def package_defs() -> dict:
    """``module:qualified.name`` -> the (file name, first line, name) a
    call records, for every ``def`` of the package."""
    found = {}
    for path in reach.PACKAGE.rglob("*.py"):
        source = path.read_text(encoding="utf-8")
        module = path.relative_to(reach.PACKAGE).as_posix()
        for qualname, node in reach.functions(ast.parse(source)):
            found[f"{module}:{qualname}"] = (str(path), reach._first_line(node), node.name)
    return found


def calling(keys) -> reach.Collector:
    """A collector that saw a call of each package ``def`` ``keys`` names."""
    collector, defs = reach.Collector(reach.PACKAGE), package_defs()
    collector.calls = {defs[key] for key in keys}
    return collector


def running_every_line() -> reach.Collector:
    collector = reach.Collector(reach.PACKAGE)
    for path in reach.PACKAGE.rglob("*.py"):
        lines = path.read_text(encoding="utf-8").splitlines()
        collector.lines[str(path)] = set(range(1, len(lines) + 1))
    return collector


def test_main_exits_1_while_a_package_line_is_never_run(monkeypatch, capsys):
    """1 when the fast suite ran no package line, 0 when it ran every
    one, the golden pipelines calling every def but the pinned ones."""
    everything = running_every_line()
    pinned_only = calling(package_defs().keys() - reach.UNCALLED.keys())
    monkeypatch.setattr(reach, "pipelines", lambda: pinned_only)
    for suite, code in ((reach.Collector(reach.PACKAGE), 1), (everything, 0)):
        monkeypatch.setattr(reach, "fast_suite", lambda: suite)
        assert reach.main() == code
        out = capsys.readouterr().out
        assert ("reach: 0 of" in out.split("never run by the fast suite")[0]) == (code == 0)


def test_main_exits_1_while_the_uncalled_defs_differ_from_the_pin(monkeypatch, capsys):
    """With every line run, 1 when a def outside ``UNCALLED`` goes
    uncalled, and 1 when a pinned def is called; the output names it."""
    monkeypatch.setattr(reach, "fast_suite", running_every_line)
    defs, pinned = package_defs().keys(), reach.UNCALLED.keys()
    extra = sorted(defs - pinned)[0]
    stale = sorted(pinned)[0]
    for calls, code, named in ((defs - pinned, 0, None), (defs - pinned - {extra}, 1, extra),
                               ((defs - pinned) | {stale}, 1, stale)):
        monkeypatch.setattr(reach, "pipelines", lambda: calling(calls))
        assert reach.main() == code
        tail = capsys.readouterr().out.split("entries of UNCALLED called:")[1]
        if named is None:
            assert tail == "\n"
        else:
            module, qualname = named.split(":")
            assert module in tail and qualname in tail

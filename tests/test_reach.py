"""``reach.py``, which CI does not run, keeps a working collector: on a
small module of two functions it reports exactly the line never run."""

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

"""The traced benchmark run swaps capseq attributes by name: every entry
of ``perfbench/spans.patch_points()`` must be an attribute its owner
defines itself, so that a rename fails here and not only in the harness."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_is_in_its_owners_dict():
    points = load_spans().patch_points()
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in points if attr not in owner.__dict__]
    assert not missing, missing

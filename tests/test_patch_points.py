"""The traced benchmark run swaps capseq attributes by name: every entry
of ``perfbench/spans.patch_points()`` must be an attribute its owner
defines itself, so that a rename fails here and not only in the harness."""

import importlib
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


# the data stages the traced run times: the owner module and the name the CLI
# calls them by
DATA_STAGES = [("capseq.cli", "parse_checkins"), ("capseq.cli", "parse_friendships"),
               ("capseq.cli", "build_sessions"), ("capseq.data.io", "save_dataset"),
               ("capseq.data.io", "load_dataset")]


def test_ingest_and_features_call_each_traced_data_stage_once(tmp_path, monkeypatch):
    """A name that the CLI no longer calls would leave its traced
    ``data.*_s`` layer reading 0 while a dead import kept it patchable."""
    calls = {}
    for module, name in DATA_STAGES:
        owner = importlib.import_module(module)
        original = getattr(owner, name)

        def counted(*args, _key=f"{module}.{name}", _original=original, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    (tmp_path / "c.csv").write_text(
        "userid,placeid,datetime,lat,lon,city,category\n"
        "u1,p1,1330905600,40.0,-74.0,,Food\nu1,p2,1330909200,40.01,-74.0,,Bar\n",
        encoding="utf-8")
    (tmp_path / "f.csv").write_text("userid1,userid2\nu1,u2\n", encoding="utf-8")
    from capseq.cli import main

    data = str(tmp_path / "data")
    assert main(["ingest", "--checkins", str(tmp_path / "c.csv"), "--friends",
                 str(tmp_path / "f.csv"), "--min-checkins", "0", "--out-dir", data]) == 0
    assert main(["features", "--data-dir", data, "--out-dir", data]) == 0
    assert calls == {f"{module}.{name}": 1 for module, name in DATA_STAGES}

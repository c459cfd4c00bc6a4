"""The ingest and generate pipelines' output bytes (the generate
pipeline's ends with ``evaluate`` and ``report``) equal the committed
golden digests (see ``golden.py``; ``python tests/golden.py --update``
rewrites them)."""

import json

import golden


def test_ingest_outputs_equal_the_golden_digests(tmp_path):
    want = json.loads(golden.FIXTURE.read_text(encoding="utf-8"))
    assert golden.ingest_digests(tmp_path) == want


def test_generated_sequences_equal_the_golden_digests(tmp_path):
    want = json.loads(golden.GENERATE_FIXTURE.read_text(encoding="utf-8"))
    assert golden.generate_digests(tmp_path) == want


def test_update_names_each_entry_whose_digest_moved(tmp_path, capsys):
    path = tmp_path / "fixture.json"
    assert golden._write(path, {"a": {"x": "1", "y": "2"}, "b": "3"}) == [
        "fixture.json: a/x", "fixture.json: a/y", "fixture.json: b"]
    assert golden._write(path, {"a": {"x": "1", "y": "9"}, "c": "4"}) == [
        "fixture.json: a/y", "fixture.json: b", "fixture.json: c"]
    assert golden._write(path, {"a": {"x": "1", "y": "9"}, "c": "4"}) == []
    assert json.loads(path.read_text(encoding="utf-8")) == {"a": {"x": "1", "y": "9"}, "c": "4"}

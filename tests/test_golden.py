"""The ingest pipeline's output bytes equal the committed golden digests
(see ``golden.py``; ``python tests/golden.py --update`` rewrites them)."""

import json

import golden


def test_ingest_outputs_equal_the_golden_digests(tmp_path):
    want = json.loads(golden.FIXTURE.read_text(encoding="utf-8"))
    assert golden.ingest_digests(tmp_path) == want

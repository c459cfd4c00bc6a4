"""Estimator plumbing: params round trips, fitted-state checks,
checkpoint save/load with encoding guards."""

import dataclasses

import numpy as np
import pytest

import scalar_reference as ref
from capseq.cli import RECOMMENDERS
from capseq.data import Encodings, build_sessions, synth_dataset
from capseq.features import ATTRIBUTE_DIM, FEATURE_DIM, FeatureTables
from capseq.generation import GenRequest
from capseq.models import (
    MAX_STEPS,
    MODEL_KINDS,
    Batch,
    CapsLstmRecommender,
    CapsRnnRecommender,
    PlainRnnRecommender,
    NotFittedError,
    encode_sessions,
    load_checkpoint,
    make_batch,
)
from capseq.baselines import MarkovRecommender, PopularityRecommender
from capseq.numerics import NumericError
from test_lstm import assert_gate_blocks_are_stack_rows


@pytest.fixture(scope="module")
def world():
    records, graph = synth_dataset(seed=5, n_users=5, n_pois=30, days=4)
    sessions = build_sessions(records)
    encodings = Encodings.fit(sessions)
    tables = FeatureTables.build(sessions, graph, encodings)
    return sessions, tables


class TestEstimatorApi:
    def test_get_params_round_trip(self):
        model = CapsRnnRecommender(hidden_size=10, epochs=2)
        params = model.get_params()
        assert params["hidden_size"] == 10 and params["epochs"] == 2
        clone = model.clone_unfitted()
        assert clone.get_params() == params
        with pytest.raises(TypeError, match="not_a_param"):
            CapsRnnRecommender(not_a_param=1)

    def test_repr_shows_params(self):
        assert "hidden_size=10" in repr(CapsLstmRecommender(hidden_size=10))

    def test_unfitted_generate_raises(self):
        model = PlainRnnRecommender(hidden_size=4, epochs=1)
        with pytest.raises(NotFittedError):
            model.generate(GenRequest(user=0, start_poi=0, start_hour=9,
                                      length=2, candidates=1, k=1))

    def test_fit_requires_tables(self, world):
        sessions, tables = world
        with pytest.raises(TypeError, match="tables"):
            CapsRnnRecommender(epochs=1).fit(sessions)
        with pytest.raises(TypeError, match="tables"):
            PopularityRecommender().fit(sessions)

    def test_fit_names_an_element_that_is_not_a_session(self, world):
        _, tables = world
        with pytest.raises(TypeError, match="expected Session, got object"):
            PlainRnnRecommender(hidden_size=4, n_layers=1, embedding_size=3,
                                epochs=1).fit([object()], tables)

    def test_baseline_params_round_trip(self):
        model = PopularityRecommender(radius_km=0.5)
        assert model.get_params() == {"radius_km": 0.5, "growth_factor": 1.5}
        assert MarkovRecommender().get_params() == {}

    def test_training_settings_defaults_and_validation(self):
        """Every neural kind trains by SGD with the reference settings and
        rejects a bad one at construction, naming it."""
        for cls in MODEL_KINDS.values():
            params = cls().get_params()
            assert (params["learning_rate"], params["clip_threshold"], params["batch_size"],
                    params["epochs"], params["seed"]) == (0.002, 5.0, 50, 100, 0)
            for name, value in (("learning_rate", -1.0), ("learning_rate", float("nan")),
                                ("learning_rate", float("inf")), ("clip_threshold", 0.0), ("batch_size", 0), ("epochs", 0),
                                ("seed", -1)):
                with pytest.raises(ValueError, match=name):
                    cls(**{name: value})


# small enough that every neural kind fits in a moment
TINY_NETS = {"hidden_size": 4, "n_layers": 1, "embedding_size": 3, "epochs": 1}


@pytest.mark.parametrize("name", sorted(RECOMMENDERS))
def test_recommender_contract(name, world):
    """Every recommender: a clone of a fitted model has its settings and
    none of its learned state, an unknown setting is a TypeError, and NaN
    in any float setting is rejected at construction."""
    sessions, tables = world
    cls = RECOMMENDERS[name]
    model = cls(**{k: v for k, v in TINY_NETS.items() if k in cls._param_names()})
    model.fit([s for s in sessions if len(s) >= 2], tables)
    clone = model.clone_unfitted()
    assert type(clone) is cls and clone.get_params() == model.get_params()
    assert [attr for attr in vars(model) if attr.endswith("_")]
    assert not [attr for attr in vars(clone) if attr.endswith("_")]
    with pytest.raises(TypeError, match="not_a_setting"):
        cls(not_a_setting=1)
    floats = [f.name for f in dataclasses.fields(cls) if isinstance(f.default, float)]
    assert floats or not cls._param_names()  # Markov has no settings
    for field in floats:
        with pytest.raises(ValueError, match=field):
            cls(**{field: float("nan")})


def _long_session(sessions):
    """A session of MAX_STEPS + 5 visits to the POIs of ``sessions``, ten
    minutes apart."""
    from capseq.data.types import Session, Visit

    pois = [v.poi for s in sessions for v in s.visits][: MAX_STEPS + 5]
    base = 1330905600
    return Session(sessions[0].user_id, tuple(
        Visit(poi, base + i * 600, base + i * 600 + 300) for i, poi in enumerate(pois)))


def _row_sets(n):
    """Row sets of the oracle test, by name, over ``n`` sessions."""
    order = np.random.default_rng(4).permutation(n)
    return {
        "all-in-order": [np.arange(n)],
        "permuted-threes": [order[i : i + 3] for i in range(0, n, 3)],
        "one-row": [np.array([i]) for i in range(n)],
    }


class TestSessionEncoding:
    def test_long_sessions_capped_at_max_steps(self, world):
        from capseq.data.types import Poi, Session, Visit

        sessions, tables = world
        poi_ids = list(tables.encodings.poi_to_ix)
        base = 1330905600
        visits = tuple(
            Visit(Poi(poi_ids[i % len(poi_ids)], 40.0, -74.0, "Home/Work:Home"),
                  base + i * 600, base + i * 600 + 300)
            for i in range(30)
        )
        long_session = Session("u0000", visits)
        encoded = encode_sessions([long_session], tables)
        assert len(encoded.inputs[0]) == MAX_STEPS
        assert encoded.attrs[0].shape[0] == MAX_STEPS

    def test_rejects_singletons(self, world):
        from capseq.data.types import Poi, Session, Visit

        sessions, tables = world
        poi_id = next(iter(tables.encodings.poi_to_ix))
        single = Session(
            "u0000",
            (Visit(Poi(poi_id, 40.0, -74.0, "Home/Work:Home"), 1, 601),),
        )
        with pytest.raises(ValueError):
            encode_sessions([single], tables)

    @pytest.mark.parametrize("case", ["all-in-order", "permuted-threes", "one-row",
                                      "long-among-short"])
    def test_gathered_rows_equal_the_reference_batches(self, synth_small, synth_tables,
                                                       case):
        """A gather of the sessions padded once equals, bit for bit and
        dtype for dtype, the batch padded from one encoded session each."""
        sessions = [s for s in synth_small[0] if len(s) >= 2]
        if case == "long-among-short":
            sessions = sessions[:3] + [_long_session(sessions)] + sessions[3:5]
            row_sets = [np.arange(6), np.array([3]), np.array([4, 3, 0])]
        else:
            row_sets = _row_sets(len(sessions))[case]
        data = encode_sessions(sessions, synth_tables)
        encoded = [ref.encode_session(s, synth_tables) for s in sessions]
        for rows in row_sets:
            got = make_batch(data, rows)
            want = ref.make_batch([encoded[i] for i in rows], synth_tables.n_pois)
            for field in dataclasses.fields(Batch):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), (field.name, rows)
                assert a.tobytes() == b.tobytes(), (field.name, rows)


class TestCheckpoints:
    def make(self, world, cls=CapsRnnRecommender, **kw):
        sessions, tables = world
        kw.setdefault("hidden_size", 8)
        kw.setdefault("embedding_size", 6)
        kw.setdefault("epochs", 2)
        kw.setdefault("learning_rate", 0.05)
        if cls is not CapsLstmRecommender:
            kw.setdefault("n_layers", 1)
        model = cls(**kw)
        return model.fit([s for s in sessions if len(s) >= 2], tables), tables

    @pytest.mark.parametrize("cls", [PlainRnnRecommender, CapsRnnRecommender,
                                     CapsLstmRecommender])
    def test_save_load_preserves_generation(self, world, tmp_path, cls):
        model, tables = self.make(world, cls)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = load_checkpoint(path, tables)
        assert type(loaded) is cls
        req = GenRequest(user=0, start_poi=1, start_hour=9, length=4,
                         candidates=3, k=2)
        a = model.generate(req, seed=4)
        b = loaded.generate(req, seed=4)
        assert [s.pois for s in a] == [s.pois for s in b]
        assert [s.score for s in a] == [s.score for s in b]
        assert [s.hours for s in a] == [s.hours for s in b]
        # the restored net steps bit for bit as the trained one
        rng = np.random.default_rng(2)
        B = 3
        state, restored = model.net_.init_state(B), loaded.net_.init_state(B)
        for _ in range(4):
            ix = rng.integers(0, tables.n_pois, size=B)
            attrs = rng.normal(size=(B, ATTRIBUTE_DIM))
            feats = rng.normal(size=(B, FEATURE_DIM))
            state, logits, _ = model.net_.forward_step(state, ix, attrs, feats)
            restored, restored_logits, _ = loaded.net_.forward_step(restored, ix, attrs, feats)
            assert logits.tobytes() == restored_logits.tobytes()
            assert [a.tobytes() for a in state] == [b.tobytes() for b in restored]
        if cls is CapsLstmRecommender:
            assert_gate_blocks_are_stack_rows(model.net_)  # after training's SGD steps
            assert_gate_blocks_are_stack_rows(loaded.net_)

    def test_sidecar_kind_tag(self, world, tmp_path):
        import json

        model, tables = self.make(world, CapsLstmRecommender)
        path = tmp_path / "m.ckpt"
        model.save(path)
        sidecar = json.loads(path.with_suffix(".ckpt.json").read_text())
        assert sidecar["kind"] == "caps-lstm"
        assert set(sidecar) == {"kind", "params", "encodings_sha256"}
        # an older sidecar's POI count is not read: the net is built for the tables'
        sidecar["n_pois"] = 2
        path.with_suffix(".ckpt.json").write_text(json.dumps(sidecar))
        assert load_checkpoint(path, tables).net_.n_pois == tables.n_pois

    def test_rejects_foreign_encodings(self, world, tmp_path):
        model, tables = self.make(world)
        path = tmp_path / "m.ckpt"
        model.save(path)
        records, graph = synth_dataset(seed=99, n_users=4, n_pois=20, days=3)
        other_sessions = build_sessions(records)
        other = FeatureTables.build(
            other_sessions, graph, Encodings.fit(other_sessions)
        )
        with pytest.raises(ValueError, match="encodings"):
            load_checkpoint(path, other)

    def test_rejects_snapshot_missing_blocks(self, world, tmp_path):
        """A plain-rnn snapshot whose sidecar says caps-rnn lacks the
        context blocks; loading it must fail, not fill them at random."""
        import json

        model, tables = self.make(world, PlainRnnRecommender)
        path = tmp_path / "m.ckpt"
        model.save(path)
        sidecar_path = path.with_suffix(".ckpt.json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["kind"] = "caps-rnn"
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(NumericError, match="missing.*'G'"):
            load_checkpoint(path, tables)

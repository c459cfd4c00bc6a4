"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them
live). The relative-ordering benchmark is the long pole at a few
minutes of CPU; everything else is seconds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import naive_reference as naive
from finite_diff import grad_check
from test_baselines import (
    apriori_trips,
    brute_force_trips,
    independent_power_iteration,
)
from test_features import random_world
from test_metrics import brute_force_pairs_f1

from capseq import numerics
from capseq.baselines import (
    MarkovRecommender,
    PopularityRecommender,
    markov_fit,
    power_iterate,
)
from capseq.cli import main
from capseq.data import (
    Encodings,
    SocialGraph,
    build_sessions,
    synth_dataset,
)
from capseq.features import FeatureTables
from capseq.geo import WALK_SPEED_KMH
from capseq.metrics import cross_validate, diversity, displacement, pairs_f1
from capseq.models import (
    Batch,
    CapsLstmRecommender,
    CapsRnnRecommender,
    PlainRnnRecommender,
)
from capseq.models.lstm import ContextLstm
from capseq.models.rnn import ContextRnn


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{name}]: FAIL", flush=True)
        raise
    print(f"criterion {number} [{name}]: PASS", flush=True)


def toy_batch(rng, K, T, B=2):
    return Batch(
        inputs=rng.integers(0, K, size=(B, T)),
        targets=rng.integers(0, K, size=(B, T)),
        mask=np.ones((B, T)),
        attrs=rng.normal(size=(B, T, 30)),
        feats=rng.normal(size=(B, 7)),
    )


def test_criterion_1_gradient_correctness():
    """Finite differences vs analytic BPTT on toy shapes, every block."""
    with criterion(1, "gradient correctness"):
        started = time.perf_counter()
        rng = np.random.default_rng(0)
        for T in (1, 3, 25):
            rnn = ContextRnn(6, hidden_size=5, n_layers=2, embedding_size=4,
                             contextual=True, seed=T)
            batch = toy_batch(rng, K=6, T=T)
            _, grads = rnn.loss_and_grads(batch)
            err = grad_check(
                lambda: rnn.loss_and_grads(batch)[0], rnn.params, grads,
                eps=1e-5, samples_per_block=4, rng=np.random.default_rng(T),
            )
            assert err < 1e-4, f"caps-rnn T={T}: max rel err {err:.2e}"

            lstm = ContextLstm(6, hidden_size=5, embedding_size=4, seed=T)
            batch = toy_batch(rng, K=6, T=T)
            _, grads = lstm.loss_and_grads(batch)
            err = grad_check(
                lambda: lstm.loss_and_grads(batch)[0], lstm.params, grads,
                eps=1e-5, samples_per_block=4, rng=np.random.default_rng(T),
            )
            assert err < 1e-4, f"caps-lstm T={T}: max rel err {err:.2e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_2_degeneration():
    """Neutralized context models equal their plain counterparts float
    for float over 1000 random steps."""
    with criterion(2, "degeneration to plain models"):
        from test_lstm import neutralize as neutralize_lstm
        from test_lstm import textbook_lstm_step
        from test_rnn import neutralize as neutralize_rnn

        rng = np.random.default_rng(4)
        K, H, E = 8, 5, 4
        caps = ContextRnn(K, hidden_size=H, n_layers=2, embedding_size=E,
                          contextual=True, seed=1)
        plain = ContextRnn(K, hidden_size=H, n_layers=2, embedding_size=E,
                           contextual=False, seed=1)
        neutralize_rnn(caps)
        for name in plain.params:
            plain.params[name] = caps.params[name].copy()
        sc, sp = caps.init_state(1), plain.init_state(1)
        for _ in range(1000):
            ix = rng.integers(0, K, size=1)
            A = rng.normal(size=(1, 30))
            f = rng.normal(size=(1, 7))
            sc, lc = caps.forward_step(sc, ix, A, f)
            sp, lp = plain.forward_step(sp, ix, A, f)
            pc, pp = numerics.softmax(lc), numerics.softmax(lp)
            assert np.array_equal(lc, lp) and np.array_equal(pc, pp)
            assert all(np.array_equal(a, b) for a, b in zip(sc, sp))

        lstm = ContextLstm(K, hidden_size=H, embedding_size=E, seed=2)
        neutralize_lstm(lstm)
        state = lstm.init_state(1)
        h_ref = np.zeros((1, H))
        c_ref = np.zeros((1, H))
        for _ in range(1000):
            ix = rng.integers(0, K, size=1)
            A = rng.normal(size=(1, 30))
            f = rng.normal(size=(1, 7))
            state, logits = lstm.forward_step(state, ix, A, f)
            x = lstm.params["emb"][ix]
            h_ref, c_ref, logits_ref = textbook_lstm_step(lstm.params, x, h_ref, c_ref)
            assert np.array_equal(logits, logits_ref)
            assert np.array_equal(state[0], h_ref)
            assert np.array_equal(state[1], c_ref)


def overfit_fixture():
    """Fixed five-session set: the first trainable session of each of
    five synthetic users (seed 7)."""
    records, graph = synth_dataset(seed=7, n_users=5, n_pois=40, days=2)
    by_user: dict = {}
    for s in build_sessions(records):
        if len(s) >= 2:
            by_user.setdefault(s.user_id, []).append(s)
    sessions = [by_user[u][0] for u in sorted(by_user)][:5]
    assert len(sessions) == 5
    encodings = Encodings.fit(sessions)
    tables = FeatureTables.build(sessions, graph, encodings)
    return sessions, tables


def test_criterion_3_overfit_sanity():
    """200-epoch training drives NLL to <= 10% of its starting value for
    both contextual models, in well under five minutes."""
    with criterion(3, "overfit sanity"):
        started = time.perf_counter()
        sessions, tables = overfit_fixture()
        rnn = CapsRnnRecommender(
            hidden_size=24, n_layers=2, embedding_size=16, epochs=200,
            learning_rate=0.1, batch_size=5, seed=1,
        ).fit(sessions, tables)
        ratio_rnn = rnn.loss_curve_[-1] / rnn.loss_curve_[0]
        assert ratio_rnn <= 0.10, f"caps-rnn ratio {ratio_rnn:.2%}"

        lstm = CapsLstmRecommender(
            hidden_size=48, embedding_size=24, epochs=200,
            learning_rate=0.2, batch_size=5, seed=1,
        ).fit(sessions, tables)
        ratio_lstm = lstm.loss_curve_[-1] / lstm.loss_curve_[0]
        assert ratio_lstm <= 0.10, f"caps-lstm ratio {ratio_lstm:.2%}"

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"overfit runs took {elapsed:.1f}s"


def test_criterion_4_metric_oracles():
    """pairs-F1 vs exhaustive enumeration (exact), diversity and
    displacement against hand values."""
    with criterion(4, "metric oracles"):
        rng = np.random.default_rng(1234)
        for _ in range(10_000):
            a = rng.integers(0, 7, size=rng.integers(2, 7)).tolist()
            b = rng.integers(0, 7, size=rng.integers(2, 7)).tolist()
            assert pairs_f1(a, b) == brute_force_pairs_f1(a, b)

        assert diversity(["A", "A", "A"]) == pytest.approx(0.0, abs=1e-12)
        assert diversity(["A", "B", "C"]) == pytest.approx(1.0, rel=1e-12)
        assert diversity(["A", "A", "B"]) == pytest.approx(2.0 / 3.0, rel=1e-12)

        total, mean = displacement([(90.0, 0.0)], [(0.0, 0.0)])
        assert total == pytest.approx(10007.5, rel=1e-3)
        d3, d5 = 3.0, 5.0
        total, mean = displacement(
            [(0.0, 0.0), (0.0, 0.0)],
            [(d3 / 111.19493, 0.0), (d5 / 111.19493, 0.0)],
        )
        assert total == pytest.approx(8.0, rel=1e-4)
        assert mean == pytest.approx(4.0, rel=1e-4)


def test_criterion_5_feature_formula_equivalence(tiny_world):
    """Optimized tables match the literal transcription to 1e-12 on
    small fixtures; score monotonicity and the no-friends collapse hold
    over 1000 randomized cases."""
    with criterion(5, "feature formula equivalence"):
        sessions, graph, encodings = tiny_world
        assert sum(len(s) for s in sessions) <= 50
        tables = FeatureTables.build(sessions, graph, encodings)
        for user_id, u in encodings.user_to_ix.items():
            for poi_id, l in encodings.poi_to_ix.items():
                assert tables._stats.ac[u, l] == pytest.approx(
                    naive.ast_cat(sessions, user_id, poi_id), rel=1e-12, abs=1e-15
                )
                assert tables._stats.ast[u, l] == pytest.approx(
                    naive.ast(sessions, graph, user_id, poi_id), rel=1e-12, abs=1e-15
                )
                for hour in (9, 13, 18):
                    assert tables.preference(u, l, hour) == pytest.approx(
                        naive.preference_score(sessions, graph, user_id, poi_id, hour),
                        rel=1e-12, abs=1e-15,
                    )
                    assert tables.consolidated(u, l, hour, 0) == pytest.approx(
                        naive.consolidated(sessions, graph, user_id, poi_id, hour, "p0"),
                        rel=1e-12, abs=1e-15,
                    )

        # randomized property checks
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 1000:
            sessions_r, graph_r = random_world(rng)
            enc_r = Encodings.fit(sessions_r)
            with_friends = FeatureTables.build(sessions_r, graph_r, enc_r)
            no_friends = FeatureTables.build(sessions_r, SocialGraph(), enc_r)
            for _ in range(25):
                u = int(rng.integers(0, enc_r.n_users))
                l = int(rng.integers(0, enc_r.n_pois))
                hour = int(rng.integers(0, 24))
                cur = int(rng.integers(0, enc_r.n_pois))
                # raising any constraint cannot raise the final score
                ps = with_friends.preference(u, l, hour)
                base = with_friends.consolidated(u, l, hour, cur)
                assert base <= ps + 1e-15
                # no friendship edges: social blend equals the categorical one
                assert no_friends._stats.ast[u, l] == no_friends._stats.ac[u, l]
                checked += 1


def test_criterion_6_baseline_validity():
    """Apriori equals exhaustive search; Markov rows are stochastic;
    HITS matches an independent 100-step power iteration; constraints
    hold on every Apriori output."""
    with criterion(6, "baseline validity"):
        from test_baselines import small_world

        sessions, enc, tables = small_world(n_pois=6, spacing_km=0.9)
        for length in (2, 3, 4, 5):
            got = apriori_trips(tables, 0, 0, 9, length=length, epsilon_km=2.0,
                                budget_hours=8.0, k=500, beam_width=None)
            expected = brute_force_trips(tables, 0, 0, 9, length, 2.0, 8.0)
            assert [tuple(s.pois) for s in got] == [e[0] for e in expected[:500]]
            for s in got:
                elapsed = tables.stay.mean_stay[s.pois[0]]
                for a, b in zip(s.pois, s.pois[1:]):
                    d = tables.distance_km(a, b)
                    assert d <= 2.0 + 1e-9
                    elapsed += d / WALK_SPEED_KMH * 3600.0 + tables.stay.mean_stay[b]
                assert elapsed <= 8.0 * 3600.0 + 1e-6

        records, graph = synth_dataset(seed=9, n_users=8, n_pois=40, days=4)
        sess = build_sessions(records)
        enc2 = Encodings.fit(sess)
        model = markov_fit(sess, enc2)
        for chain in model.chains.values():
            np.testing.assert_allclose(
                chain.transition.sum(axis=1), 1.0, atol=1e-12
            )
            assert np.all(chain.transition > 0)

        rng = np.random.default_rng(5)
        for _ in range(20):
            M = rng.uniform(0.0, 3.0, size=(rng.integers(2, 6), rng.integers(2, 6)))
            h, a = power_iterate(M)
            h_ref, a_ref = independent_power_iteration(M, iterations=100)
            np.testing.assert_allclose(h, h_ref, atol=1e-8)
            np.testing.assert_allclose(a, a_ref, atol=1e-8)


BENCH_MODELS = {
    "popularity": PopularityRecommender(),
    "plain-rnn": PlainRnnRecommender(
        hidden_size=48, n_layers=1, embedding_size=32, epochs=60,
        learning_rate=0.2, seed=0,
    ),
    "caps-rnn": CapsRnnRecommender(
        hidden_size=48, n_layers=1, embedding_size=32, epochs=60,
        learning_rate=0.2, seed=0,
    ),
    "caps-lstm": CapsLstmRecommender(
        hidden_size=64, embedding_size=32, epochs=180,
        learning_rate=0.2, seed=0,
    ),
}


@pytest.mark.slow
def test_criterion_7_relative_ordering():
    """Context-aware models beat the plain model, which beats the
    popularity count, by at least 0.02 pairs-F1 each, under 5-fold cross
    validation on the 60-user synthetic benchmark; the best contextual
    model also displaces no more than popularity."""
    with criterion(7, "relative ordering on synthetic benchmark"):
        started = time.perf_counter()
        records, graph = synth_dataset(seed=7, n_users=60, n_pois=200, days=30)
        sessions = build_sessions(records, min_checkins=25)
        encodings = Encodings.fit(sessions)
        result = cross_validate(
            sessions, graph, encodings, BENCH_MODELS,
            folds=5, seed=7, candidates=10,
        )
        f1 = {name: result.aggregate(name).pairs_f1 for name in BENCH_MODELS}
        disp = {
            name: result.aggregate(name).displacement_mean_km
            for name in BENCH_MODELS
        }
        print(
            "    pairs-F1: "
            + ", ".join(f"{k}={v:.4f}" for k, v in f1.items())
            + " | displacement: "
            + ", ".join(f"{k}={v:.3f}" for k, v in disp.items())
        )
        assert f1["caps-lstm"] >= f1["caps-rnn"] + 0.02
        assert f1["caps-rnn"] >= f1["plain-rnn"] + 0.02
        assert f1["plain-rnn"] >= f1["popularity"] + 0.02
        assert disp["caps-lstm"] <= disp["popularity"]
        elapsed = time.perf_counter() - started
        assert elapsed < 1800.0, f"benchmark took {elapsed:.0f}s"


def test_criterion_8_determinism(tmp_path):
    """Two runs of every pipeline stage with the same seed produce
    byte-identical outputs (timings are reported separately by design)."""
    with criterion(8, "pipeline determinism"):
        outputs = []
        for run in range(2):
            root = tmp_path / f"run{run}"
            raw, data, feat, trained, gen, ev, rep = (
                root / n
                for n in ("raw", "data", "feat", "train", "gen", "eval", "rep")
            )
            assert main(["synth", "--seed", "21", "--users", "6", "--pois", "40",
                         "--days", "4", "--out-dir", str(raw)]) == 0
            assert main(["ingest", "--checkins", str(raw / "checkins.csv"),
                         "--friends", str(raw / "friendships.csv"),
                         "--min-checkins", "10", "--out-dir", str(data)]) == 0
            assert main(["features", "--data-dir", str(data),
                         "--out-dir", str(feat)]) == 0
            assert main(["train", "--data-dir", str(data), "--model", "caps-rnn",
                         "--hidden-size", "10", "--n-layers", "1",
                         "--embedding-size", "8", "--epochs", "2", "--lr", "0.05",
                         "--seed", "21", "--out-dir", str(trained)]) == 0
            assert main(["generate", "--data-dir", str(data),
                         "--checkpoint", str(trained / "caps-rnn.ckpt"),
                         "--user", "u0000", "--length", "4", "--candidates", "3",
                         "--k", "2", "--seed", "21", "--out-dir", str(gen)]) == 0
            assert main(["evaluate", "--data-dir", str(data),
                         "--models", "popularity,markov", "--folds", "3",
                         "--candidates", "3", "--seed", "21",
                         "--sweep-lengths", "3", "--out-dir", str(ev)]) == 0
            assert main(["report", "--eval-csv", str(ev / "eval_report.csv"),
                         "--sweep-csv", str(ev / "sweep.csv"),
                         "--out-dir", str(rep)]) == 0
            blobs = {}
            for stage in (raw, data, feat, trained, gen, ev, rep):
                for path in sorted(stage.iterdir()):
                    if path.name == "timings.csv":
                        continue
                    blobs[f"{stage.name}/{path.name}"] = path.read_bytes()
            outputs.append(blobs)
        assert outputs[0].keys() == outputs[1].keys()
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"

"""Dense kernel: sigmoid, softmax, the left-to-right sum and its sites,
SGD with clipping, the finite-difference checker, and parameter
snapshots."""

from types import SimpleNamespace

import numpy as np
import pytest

from capseq import geo, metrics
from capseq.baselines.hits import HitsModel, sequence_score
from capseq.data import SessionTable
from capseq.features import FeatureTables, tables as tables_module
from capseq.generation import score_sequence
from finite_diff import grad_check
from capseq.numerics import (
    NumericError,
    load_params,
    save_params,
    sequential_sum,
    sgd_step,
    sigmoid,
    softmax,
    xavier_uniform,
)


class TestElementwiseOps:
    def test_sigmoid_extremes_stay_finite(self):
        x = np.array([-1000.0, -10.0, 0.0, 10.0, 1000.0])
        s = sigmoid(x)
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[-1] == 1.0
        assert s[2] == 0.5


def neumaier_sum(values) -> float:
    """Compensated (Neumaier) sum, the order of the builtin ``sum`` over
    floats from Python 3.12 on."""
    total = carry = 0.0
    for value in values:
        t = total + value
        carry += (total - t) + value if abs(total) >= abs(value) else (value - t) + total
        total = t
    return total + carry


TENTHS = [0.1] * 10


class TestSequentialSum:
    """Each float sum of the pipeline adds ten 0.1s left to right, which
    gives 0.9999999999999999 where a compensated sum gives 1.0."""

    SUM = 0.9999999999999999

    def test_ten_tenths_separate_the_two_orders(self):
        assert sequential_sum(TENTHS) == self.SUM
        assert neumaier_sum(TENTHS) == 1.0
        assert sequential_sum([]) == 0.0
        # so does every site's result below
        assert self.SUM / 10 != 1.0 / 10
        assert self.SUM * (self.SUM / 10) != 1.0 * (1.0 / 10)

    def test_stay_global_mean(self):
        """Ten POIs with a mean stay of 0.1 s each (1 s over 10 visits)."""
        pois = np.repeat(np.arange(10), 10)
        stays = np.tile([1] + [0] * 9, 10)
        stats = tables_module._stay_stats(np.zeros(100, dtype=np.int64), pois, stays, 11)
        assert stats.mean_stay[:10].tolist() == TENTHS
        assert stats.global_mean == stats.mean_stay[10] == self.SUM / 10

    def test_mean_step_km(self, synth_small, monkeypatch):
        sessions, graph, encodings = synth_small
        tables = FeatureTables.build(sessions, graph, encodings)
        monkeypatch.setattr(geo, "arc_km", lambda *places: 0.1)
        pois, times = np.arange(11), np.arange(11) * 60
        table = SessionTable(np.zeros(11, dtype=np.int64), pois, times, times,
                             np.array([11]), encodings, encodings.pois(), pois)
        dist_prev, feats = tables.session_steps(table)
        assert dist_prev.tolist() == [0.0] + TENTHS
        assert feats[0, 4] == self.SUM / 10

    def test_mean_step_km_of_many_sessions(self, synth_tables, monkeypatch):
        """Each session's mean step km, summed by step index over the
        sessions, is its own steps added left to right from 0.0."""
        rng = np.random.default_rng(4)
        lengths = rng.integers(1, 12, size=200)
        lengths[[0, 57]] = 1, 40
        n = int(lengths.sum())
        km = rng.random(n - len(lengths)) * 10.0 ** rng.integers(-3, 3, n - len(lengths))
        monkeypatch.setattr(tables_module, "arcs_km", lambda points, a, b: km)
        zeros, encodings = np.zeros(n, dtype=np.int64), synth_tables.encodings
        table = SessionTable(zeros, zeros, zeros, zeros, lengths, encodings, encodings.pois(),
                             zeros)
        _, feats = synth_tables.session_steps(table)
        ends = np.cumsum(lengths - 1).tolist()
        want = [sequential_sum(km[end - k:end].tolist()) / k if k else 0.0
                for end, k in zip(ends, (lengths - 1).tolist())]
        assert feats[:, 4].tolist() == want

    def test_displacement(self, monkeypatch):
        monkeypatch.setattr(metrics, "haversine_km", lambda *coords: 0.1)
        stops = [(40.0, -74.0)] * 10
        assert metrics.displacement(stops, stops) == (self.SUM, self.SUM / 10)

    def test_hits_sequence_score(self):
        """Ten POIs of authority 0.1 each, their first pair traversed by
        ten users of hub 0.1 each."""
        model = HitsModel(np.zeros(10, dtype=np.int64), np.full((1, 10), 0.1),
                          np.full(10, 0.1), {(0, 1): set(range(10))}, {}, [])
        assert sequence_score(model, list(range(10))) == self.SUM * (self.SUM / 10)

    def test_generated_sequence_score(self):
        tables = SimpleNamespace(preference=lambda user, pois, hours: np.full(pois.shape, 0.1))
        pois = np.arange(30).reshape(3, 10)
        assert score_sequence(pois, np.full(pois.shape, 9), 0, tables) == [self.SUM] * 3
        assert score_sequence([[4]], [[9]], 0, tables) == [0.1]


def masked_sigmoid(x):
    """Reference: the two-branch boolean-mask logistic. The branch-free
    ``sigmoid`` must match it bit for bit."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SPECIAL_VALUES = [0.0, -0.0, 40.0, -40.0, 745.0, -745.0, 1e308, -1e308, np.nan]


@pytest.mark.parametrize("shape", [(1, 5), (50, 64), (50, 512)])
def test_sigmoid_bit_equal_to_masked_form(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(scale=20.0, size=shape)
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, len(SPECIAL_VALUES)),
                       replace=False)
    flat[picks] = SPECIAL_VALUES[: len(picks)]
    if flat.size < len(SPECIAL_VALUES):  # too small to hold them all: widen
        x = np.concatenate([x, np.array(SPECIAL_VALUES).reshape(1, -1)], axis=1)
    with np.errstate(all="ignore"):
        expected = masked_sigmoid(x)
    # the CLI's floating-point setting: an exp overflow would be exit 3
    with np.errstate(all="raise", under="ignore"):
        got = sigmoid(x)
    assert np.array_equal(got, expected, equal_nan=True)


def test_sigmoid_in_place_gives_the_same_bits():
    """``sigmoid(x, out=x)`` overwrites ``x`` with ``sigmoid(x)``, NaN and
    the extremes included: the sign is read before ``x`` is overwritten."""
    x = np.random.default_rng(5).normal(scale=20.0, size=(3, 4, len(SPECIAL_VALUES)))
    x[1, 2] = SPECIAL_VALUES
    expected = sigmoid(x)
    got = sigmoid(x, out=x)
    assert got is x
    assert np.array_equal(x, expected, equal_nan=True)


class TestSoftmax:
    def test_leaves_its_input_alone(self):
        logits = np.random.default_rng(8).normal(size=(4, 9))
        kept = logits.copy()
        softmax(logits)
        assert np.array_equal(logits, kept)

    def test_uniform_logits(self):
        p = softmax(np.zeros(7))
        np.testing.assert_allclose(p, 1.0 / 7, atol=1e-15)

    def test_closed_form_pair(self):
        p = softmax(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(p, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance_and_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.normal(scale=50.0, size=10)
            p1 = softmax(x)
            p2 = softmax(x + 123.456)
            np.testing.assert_allclose(p1, p2, atol=1e-12)
            assert abs(p1.sum() - 1.0) <= 1e-12
            assert np.all(p1 > 0)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.normal(size=8)
            assert np.argmax(softmax(x)) == np.argmax(x)

    def test_extreme_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)


def global_norm(grads) -> float:
    return float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))


class TestSgd:
    def test_norm_clip_halves_at_double(self):
        """With a zero learning rate the step only clips: the gradients
        are rescaled in place to norm 5 and the parameters stay."""
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([6.0, 8.0])}  # norm 10
        sgd_step(params, grads, 0.0, 5.0)
        np.testing.assert_allclose(grads["w"], [3.0, 4.0])
        assert np.linalg.norm(grads["w"]) == pytest.approx(5.0)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_clip_idempotent(self):
        """Every draw's global norm is past the threshold of 5: the first
        step clips it to 5, give or take an ulp, and the second changes
        no entry by more than two ulps."""
        rng = np.random.default_rng(6)
        clip = 5.0
        for _ in range(50):
            grads = {"a": rng.normal(scale=10.0, size=7), "b": rng.normal(scale=10.0, size=(3, 2))}
            assert global_norm(grads) > clip
            params = {k: np.zeros_like(v) for k, v in grads.items()}
            once = {k: v.copy() for k, v in grads.items()}
            sgd_step(params, once, 0.0, clip)
            assert global_norm(once) == pytest.approx(clip, rel=1e-12, abs=0)
            twice = {k: v.copy() for k, v in once.items()}
            sgd_step(params, twice, 0.0, clip)
            for k in grads:
                np.testing.assert_allclose(twice[k], once[k], rtol=2 * np.finfo(float).eps, atol=0)

    def test_zero_grads_leave_params(self):
        params = {"w": np.array([1.0, -2.0])}
        sgd_step(params, {"w": np.zeros(2)}, 0.002, 5.0)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_scalar_update_arithmetic(self):
        params = {"w": np.array([1.0])}
        sgd_step(params, {"w": np.array([0.5])}, 0.002, 5.0)
        assert params["w"][0] == pytest.approx(0.999)

    def test_nan_grads_name_the_block(self):
        params = {"good": np.zeros(2), "bad": np.zeros(2)}
        grads = {"good": np.zeros(2), "bad": np.array([np.nan, 0.0])}
        with pytest.raises(NumericError, match="bad"):
            sgd_step(params, grads, 0.002, 5.0)


class TestGradCheck:
    def test_quadratic_loss_exact(self):
        params = {"p": np.array([1.0, -2.0, 0.5])}

        def loss():
            return 0.5 * float(np.sum(params["p"] ** 2))

        err = grad_check(loss, params, {"p": params["p"].copy()}, eps=1e-5)
        assert err < 1e-8

    def test_detects_wrong_gradient(self):
        params = {"p": np.array([1.0, -2.0])}

        def loss():
            return 0.5 * float(np.sum(params["p"] ** 2))

        err = grad_check(loss, params, {"p": 2.0 * params["p"]}, eps=1e-5)
        assert err > 0.3

    def test_eps_bounds_enforced(self):
        with pytest.raises(ValueError):
            grad_check(lambda: 0.0, {"p": np.zeros(1)}, {"p": np.zeros(1)}, eps=1.0)


class TestDeterminism:
    def test_same_seed_same_init(self):
        a = xavier_uniform(np.random.default_rng(3), (4, 5))
        b = xavier_uniform(np.random.default_rng(3), (4, 5))
        np.testing.assert_array_equal(a, b)

    def test_xavier_limits(self):
        w = xavier_uniform(np.random.default_rng(0), (100, 50))
        limit = np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= limit


class TestSnapshot:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(8)
        params = {
            "emb": rng.normal(size=(7, 3)),
            "w": rng.normal(size=(4, 4)),
            "b": rng.normal(size=4),
        }
        path = tmp_path / "p.bin"
        save_params(path, params)
        loaded = load_params(path)
        assert set(loaded) == set(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(NumericError):
            load_params(path)

    def test_rejects_every_truncation(self, tmp_path):
        path = tmp_path / "p.bin"
        save_params(path, {"w": np.ones((2, 3)), "b": np.zeros(3)})
        raw = path.read_bytes()
        for cut in range(len(b"CSQPARAM"), len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(NumericError, match="truncated"):
                load_params(path)

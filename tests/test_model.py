import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bpnet.model import (
    AdamState,
    LstmWeights,
    ModelError,
    ModelParams,
    NonFiniteActivation,
    TrainConfig,
    TrainedModel,
    adam_step,
    backward_batch,
    clip_gradient_norm,
    forward_batch,
    gradient_norm,
    init_params,
    load_model,
    lstm_forward,
    save_model,
    train,
)
from bpnet.segmentation import FEATURE_DIM, ChannelStats, DatasetSplit, Sequences


def _tiny_params(seed=0, hidden=4, input_dim=5):
    return init_params(seed, input_dim=input_dim, dense_units=hidden, hidden=hidden, output_dim=2)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params(7)
        b = init_params(7)
        for (_, xa), (_, xb) in zip(a.arrays(), b.arrays()):
            assert np.array_equal(xa, xb)

    def test_dense_glorot_bound(self):
        params = init_params(0)
        bound = math.sqrt(6.0 / (513 + 128))
        assert bound == pytest.approx(0.0967, abs=5e-4)
        assert np.max(np.abs(params.dense_w)) <= bound
        assert np.max(np.abs(params.dense_w)) > 0.9 * bound  # actually fills the range

    def test_forget_gate_bias_ones(self):
        params = init_params(3)
        h = params.hidden
        for cell in (params.fw, params.bw, params.lstm2):
            assert np.all(cell.b[h : 2 * h] == 1.0)
            assert np.all(cell.b[:h] == 0.0)
            assert np.all(cell.b[2 * h :] == 0.0)

    def test_parameter_count_reported(self):
        params = init_params(0)
        expected = (
            513 * 128 + 128
            + 2 * (128 * 512 + 128 * 512 + 512)
            + (256 * 512 + 128 * 512 + 512)
            + 128 * 2 + 2
        )
        assert params.count == expected


class TestFlatLayout:
    def test_arrays_are_views_into_flat(self):
        params = _tiny_params(seed=18)
        offset = 0
        for name, arr in params.arrays():
            assert np.shares_memory(arr, params.flat), name
            arr.ravel()[0] = 1234.5  # writes through, as the gradient checks rely on
            assert params.flat[offset] == 1234.5, name
            offset += arr.size
        assert offset == params.flat.size == params.count

    def test_flat_is_declaration_order(self):
        params = _tiny_params(seed=19)
        joined = np.concatenate([arr.ravel() for _, arr in params.arrays()])
        assert np.array_equal(joined, params.flat)
        assert [name for name, _ in params.arrays()] == [
            "dense_w", "dense_b", "fw.wx", "fw.wh", "fw.b", "bw.wx", "bw.wh", "bw.b",
            "lstm2.wx", "lstm2.wh", "lstm2.b", "head_w", "head_b",
        ]

    def test_copy_is_independent(self):
        params = _tiny_params(seed=20)
        dup = params.copy()
        dup.fw.wh[0, 0] += 1.0
        assert dup.fw.wh[0, 0] != params.fw.wh[0, 0]
        assert not np.shares_memory(dup.flat, params.flat)

    def test_gradients_land_in_one_flat_vector(self, rng):
        params = _tiny_params(seed=21)
        _, cache = forward_batch(params, rng.standard_normal((2, 3, 5)))
        grads, _ = backward_batch(params, cache, rng.standard_normal((2, 3, 2)))
        for name, arr in grads.arrays():
            assert np.shares_memory(arr, grads.flat), name
        assert gradient_norm(grads) == pytest.approx(np.linalg.norm(grads.flat), rel=1e-14)


class TestForward:
    def test_zero_params_zero_outputs(self, rng):
        params = _tiny_params().zeros_like()
        out, _ = forward_batch(params, rng.standard_normal((6, 5))[None])
        assert np.array_equal(out[0], np.zeros((6, 2)))

    @pytest.mark.parametrize("m", [1, 10, 32])
    def test_output_shape(self, m, rng):
        params = _tiny_params()
        out, _ = forward_batch(params, rng.standard_normal((m, 5))[None])
        assert out[0].shape == (m, 2)

    def test_scalar_lstm_hand_oracle(self):
        # One unit, one step, x = 1, all gate weights 1, biases 0:
        # h = sigmoid(1) * tanh(sigmoid(1) * tanh(1)).
        w = LstmWeights(np.ones((1, 4)), np.ones((1, 4)), np.zeros(4))
        h, _ = lstm_forward(np.array([[[1.0]]]), w)
        sig = 1.0 / (1.0 + math.exp(-1.0))
        expected = sig * math.tanh(sig * math.tanh(1.0))
        assert h[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_bidirectional_reversal_symmetry(self, rng):
        # Reversing the input and swapping the directional cells time-reverses
        # the concatenated bidirectional output (with halves swapped).
        params = _tiny_params(seed=11)
        x = rng.standard_normal((1, 7, 5))
        _, cache = forward_batch(params, x)

        swapped = params.copy()
        swapped.fw, swapped.bw = swapped.bw, swapped.fw
        _, cache_rev = forward_batch(swapped, x[:, ::-1])

        h = params.hidden
        bi = cache.bi_out[:, 0]  # bi_out is time-major (M, B, 2H)
        bi_rev = cache_rev.bi_out[:, 0]
        assert np.max(np.abs(bi_rev[::-1, h:] - bi[:, :h])) <= 1e-10
        assert np.max(np.abs(bi_rev[::-1, :h] - bi[:, h:])) <= 1e-10

    def test_non_finite_input_rejected(self):
        params = _tiny_params()
        x = np.zeros((2, 5))
        x[1, 3] = np.inf
        with pytest.raises(ModelError, match="non-finite"):
            forward_batch(params, x[None])

    @pytest.mark.parametrize("bad_step", [0, 2, 4])
    def test_non_finite_activation_names_first_step_and_layer(self, rng, bad_step):
        w = _tiny_params(seed=16).lstm2
        inputs = rng.standard_normal((5, 3, 8))  # time-major (M, B, Din)
        inputs[bad_step, 1, 2] = np.nan
        with pytest.raises(NonFiniteActivation) as info:
            lstm_forward(inputs, w, "second lstm")
        assert info.value.step == bad_step
        assert info.value.layer == "second lstm"
        assert f"step {bad_step} in second lstm" in str(info.value)


class TestBackward:
    def test_zero_loss_zero_grads(self, rng):
        params = _tiny_params(seed=2)
        seq = rng.standard_normal((4, 5))
        out, cache = forward_batch(params, seq[None])
        grads, loss = backward_batch(params, cache, out.copy())
        assert loss == 0.0
        assert gradient_norm(grads) == 0.0

    def test_loss_quadratic_scaling(self, rng):
        params = _tiny_params(seed=3)
        seq = rng.standard_normal((4, 5))
        out, cache = forward_batch(params, seq[None])
        delta = rng.standard_normal((4, 2))
        _, loss1 = backward_batch(params, cache, out + delta)
        _, loss2 = backward_batch(params, cache, out + 2 * delta)
        assert loss2 == pytest.approx(4 * loss1, rel=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        # Central-difference oracle, h = 1e-5, scale-aware relative error.
        h = 1e-5
        worst = 0.0
        checked = 0
        for hidden in (2, 4):
            for m in (1, 3):
                params = _tiny_params(seed=hidden * 10 + m, hidden=hidden)
                seq = rng.standard_normal((m, 5))
                tgt = 3.0 * rng.standard_normal((m, 2))
                _, cache = forward_batch(params, seq[None])
                grads, _ = backward_batch(params, cache, tgt[None])
                gmax = max(np.max(np.abs(a)) for _, a in grads.arrays())

                def loss_of():
                    out, _ = forward_batch(params, seq[None])
                    return float(np.mean((out - tgt) ** 2))

                for (_, garr), (_, parr) in zip(grads.arrays(), params.arrays()):
                    flat_g, flat_p = garr.ravel(), parr.ravel()
                    for i in rng.choice(flat_p.size, size=min(6, flat_p.size), replace=False):
                        orig = flat_p[i]
                        flat_p[i] = orig + h
                        lp = loss_of()
                        flat_p[i] = orig - h
                        lm = loss_of()
                        flat_p[i] = orig
                        fd = (lp - lm) / (2 * h)
                        rel = abs(flat_g[i] - fd) / max(abs(fd), abs(flat_g[i]), 1e-4 * gmax)
                        worst = max(worst, rel)
                        checked += 1
        assert checked >= 100
        assert worst <= 1e-5

    def test_batch_loss_is_mean_of_singles(self, rng):
        params = _tiny_params(seed=4)
        x = rng.standard_normal((3, 4, 5))
        y = rng.standard_normal((3, 4, 2))
        _, cache = forward_batch(params, x)
        _, loss_all = backward_batch(params, cache, y)
        singles = []
        for i in range(3):
            _, ci = forward_batch(params, x[i : i + 1])
            _, li = backward_batch(params, ci, y[i : i + 1])
            singles.append(li)
        assert loss_all == pytest.approx(np.mean(singles), rel=1e-12)

    def test_batch_permutation_invariant(self, rng):
        params = _tiny_params(seed=5)
        x = rng.standard_normal((4, 3, 5))
        y = rng.standard_normal((4, 3, 2))
        _, c1 = forward_batch(params, x)
        _, l1 = backward_batch(params, c1, y)
        perm = rng.permutation(4)
        _, c2 = forward_batch(params, x[perm])
        _, l2 = backward_batch(params, c2, y[perm])
        assert l1 == pytest.approx(l2, rel=1e-12)


class TestClip:
    def test_below_cap_unchanged(self, rng):
        grads = _tiny_params(seed=6)
        norm = gradient_norm(grads)
        clipped = clip_gradient_norm(grads, norm + 1.0)
        assert clipped is grads

    def test_scaling_to_cap(self):
        grads = _tiny_params(seed=7).zeros_like()
        grads.dense_w[0, 0] = 6.0
        clipped = clip_gradient_norm(grads, 3.0)
        assert clipped.dense_w[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert gradient_norm(clipped) == pytest.approx(3.0, abs=1e-12)

    def test_direction_preserved(self, rng):
        grads = _tiny_params(seed=8)
        clipped = clip_gradient_norm(grads, 0.5 * gradient_norm(grads))
        dot = sum(
            float(np.sum(a * b))
            for (_, a), (_, b) in zip(grads.arrays(), clipped.arrays())
        )
        cos = dot / (gradient_norm(grads) * gradient_norm(clipped))
        assert cos == pytest.approx(1.0, abs=1e-12)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = _tiny_params(seed=9).zeros_like()
        grads = params.zeros_like()
        grads.head_b[0] = 0.5
        grads.head_b[1] = -0.01
        state = AdamState.for_params(params)
        new_params, new_state = adam_step(params, grads, state, lr=0.001)
        assert new_params.head_b[0] == pytest.approx(-0.001, abs=1e-6)
        assert new_params.head_b[1] == pytest.approx(0.001, abs=1e-6)
        assert new_state.step == 1

    def test_zero_gradient_keeps_params(self):
        params = _tiny_params(seed=10)
        before = params.copy()
        state = AdamState.for_params(params)
        new_params, _ = adam_step(params, params.zeros_like(), state)
        for (_, a), (_, b) in zip(before.arrays(), new_params.arrays()):
            assert np.array_equal(a, b)

    def test_in_place_update_matches_textbook(self, rng):
        params = _tiny_params(seed=17)
        state = AdamState.for_params(params)
        p = params.flat.copy()
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 6):
            grads = params.zeros_like()
            grads.flat[:] = rng.standard_normal(p.size)
            new_params, new_state = adam_step(params, grads, state, lr=lr)
            assert new_params is params and new_state is state
            m = b1 * m + (1 - b1) * grads.flat
            v = b2 * v + (1 - b2) * grads.flat**2
            p = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert state.step == t
            np.testing.assert_allclose(params.flat, p, rtol=0, atol=1e-14)
            np.testing.assert_allclose(state.m.flat, m, rtol=0, atol=1e-14)
            np.testing.assert_allclose(state.v.flat, v, rtol=0, atol=1e-14)

    def test_deterministic_trajectories(self, rng):
        x = rng.standard_normal((2, 3, 5))
        y = rng.standard_normal((2, 3, 2))

        def run():
            params = _tiny_params(seed=12)
            state = AdamState.for_params(params)
            for _ in range(5):
                _, cache = forward_batch(params, x)
                grads, _ = backward_batch(params, cache, y)
                params, state = adam_step(params, grads, state)
            return params

        a, b = run(), run()
        for (_, xa), (_, xb) in zip(a.arrays(), b.arrays()):
            assert np.array_equal(xa, xb)


def _toy_dataset(rng, count=8, m=4, input_dim=5):
    vectors = np.ones((count * m, FEATURE_DIM))
    vectors[:, :512] = rng.standard_normal((count * m, 512))
    targets = np.column_stack([rng.uniform(100, 140, count * m), rng.uniform(60, 90, count * m)])
    samples = Sequences(vectors, targets, np.arange(count) * m, np.full(count, "p"), np.arange(count), m)
    stats = ChannelStats(0.0, 1.0, 0.0, 1.0)
    return DatasetSplit(samples, samples, samples, stats)


class TestTrain:
    def test_loss_decreases_and_best_epoch_selected(self, rng):
        dataset = _toy_dataset(rng)
        config = TrainConfig(batch_size=8, max_epochs=30, patience=30, seed=1)
        params, history = train(dataset, config)
        assert history.val_loss[history.best_epoch] == pytest.approx(min(history.val_loss))
        assert history.train_loss[-1] < history.train_loss[0]

    def test_fixed_seed_identical_runs(self, rng):
        dataset = _toy_dataset(rng)
        config = TrainConfig(batch_size=8, max_epochs=5, patience=10, seed=3)
        p1, h1 = train(dataset, config)
        p2, h2 = train(dataset, config)
        assert h1.train_loss == h2.train_loss
        for (_, a), (_, b) in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_empty_partition_rejected(self, rng):
        dataset = _toy_dataset(rng)
        empty = DatasetSplit(dataset.train[:0], dataset.validation, dataset.test, dataset.stats)
        with pytest.raises(ModelError, match="non-empty"):
            train(empty, TrainConfig())


def _tiny_model(seed: int, m: int = 6) -> TrainedModel:
    return TrainedModel(_tiny_params(seed=seed), m=m, stats=ChannelStats(0.0, 1.0, 0.0, 1.0))


class TestPredict:
    def test_inference_deterministic_and_finite(self, rng):
        model = _tiny_model(seed=13)
        seq = rng.standard_normal((6, 5))
        a = model.predict(seq)
        b = model.predict(seq)
        assert (a.sbp, a.dbp) == (b.sbp, b.dbp)
        assert np.isfinite(a.sbp) and np.isfinite(a.dbp)

    def test_final_step_is_returned(self, rng):
        model = _tiny_model(seed=14)
        seq = rng.standard_normal((6, 5))
        out, _ = forward_batch(model.params, seq[None])
        pair = model.predict(seq)
        assert pair.sbp == out[0, -1, 0]
        assert pair.dbp == out[0, -1, 1]

    def test_single_predict_is_batch_row_bit_for_bit(self, rng):
        model = _tiny_model(seed=17)
        x = rng.standard_normal((3, 6, 5))
        for seq in x:
            pair = model.predict(seq)
            row = model.predict_batch(seq[None])[0]
            assert (pair.sbp, pair.dbp) == (row[0], row[1])

    def test_predict_batch_rejects_non_finite_estimate(self, rng):
        model = _tiny_model(seed=18)
        model.params.head_b[1] = np.inf
        with pytest.raises(ModelError, match="non-finite prediction"):
            model.predict_batch(rng.standard_normal((2, 6, 5)))

    def test_trained_model_checks_m(self, rng):
        params = _tiny_params(seed=15)
        model = TrainedModel(params, m=6, stats=ChannelStats(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ModelError, match="M=6"):
            model.predict(rng.standard_normal((4, 5)))


class TestModelFile:
    def test_roundtrip_bit_identical(self, tmp_path, rng):
        params = init_params(21, input_dim=513)
        model = TrainedModel(params, m=10, stats=ChannelStats(0.1, 2.0, -0.3, 1.5))
        path = tmp_path / "model.bpnet"
        save_model(model, path)
        assert path.read_bytes()[:6] == b"BPNET1"
        loaded = load_model(path)
        assert loaded.m == 10
        assert loaded.stats.ppg_std == 1.5
        for (_, a), (_, b) in zip(params.arrays(), loaded.params.arrays()):
            assert np.array_equal(a, b)
        # Re-saving reproduces the bytes exactly.
        path2 = tmp_path / "model2.bpnet"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path, unwritable):
        path = tmp_path / "model.bpnet"
        stats = ChannelStats(0.0, 1.0, 0.0, 1.0)
        save_model(TrainedModel(_tiny_params(seed=1), m=4, stats=stats), path)
        before = path.read_bytes()
        params = _tiny_params(seed=2)
        # The header is written before the parameter payload fails.
        failing = TrainedModel(ModelParams(params.dims, unwritable(params.flat)), m=4, stats=stats)
        with pytest.raises(OSError, match="no space"):
            save_model(failing, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bpnet"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bpnet"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ModelError, match="magic"):
            load_model(path)

    def test_payload_is_the_flat_vector(self, tmp_path):
        params = _tiny_params(seed=22)
        path = tmp_path / "model.bpnet"
        save_model(TrainedModel(params, m=4, stats=ChannelStats(0.0, 1.0, 0.0, 1.0)), path)
        payload = path.read_bytes()[6 + 20 + 32 :]
        assert payload == params.flat.astype("<f8").tobytes()

    @pytest.fixture()
    def model_bytes(self, tmp_path):
        path = tmp_path / "model.bpnet"
        save_model(TrainedModel(_tiny_params(seed=23), m=4, stats=ChannelStats(0.0, 1.0, 0.0, 1.0)), path)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "cut, match",
        [(6 + 10, "truncated model header"), (6 + 20 + 32 + 8, "payload"), (-8, "payload")],
        ids=["header", "payload", "last-value"],
    )
    def test_truncated_file_raises_model_error(self, tmp_path, model_bytes, cut, match):
        path = tmp_path / "cut.bpnet"
        path.write_bytes(model_bytes[:cut])
        with pytest.raises(ModelError, match=match):
            load_model(path)

    def test_zero_dimension_raises_model_error(self, tmp_path, model_bytes):
        path = tmp_path / "zero.bpnet"
        hidden_at = 6 + 3 * 4  # magic, then uint32 M, input dim, dense units, hidden
        path.write_bytes(model_bytes[:hidden_at] + b"\x00" * 4 + model_bytes[hidden_at + 4 :])
        with pytest.raises(ModelError, match="positive"):
            load_model(path)

    def test_trailing_bytes_raise_model_error(self, tmp_path, model_bytes):
        path = tmp_path / "long.bpnet"
        path.write_bytes(model_bytes + b"\x00" * 8)
        with pytest.raises(ModelError, match="payload"):
            load_model(path)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_any_truncation_raises_model_error(self, tmp_path, model_bytes, cut):
        path = tmp_path / "cut.bpnet"
        path.write_bytes(model_bytes[: int(cut * len(model_bytes))])
        with pytest.raises(ModelError):
            load_model(path)

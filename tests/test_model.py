import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bpnet import model as bpmodel
from bpnet.config import PipelineConfig
from bpnet.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPS,
    INFER_CHUNK,
    AdamState,
    LstmWeights,
    ModelError,
    ModelParams,
    NonFiniteActivation,
    StepArena,
    TrainedModel,
    TrainingDiverged,
    _outputs,
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
        # The second LSTM's inputs are the time-major (M, B, 2H) bidirectional output.
        bi = cache.lstm2_cache.inputs.reshape(7, 1, -1)[:, 0]
        bi_rev = cache_rev.lstm2_cache.inputs.reshape(7, 1, -1)[:, 0]
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

    def test_scales_in_place_into_a_new_object(self):
        grads = _tiny_params(seed=37)
        before = grads.flat.copy()
        norm = gradient_norm(grads)
        clipped = clip_gradient_norm(grads, 0.5 * norm)
        assert clipped is not grads
        assert clipped.flat is grads.flat
        assert _same_bits(grads.flat, before * (0.5 * norm / norm))


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

    def test_chunked_update_equals_whole_vector_operations(self, rng):
        dims = (764, 125, 4, 2)  # 100,003 parameters: three chunk boundaries and a short last chunk
        params = ModelParams(dims, rng.standard_normal(100_003))
        grads = ModelParams(dims, rng.standard_normal(100_003))
        state = AdamState(ModelParams(dims, rng.standard_normal(100_003)), ModelParams(dims, rng.random(100_003)), step=4)
        assert params.count // ADAM_CHUNK == 3 and params.count % ADAM_CHUNK
        p, g, m, v = params.flat.copy(), grads.flat, state.m.flat.copy(), state.v.flat.copy()
        lr, b1, b2, eps = 0.003, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        adam_step(params, grads, state, lr)
        # The unchunked sequence, operation for operation.
        bc1, bc2 = 1.0 - b1**5, 1.0 - b2**5
        tmp = np.empty_like(p)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, tmp, out=tmp)
        tmp *= lr / bc1
        p -= tmp
        assert _same_bits(params.flat, p)
        assert _same_bits(state.m.flat, m) and _same_bits(state.v.flat, v)

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


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStepArena:
    def test_smaller_batches_through_one_arena_match_fresh_calls(self, rng):
        params = init_params(30)
        arena = StepArena(params.dims, 32, 10)
        for b in (1, 9, 17, 32):
            x = rng.standard_normal((b, 10, FEATURE_DIM))
            y = 100.0 + 10.0 * rng.standard_normal((b, 10, 2))
            out, cache = forward_batch(params, x, arena)
            grads, loss = backward_batch(params, cache, y)
            ref_out, ref_cache = forward_batch(params, x)
            ref_grads, ref_loss = backward_batch(params, ref_cache, y)
            assert _same_bits(out, ref_out), b
            assert loss == ref_loss, b
            assert _same_bits(grads.flat, ref_grads.flat), b
            assert np.shares_memory(grads.flat, arena.buf) and np.shares_memory(out, arena.buf)

    def test_batch_larger_than_arena_rejected(self, rng):
        params = _tiny_params(seed=31)
        arena = StepArena(params.dims, 4, 3)
        with pytest.raises(ModelError, match="does not fit"):
            forward_batch(params, rng.standard_normal((5, 3, 5)), arena)

    def test_warm_step_allocates_under_1_mb(self, rng):
        assert _warm_step_traced_peak(rng) < 1_000_000


def _warm_step_traced_peak(rng) -> int:
    """Traced peak bytes of a B=32, M=10 training step through a warm arena."""
    params = init_params(32)
    state = AdamState.for_params(params)
    arena = StepArena(params.dims, 32, 10)
    x = rng.standard_normal((32, 10, FEATURE_DIM))
    y = 100.0 + 10.0 * rng.standard_normal((32, 10, 2))

    def step():
        _, cache = forward_batch(params, x, arena)
        grads, _ = backward_batch(params, cache, y)
        adam_step(params, clip_gradient_norm(grads, 3.0), state)

    step()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _use_lane(monkeypatch, on: bool) -> None:
    """Run the step's second half on the helper lane (on) or inline after the first (off)."""
    monkeypatch.setattr(bpmodel, "_lanes_pay", lambda: on)


class TestHelperLane:
    @pytest.mark.parametrize(
        "dims, b, m",
        [((FEATURE_DIM, 128, 128, 2), 32, 10), ((5, 4, 4, 2), 3, 6)],
        ids=["full-b32-m10", "tiny"],
    )
    def test_lane_and_inline_step_bit_equal(self, rng, monkeypatch, dims, b, m):
        params = init_params(40, *dims)
        x = rng.standard_normal((b, m, dims[0]))
        y = 100.0 + 10.0 * rng.standard_normal((b, m, 2))
        runs = []
        for on in (False, True):
            _use_lane(monkeypatch, on)
            out, cache = forward_batch(params, x)
            grads, loss = backward_batch(params, cache, y)
            runs.append((out, cache.bw_cache.hidden, grads.flat, cache.views["d_dense"], loss))
        (out0, bw0, g0, d0, loss0), (out1, bw1, g1, d1, loss1) = runs
        assert _same_bits(out0, out1) and _same_bits(bw0, bw1)
        assert _same_bits(g0, g1) and _same_bits(d0, d1)
        assert loss0 == loss1

    def test_backward_direction_runs_on_the_helper_thread(self, rng, monkeypatch):
        seen, caller = [], threading.current_thread()
        for name in ("_lstm_layer", "_bptt"):
            original = getattr(bpmodel, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                seen.append((_name, threading.current_thread() is caller))
                return _original(*args, **kwargs)

            monkeypatch.setattr(bpmodel, name, spy)
        _use_lane(monkeypatch, True)
        params = _tiny_params(seed=41)
        _, cache = forward_batch(params, rng.standard_normal((2, 4, 5)))
        backward_batch(params, cache, rng.standard_normal((2, 4, 2)))
        # fw and lstm2 forward, fw BPTT (through lstm_backward) and lstm2 BPTT stay here.
        assert sorted(seen) == [("_bptt", False), ("_bptt", True), ("_bptt", True),
                                ("_lstm_layer", False), ("_lstm_layer", True), ("_lstm_layer", True)]

    @pytest.mark.parametrize("n", [1_000, 2 * ADAM_CHUNK, 3 * ADAM_CHUNK + 17], ids=["below", "multiple", "ragged"])
    def test_adam_halves_bit_equal(self, rng, monkeypatch, n):
        dims = (n - 43, 1, 1, 1)  # n parameters
        start = [rng.standard_normal(n) for _ in range(3)] + [rng.random(n)]
        results = []
        for on in (False, True):
            _use_lane(monkeypatch, on)
            params, grads, m, v = (ModelParams(dims, a.copy()) for a in start)
            state = AdamState(m, v, step=2)
            adam_step(params, grads, state, 0.003)
            results.append((params.flat, state.m.flat, state.v.flat, state.step))
        (p0, m0, v0, t0), (p1, m1, v1, t1) = results
        assert _same_bits(p0, p1) and _same_bits(m0, m1) and _same_bits(v0, v1) and t0 == t1 == 3

    @pytest.mark.parametrize("on", [False, True], ids=["inline", "lane"])
    @pytest.mark.parametrize(
        "cells, layer", [(("bw",), "backward lstm"), (("fw", "bw"), "forward lstm")], ids=["bw", "both"]
    )
    def test_non_finite_direction_raises_as_in_serial_order(self, rng, monkeypatch, on, cells, layer):
        _use_lane(monkeypatch, on)
        params = _tiny_params(seed=42)
        for cell in cells:
            getattr(params, cell).wh[0, 0] = np.nan
        with pytest.raises(NonFiniteActivation) as info:
            forward_batch(params, rng.standard_normal((3, 5, 5)))
        # Step 0 has no recurrent product; the NaN weight first acts at step 1.
        assert (info.value.step, info.value.layer) == (1, layer)

    @pytest.mark.parametrize("cell", ["fw", "bw"])
    def test_lane_is_joined_before_an_error_reaches_the_caller(self, rng, monkeypatch, cell):
        _use_lane(monkeypatch, True)
        done = []
        original = bpmodel._lstm_layer

        def slow_backward_direction(*args, **kwargs):
            if args[2] == "backward lstm":
                time.sleep(0.05)  # still running when the forward direction raises
                try:
                    return original(*args, **kwargs)
                finally:
                    done.append(True)
            return original(*args, **kwargs)

        monkeypatch.setattr(bpmodel, "_lstm_layer", slow_backward_direction)
        params = init_params(43)
        arena = StepArena(params.dims, 4, 10)
        bad = params.copy()
        getattr(bad, cell).wh[0, 0] = np.nan
        with pytest.raises(NonFiniteActivation):
            forward_batch(bad, rng.standard_normal((4, 10, FEATURE_DIM)), arena)
        assert done == [True]

        x = rng.standard_normal((4, 10, FEATURE_DIM))
        y = 100.0 + 10.0 * rng.standard_normal((4, 10, 2))
        out, cache = forward_batch(params, x, arena)
        grads, loss = backward_batch(params, cache, y)
        ref_out, ref_cache = forward_batch(params, x, StepArena(params.dims, 4, 10))
        ref_grads, ref_loss = backward_batch(params, ref_cache, y)
        assert _same_bits(out, ref_out) and _same_bits(grads.flat, ref_grads.flat) and loss == ref_loss

    def test_warm_step_with_the_lane_allocates_under_1_mb(self, rng, monkeypatch):
        _use_lane(monkeypatch, True)
        assert _warm_step_traced_peak(rng) < 1_000_000


def _step_bits(params: ModelParams, x: np.ndarray, y: np.ndarray) -> list:
    """Outputs, loss, every gradient, the clipped gradient, and the parameters and moments after Adam."""
    params = params.copy()
    state = AdamState.for_params(params)
    out, cache = forward_batch(params, x)
    grads, loss = backward_batch(params, cache, y)
    raw = grads.flat.copy()
    adam_step(params, clip_gradient_norm(grads, 3.0), state)
    return [out.tobytes(), loss, raw.tobytes(), grads.flat.tobytes(),
            params.flat.tobytes(), state.m.flat.tobytes(), state.v.flat.tobytes()]


def _lane_and_inline(monkeypatch, run):
    results = []
    for on in (False, True):
        _use_lane(monkeypatch, on)
        results.append(run())
    return results


class TestHalvesSweep:
    """A split runs only where the BLAS keeps the bits; on some libraries row
    halves change them at some batch sizes (B 2, 3 and 10-19 on OpenBLAS
    0.3.31's SkylakeX kernels), and an epoch's last batch may have any size."""

    @pytest.mark.parametrize("m, b", [(10, b) for b in range(1, 34)] + [(m, b) for m in (1, 2) for b in (1, 3, 12, 32)])
    def test_step_bits_with_and_without_the_lane(self, rng, monkeypatch, m, b):
        params = init_params(50)
        x = rng.standard_normal((b, m, FEATURE_DIM))
        y = 100.0 + 10.0 * rng.standard_normal((b, m, 2))
        inline, lane = _lane_and_inline(monkeypatch, lambda: _step_bits(params, x, y))
        assert inline == lane

    @pytest.mark.parametrize("n", [1, 2, 3, 4, INFER_CHUNK, INFER_CHUNK + 1, 255, 256, 257, 300])
    def test_inference_bits_with_and_without_the_lane(self, rng, monkeypatch, n):
        params = init_params(51)
        x = rng.standard_normal((n, 10, FEATURE_DIM))
        inline, lane = _lane_and_inline(monkeypatch, lambda: _outputs(params, x).tobytes())
        assert inline == lane


class TestLaneMechanics:
    def test_probe_refuses_single_rows_and_runs_once_per_shape(self):
        assert not bpmodel._halves_exact(1, 64, 64)
        shape = (7, 11, 13, True, False)  # no layer has this shape
        before = bpmodel._halves_exact.cache_info()
        first = bpmodel._halves_exact(*shape)
        assert bpmodel._halves_exact(*shape) is first
        after = bpmodel._halves_exact.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)

    def test_without_the_probe_every_product_runs_whole(self, rng, monkeypatch):
        params = init_params(52)
        x = rng.standard_normal((8, 10, FEATURE_DIM))
        y = 100.0 + 10.0 * rng.standard_normal((8, 10, 2))
        inline = _lane_and_inline(monkeypatch, lambda: _step_bits(params, x, y))[0]
        calls, original = [], bpmodel._halves

        def spy(n, fn, *products):
            def record(lo, hi):
                calls.append((lo, hi, n, bool(products)))
                fn(lo, hi)

            original(n, record, *products)

        monkeypatch.setattr(bpmodel, "_halves", spy)
        monkeypatch.setattr(bpmodel, "_halves_exact", lambda *shape, threads: False)
        _use_lane(monkeypatch, True)
        assert _step_bits(params, x, y) == inline
        products = [call for call in calls if call[3]]
        assert products and all((lo, hi) == (0, n) for lo, hi, n, _ in products)
        # Elementwise work (the clip's scale, a bias gradient) has no product to probe.
        half = params.count // 2
        assert {(0, half), (half, params.count)} <= {(lo, hi) for lo, hi, _, has in calls if not has}

    def test_a_pair_inside_a_pair_runs_inline_on_either_thread(self, monkeypatch):
        _use_lane(monkeypatch, True)
        seen = []

        def inner(side):
            def half(lo, hi):
                seen.append((side, lo, hi, threading.current_thread().name))

            bpmodel._halves(4, half)
            return bpmodel._side_by_side(lambda: side, lambda: side)

        results = []
        worker = threading.Thread(
            target=lambda: results.append(bpmodel._side_by_side(lambda: inner("mine"), lambda: inner("theirs"))),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "a nested pair deadlocked"
        assert results == [(("mine", "mine"), ("theirs", "theirs"))]
        mine = [(lo, hi, name) for side, lo, hi, name in seen if side == "mine"]
        theirs = [(lo, hi, name) for side, lo, hi, name in seen if side == "theirs"]
        assert mine == [(0, 4, worker.name)]
        assert theirs == [(0, 4, "bpnet-lane")]

    def test_two_training_threads_each_get_serial_bits(self, rng, monkeypatch):
        params = init_params(53)
        batches = [(rng.standard_normal((b, 10, FEATURE_DIM)), 100.0 + 10.0 * rng.standard_normal((b, 10, 2)))
                   for b in (32, 17, 32, 9)]

        def run(order):
            return [_step_bits(params, *batches[i]) for i in order]

        _use_lane(monkeypatch, False)
        serial = [run((0, 1, 2, 3)), run((3, 2, 1, 0))]
        _use_lane(monkeypatch, True)
        results = [None, None]

        def train_in_thread(slot, order):
            results[slot] = run(order)

        threads = [threading.Thread(target=train_in_thread, args=(slot, order), daemon=True)
                   for slot, order in enumerate([(0, 1, 2, 3), (3, 2, 1, 0)])]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller-half", "lane-half"])
    def test_an_error_in_either_half_arrives_after_both_finished(self, monkeypatch, failing):
        _use_lane(monkeypatch, True)
        finished = []

        def half(lo, hi):
            if lo == 2 * failing:
                raise ValueError(f"half {failing}")
            time.sleep(0.05)
            finished.append((lo, hi))

        with pytest.raises(ValueError, match=f"half {failing}"):
            bpmodel._halves(4, half)
        assert finished == [(2 - 2 * failing, 4 - 2 * failing)]
        # The lane is free again: the next pair runs on it.
        names = bpmodel._side_by_side(lambda: threading.current_thread().name,
                                      lambda: threading.current_thread().name)
        assert names == (threading.current_thread().name, "bpnet-lane")

    def test_a_failing_probe_frees_the_lane(self, monkeypatch):
        _use_lane(monkeypatch, True)

        def probe(*shape, threads):
            raise TypeError("probe failed")

        monkeypatch.setattr(bpmodel, "_halves_exact", probe)
        with pytest.raises(TypeError, match="probe failed"):
            bpmodel._halves(4, lambda lo, hi: None, (4, 3, 2))
        lane = bpmodel._claim_lane()
        assert lane is not None, "the lane stayed claimed after its probe raised"
        lane.lock.release()

    def test_the_lane_keeps_nothing_a_finished_pair_closed_over(self, monkeypatch):
        _use_lane(monkeypatch, True)

        def run_pair():
            block = np.ones(1000)

            def half(lo, hi):
                block[lo:hi] *= 2.0

            bpmodel._halves(block.size, half)
            assert (block == 2.0).all()
            return weakref.ref(block)

        ref = run_pair()
        assert ref() is None


class TestInference:
    @pytest.mark.parametrize("n", [1, 33, INFER_CHUNK, 256, 300])
    def test_outputs_equal_forward_batch_bit_for_bit(self, rng, n):
        # Against forward_batch chunk by chunk: one whole-n forward is not the
        # reference, since a 1-sequence tail chunk takes another BLAS path.
        model = TrainedModel(init_params(33), m=10, stats=ChannelStats(0.0, 1.0, 0.0, 1.0))
        x = rng.standard_normal((n, 10, FEATURE_DIM))

        def chunked():
            return np.concatenate([forward_batch(model.params, x[lo : lo + INFER_CHUNK])[0]
                                   for lo in range(0, n, INFER_CHUNK)])

        assert _same_bits(_outputs(model.params, x), chunked())
        with bpmodel._one_blas_thread:  # the thread count predict_batch runs at
            expected = chunked()
        assert _same_bits(model.predict_batch(x), expected[:, -1, :])

    def test_predict_batch_of_no_sequences(self, rng):
        dataset = _toy_dataset(rng, count=8, m=4)
        model = TrainedModel(init_params(37, input_dim=FEATURE_DIM), m=4, stats=dataset.stats)
        for empty in (dataset.test[:0], np.empty((0, 4, FEATURE_DIM))):
            assert model.predict_batch(empty).shape == (0, 2)

    def test_forward_batch_gathers_sequences_like_their_input_array(self, rng):
        dataset = _toy_dataset(rng, count=40, m=4)
        params = init_params(38, input_dim=FEATURE_DIM)
        seqs = dataset.train[rng.permutation(40)[:17]]
        out, cache = forward_batch(params, seqs)
        ref_out, ref_cache = forward_batch(params, seqs.input_array())
        assert _same_bits(out, ref_out) and _same_bits(cache.x, ref_cache.x)

    def test_sequences_of_another_width_rejected(self, rng):
        dataset = _toy_dataset(rng, count=8, m=4)
        model = TrainedModel(init_params(39, input_dim=FEATURE_DIM - 1), m=4, stats=dataset.stats)
        with pytest.raises(ModelError, match=f"expected \\(B, M, {FEATURE_DIM - 1}\\) input"):
            model.predict_batch(dataset.test)

    def test_outputs_gather_sequences_like_their_input_array(self, rng):
        dataset = _toy_dataset(rng, count=300, m=4)
        params = init_params(34, input_dim=FEATURE_DIM)
        seqs = dataset.validation[rng.permutation(300)]
        assert _same_bits(_outputs(params, seqs), _outputs(params, seqs.input_array()))

    def test_predict_batch_takes_sequences_like_their_input_array(self, rng):
        dataset = _toy_dataset(rng, count=300, m=4)
        model = TrainedModel(init_params(34, input_dim=FEATURE_DIM), m=4, stats=dataset.stats)
        seqs = dataset.test[rng.permutation(300)]
        assert _same_bits(model.predict_batch(seqs), model.predict_batch(seqs.input_array()))
        with pytest.raises(ModelError, match="M=4"):
            TrainedModel(model.params, m=5, stats=dataset.stats).predict_batch(seqs)

    def test_predict_batch_peak_memory_over_1000_sequences(self, rng):
        model = TrainedModel(init_params(35), m=10, stats=ChannelStats(0.0, 1.0, 0.0, 1.0))
        x = rng.standard_normal((1000, 10, FEATURE_DIM))
        tracemalloc.start()
        try:
            model.predict_batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 27_000_000  # a third of the 81.4 MB the training cache took

    def test_non_finite_input_rejected(self, rng):
        x = rng.standard_normal((3, 6, 5))
        x[2, 4, 1] = np.nan
        with pytest.raises(ModelError, match="non-finite input"):
            _tiny_model(seed=36).predict_batch(x)


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
        config = PipelineConfig(batch_size=8, max_epochs=30, patience=30, seed=1)
        params, history = train(dataset, config)
        assert history.val_loss[history.best_epoch] == pytest.approx(min(history.val_loss))
        assert history.train_loss[-1] < history.train_loss[0]

    def test_fixed_seed_identical_runs(self, rng):
        dataset = _toy_dataset(rng)
        config = PipelineConfig(batch_size=8, max_epochs=5, patience=10, seed=3)
        p1, h1 = train(dataset, config)
        p2, h2 = train(dataset, config)
        assert h1.train_loss == h2.train_loss
        for (_, a), (_, b) in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_one_arena_serves_steps_and_validation(self, rng, monkeypatch):
        built = []

        class CountedArena(StepArena):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(args)

        monkeypatch.setattr(bpmodel, "StepArena", CountedArena)
        train(_toy_dataset(rng, count=20), PipelineConfig(batch_size=8, max_epochs=2, patience=5, seed=4))
        assert built == [((FEATURE_DIM, 128, 128, 2), 8, 4)]

    def test_empty_partition_rejected(self, rng):
        dataset = _toy_dataset(rng)
        empty = DatasetSplit(dataset.train[:0], dataset.validation, dataset.test, dataset.stats)
        with pytest.raises(ModelError, match="non-empty"):
            train(empty, PipelineConfig())


@pytest.fixture()
def two_blas_threads():
    """numpy's OpenBLAS at two threads, set through the symbol the pin uses; reset afterwards."""
    blas = bpmodel._openblas_num_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    found = blas[0]()
    blas[1](2)
    try:
        if bpmodel.blas_threads() != 2:
            pytest.skip("OpenBLAS does not take a second thread here")
        yield
    finally:
        blas[1](found)


class TestBlasPin:
    CONFIG = PipelineConfig(batch_size=8, max_epochs=2, patience=5, seed=4)

    def test_train_runs_one_thread_and_restores_the_count(self, rng, monkeypatch, two_blas_threads):
        seen, forward = [], bpmodel.forward_batch

        def spy(*args):
            seen.append(bpmodel.blas_threads())
            return forward(*args)

        monkeypatch.setattr(bpmodel, "forward_batch", spy)
        dataset = _toy_dataset(rng)
        model = TrainedModel(train(dataset, self.CONFIG)[0], m=4, stats=dataset.stats)
        assert bpmodel.blas_threads() == 2
        model.predict_batch(dataset.test)
        assert bpmodel.blas_threads() == 2
        assert seen and set(seen) == {1}

    def test_a_diverging_train_restores_the_count(self, rng, two_blas_threads):
        dataset = _toy_dataset(rng)
        dataset.train.targets[:] = 1e200  # the squared error overflows
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
            train(dataset, self.CONFIG)
        assert bpmodel.blas_threads() == 2

    def test_threads_training_at_once_share_the_pin(self, rng, two_blas_threads):
        dataset = _toy_dataset(rng, count=20)
        serial = train(dataset, self.CONFIG)[0].flat.tobytes()
        results = []
        workers = [threading.Thread(target=lambda: results.append(train(dataset, self.CONFIG)[0].flat.tobytes()),
                                    daemon=True) for _ in range(3)]  # more threads than a two-CPU machine has
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert results == [serial] * 3  # a pin released early would let BLAS threading change bits
        assert bpmodel.blas_threads() == 2

    def test_without_openblas_the_pin_warns_once_and_sets_nothing(self, rng, monkeypatch):
        monkeypatch.setattr(bpmodel, "_openblas_num_threads", lambda: None)  # a numpy without OpenBLAS
        monkeypatch.setattr(bpmodel._one_blas_thread, "warned", False)
        dataset = _toy_dataset(rng)
        with pytest.warns(RuntimeWarning, match="unpinned") as caught:
            params = train(dataset, self.CONFIG)[0]
            TrainedModel(params, m=4, stats=dataset.stats).predict_batch(dataset.test)
            train(dataset, self.CONFIG)
        assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
        assert bpmodel._one_blas_thread.restore is None and bpmodel._one_blas_thread.inside == 0


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

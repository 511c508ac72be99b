"""Hierarchical dense + recurrent sequence regressor, built from scratch.

Architecture per time step: a time-distributed fully connected layer with
ReLU lifts each 513-feature vector to 128 units; a bidirectional LSTM
(forward and backward cells, outputs concatenated) models temporal context;
a second LSTM stacks on top; a linear head projects each step to (SBP, DBP).

Everything runs in double precision numpy: exact backpropagation through
time, global gradient-norm clipping, and bias-corrected Adam run in place.
All shapes are parametric so that tiny instances can be verified against
finite differences.

All parameters live in one contiguous float64 vector (``ModelParams.flat``,
BPNET1 declaration order); the named weights are views into it, so norms,
clipping, Adam and the model file are whole-vector operations.  Activations
are time-major, (M, B, .), inside the model.  Backpropagation through time
keeps only the recurrent product in the time loop and gets input and weight
gradients from one matrix product over all steps (Appleyard, Kocisky &
Blunsom, "Optimizing Performance of Recurrent Neural Networks on GPUs", 2016).

A training step lives in one caller-owned buffer, a `StepArena`: the forward
caches, the backward scratch and every gradient are views into it, so a step
allocates no activation arrays (as cuDNN's workspace and reserve space do;
Chetlur et al., "cuDNN: Efficient Primitives for Deep Learning", 2014).
Inference runs the same LSTM time loop without the backward cache.

When numpy's OpenBLAS runs each product on one thread and a second CPU is
free, independent halves of the work run side by side on one helper thread:
the backward LSTM direction beside the forward one, in both passes, and half
of Adam's update; the dense layer, the second LSTM, the clip's scale and the
inference time loops by row or batch halves.  A product is split by rows only
where a one-time probe shows that the BLAS gives the halves the bits of the
whole product (`_halves_exact`), so the bits are those of the serial order.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import queue
import struct
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

import numpy as np

from bpnet.atomic import atomic_open
from bpnet.segmentation import FEATURE_DIM, ChannelStats, DatasetSplit, Sequences

DENSE_UNITS = 128
HIDDEN_UNITS = 128
OUTPUT_DIM = 2

MODEL_MAGIC = b"BPNET1"
# Magic, uint32 M / input dim / dense units / hidden units / output dim, then
# four float64 channel statistics; the float64 parameter payload follows.
MODEL_HEADER = struct.Struct("<6s5I4d")


class ModelError(ValueError):
    pass


class NonFiniteActivation(ModelError):
    """Forward pass overflowed; carries the offending step index."""

    def __init__(self, step: int, layer: str):
        super().__init__(f"non-finite activation at step {step} in {layer}")
        self.step = step
        self.layer = layer


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class LstmWeights:
    """One cell's parameters; gate order [input | forget | cell | output]."""

    wx: np.ndarray  # (input_dim, 4H)
    wh: np.ndarray  # (H, 4H)
    b: np.ndarray   # (4H,)

    @property
    def hidden(self) -> int:
        return self.wh.shape[0]


def param_shapes(input_dim: int, dense_units: int, hidden: int, output_dim: int) -> list[tuple[str, tuple]]:
    """(name, shape) of every parameter array, in BPNET1 declaration order."""
    gates = 4 * hidden
    shapes = [("dense_w", (input_dim, dense_units)), ("dense_b", (dense_units,))]
    for cell, cell_in in (("fw", dense_units), ("bw", dense_units), ("lstm2", 2 * hidden)):
        shapes += [(f"{cell}.wx", (cell_in, gates)), (f"{cell}.wh", (hidden, gates)), (f"{cell}.b", (gates,))]
    return shapes + [("head_w", (hidden, output_dim)), ("head_b", (output_dim,))]


def param_count(dims: tuple[int, int, int, int]) -> int:
    return sum(math.prod(shape) for _, shape in param_shapes(*dims))


class ModelParams:
    """Every weight as a named view into one contiguous float64 vector.

    ``dims`` is (input_dim, dense_units, hidden, output_dim).  ``flat`` holds
    the parameters in :func:`param_shapes` order, zeros when not given; the
    attributes ``dense_w``, ``fw.wx``, ..., ``head_b`` are reshaped views into
    it, so a write through either is seen by the other.
    """

    def __init__(self, dims: tuple[int, int, int, int], flat: Optional[np.ndarray] = None):
        self.dims = tuple(dims)
        shapes = param_shapes(*self.dims)
        self.flat = np.zeros(param_count(self.dims)) if flat is None else flat
        views = {}
        offset = 0
        for name, shape in shapes:
            n = math.prod(shape)
            views[name] = self.flat[offset : offset + n].reshape(shape)
            offset += n
        self.dense_w, self.dense_b = views["dense_w"], views["dense_b"]
        self.fw, self.bw, self.lstm2 = (
            LstmWeights(views[f"{cell}.wx"], views[f"{cell}.wh"], views[f"{cell}.b"])
            for cell in ("fw", "bw", "lstm2")
        )
        self.head_w, self.head_b = views["head_w"], views["head_b"]

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, attrgetter(name)(self)) for name, _ in param_shapes(*self.dims)]

    def copy(self) -> "ModelParams":
        return ModelParams(self.dims, self.flat.copy())

    def zeros_like(self) -> "ModelParams":
        return ModelParams(self.dims)

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def hidden(self) -> int:
        return self.dims[2]

    @property
    def count(self) -> int:
        return self.flat.size


@dataclass
class TrainConfig:
    batch_size: int = 128
    learning_rate: float = 0.001
    grad_cap: float = 3.0  # 3.0 for M=10 runs, 5.0 for M=32 runs
    max_epochs: int = 300
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.grad_cap <= 0:
            raise ModelError(f"gradient cap must be positive, got {self.grad_cap}")
        if self.batch_size < 1:
            raise ModelError(f"batch size must be >= 1, got {self.batch_size}")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(
    seed: int,
    input_dim: int = FEATURE_DIM,
    dense_units: int = DENSE_UNITS,
    hidden: int = HIDDEN_UNITS,
    output_dim: int = OUTPUT_DIM,
) -> ModelParams:
    """Glorot-uniform weights, zero biases except LSTM forget gates at 1."""
    rng = np.random.default_rng(seed)
    params = ModelParams((input_dim, dense_units, hidden, output_dim))
    params.dense_w[...] = _glorot(rng, input_dim, dense_units, params.dense_w.shape)
    for cell in (params.fw, params.bw, params.lstm2):
        # Glorot per gate block; forget-gate bias starts at 1.
        cell.wx[...] = _glorot(rng, cell.wx.shape[0], hidden, cell.wx.shape)
        cell.wh[...] = _glorot(rng, hidden, hidden, cell.wh.shape)
        cell.b[hidden : 2 * hidden] = 1.0
    params.head_w[...] = _glorot(rng, hidden, output_dim, params.head_w.shape)
    return params


@functools.lru_cache(maxsize=1)
def _openblas_num_threads():
    """numpy's bundled OpenBLAS `get_num_threads`, or None when numpy ships no such library."""
    package = os.path.dirname(np.__file__)
    # Wheels keep their shared libraries in numpy.libs beside the package (Linux,
    # Windows) or in numpy/.dylibs (macOS); loading one again returns the loaded copy.
    for path in sorted(glob.glob(os.path.join(package + ".libs", "*openblas*"))
                       + glob.glob(os.path.join(package, ".dylibs", "*openblas*"))):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_int
        return fn
    return None


def blas_threads() -> Optional[int]:
    """Threads numpy's bundled OpenBLAS runs one product on; None when it is not found.

    Training sums in an order that depends on this count, so it decides the
    trained model's bits.
    """
    fn = _openblas_num_threads()
    return None if fn is None else int(fn())


def _lanes_pay() -> bool:
    """Whether the helper lane speeds a step up: BLAS runs each product on one
    thread, so a second CPU this process may run on would otherwise idle."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return blas_threads() == 1 and cpus >= 2


class _Lane:
    """One daemon helper thread fed through a queue; `lock` is held by the pair using it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()  # (task, the queue its reply goes to)
        threading.Thread(target=self._serve, name="bpnet-lane", daemon=True).start()

    def _serve(self) -> None:
        while True:
            task, replies = self.tasks.get()
            try:
                reply = (task(), None)
            except BaseException as exc:
                reply = (None, exc)
            # Hold neither across the wait for the next task: each may keep a
            # whole step's buffers alive.
            del task
            replies.put(reply)
            del reply, replies


_LANE_START = threading.Lock()
_lane: Optional[_Lane] = None


def _claim_lane() -> Optional[_Lane]:
    """The process's helper lane, locked for this caller, or None when it does not pay or is busy.

    The lane starts on first use (again in a forked child).  A busy lane is
    never waited for: a pair inside a pair, on either thread, or a pair on a
    second Python thread, runs inline instead.
    """
    global _lane
    if not _lanes_pay():
        return None
    with _LANE_START:
        if _lane is None or _lane.pid != os.getpid():
            _lane = _Lane()
        lane = _lane
    return lane if lane.lock.acquire(blocking=False) else None


def _beside(lane: _Lane, mine, theirs):
    """(mine(), theirs()), `theirs` on the claimed `lane`, which is released once it has finished."""
    # One reply queue per pair, so a reply that an interrupted wait missed reaches no later pair.
    replies: queue.SimpleQueue = queue.SimpleQueue()
    try:
        lane.tasks.put((theirs, replies))
        try:
            result = mine()
        finally:
            theirs_result, error = replies.get()  # waits; an error in mine wins
    finally:
        lane.lock.release()
    if error is not None:
        raise error
    return result, theirs_result


def _side_by_side(mine, theirs):
    """(mine(), theirs()), with `theirs` on the helper lane while this thread runs `mine`.

    Without the lane (see `_claim_lane`) both run here, `mine` first.  Either
    way `theirs` has finished before this returns or raises, and an error in
    `mine` wins over one in `theirs`, as in the serial order.  `theirs` must
    call no public function of this module, whose calls a tracer may wrap.
    """
    lane = _claim_lane()
    return (mine(), theirs()) if lane is None else _beside(lane, mine, theirs)


@functools.lru_cache(maxsize=256)
def _halves_exact(m: int, k: int, n: int, a_transposed: bool = False, b_transposed: bool = False) -> bool:
    """Whether BLAS gives an (m, k) @ (k, n) product the same bits whole and as two row halves.

    A transposed operand is the transpose of a C-ordered array, as ``x.T``
    is.  The answer depends on the shape and layout, not the values (the
    library may pick another kernel, and so another summation order, for
    fewer rows), so random operands of exactly that shape decide it once.
    """
    if m < 2:
        return False
    rng = np.random.default_rng(0)
    a = rng.standard_normal((k, m)).T if a_transposed else rng.standard_normal((m, k))
    b = rng.standard_normal((n, k)).T if b_transposed else rng.standard_normal((k, n))
    whole, halves = np.matmul(a, b), np.empty((m, n))
    np.matmul(a[: m // 2], b, out=halves[: m // 2])
    np.matmul(a[m // 2 :], b, out=halves[m // 2 :])
    return np.array_equal(whole.view(np.int64), halves.view(np.int64))


def _halves(n: int, fn, *products) -> None:
    """fn(0, n // 2) and fn(n // 2, n) side by side, or fn(0, n) whole.

    The halves run only when the helper lane is free and every listed product
    (m, k, n, a_transposed, b_transposed) that `fn` splits by rows passes
    `_halves_exact`, so a lane never decides a bit.  `fn` must call no public
    function of this module.
    """
    lane = _claim_lane() if n >= 2 else None
    if lane is not None and not all(_halves_exact(*p) for p in products):
        lane.lock.release()
        lane = None
    if lane is None:
        fn(0, n)
    else:
        _beside(lane, lambda: fn(0, n // 2), lambda: fn(n // 2, n))


def _extent(regions: list[tuple[str, tuple]]) -> int:
    """Elements `regions` take end to end, each rounded up to 64 bytes."""
    return sum(-(-math.prod(shape) // 8) * 8 for _, shape in regions)


def _carve(buf: np.ndarray, regions: list[tuple[str, tuple]]) -> dict[str, np.ndarray]:
    """Views of `buf` for (name, shape) regions laid end to end, as `_extent` counts them."""
    views, at = {}, 0
    for name, shape in regions:
        n = math.prod(shape)
        views[name] = buf[at : at + n].reshape(shape)
        at += -(-n // 8) * 8
    return views


_CACHE_FIELDS = ("gates", "cells", "tanh_c", "hidden")


def _step_regions(dims: tuple, b: int, m: int) -> list[tuple[str, tuple]]:
    """What one training step of b sequences of m steps keeps, in arena order."""
    d_in, units, hidden, out = dims
    mb, gates = m * b, 4 * hidden
    regions = [
        ("grads", (param_count(dims),)),  # first, so the gradient vector never moves
        ("x", (mb, d_in)),               # time-major input rows
        ("dense", (mb, units)),          # ReLU output: the forward LSTM's inputs
        ("rev", (m, b, units)),          # the same, time-reversed: the backward LSTM's inputs
        ("bi", (m, b, 2 * hidden)),      # bidirectional output: the second LSTM's inputs
    ]
    for cell in ("fw", "bw", "lstm2"):
        regions += [(f"{cell}.gates", (m, b, gates))]
        regions += [(f"{cell}.{name}", (m, b, hidden)) for name in _CACHE_FIELDS[1:]]
    return regions + [
        ("head", (m, b, out)),
        ("outputs", (b, m, out)),
        # Backward scratch, used by one layer at a time; `tmp` also holds the
        # forward's per-step recurrent product.
        ("coef", (m, b, gates)),
        ("dc_dh", (m, b, hidden)),
        ("tmp", (b, gates)),
        # The same for the backward direction, which may run beside the forward
        # one; its dc_dh is d_h2, dead once the second LSTM's BPTT has run.
        ("bw.coef", (m, b, gates)),
        ("bw.tmp", (b, gates)),
        # Each layer's input gradient.
        ("d_h2", (m, b, hidden)),
        ("d_bi", (m, b, 2 * hidden)),
        ("d_dense", (m, b, units)),
        ("d_bw", (m, b, units)),
    ]


class StepArena:
    """One float64 buffer holding a training step for up to `batch` sequences of `m` steps.

    `forward_batch` carves the input rows, the dense activations, the three
    LSTM caches and the outputs from it; `backward_batch` writes the gradient
    vector (``grads``), each layer's input gradient and its scratch into it
    with ``out=``, so nothing is zeroed.  A smaller batch takes the leading
    part of the buffer.  A cache, its outputs and its gradients stay valid
    until the next `forward_batch` on the same arena; a second
    `backward_batch` on one cache rewrites the gradients.
    """

    def __init__(self, dims: tuple[int, int, int, int], batch: int, m: int):
        self.dims = tuple(dims)
        self.buf = np.empty(_extent(_step_regions(self.dims, batch, m)))
        self.grads = ModelParams(self.dims, self.buf[: param_count(self.dims)])

    def views(self, b: int, m: int) -> dict[str, np.ndarray]:
        regions = _step_regions(self.dims, b, m)
        if _extent(regions) > self.buf.size:
            raise ModelError(f"a batch of {b} sequences of {m} steps does not fit this arena")
        return _carve(self.buf, regions)


@dataclass
class LstmCache:
    inputs: np.ndarray  # (M*B, Din) time-major rows
    gates: np.ndarray   # (M, B, 4H) post-activation
    cells: np.ndarray   # (M, B, H)
    tanh_c: np.ndarray  # (M, B, H) tanh of the cells
    hidden: np.ndarray  # (M, B, H)


@functools.lru_cache(maxsize=4)
def _gate_affine(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(z) = 0.5 tanh(z / 2) + 0.5 on the i, f, o blocks; tanh on g: (scale, shift)."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
    shift = 1.0 - scale
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _lstm_layer(x2, w: LstmWeights, layer: str, gates, cells, tanh_c, hidden, tmp, split_input=False) -> None:
    """One LSTM direction over time-major rows `x2` (M*B, Din).

    The input product of every step goes into `gates` (M, B, 4H) at once, by
    row halves when `split_input`; the time loop activates it in place, by
    batch halves.  Step t writes ``hidden[t]``, ``cells[t % len(cells)]`` and
    ``tanh_c[t % len(tanh_c)]``: training keeps every step for the backward
    pass, inference passes two cell rows and one tanh row.  `tmp` is (B, 4H)
    scratch.
    """
    M, B, _ = gates.shape
    H = w.hidden
    g2 = gates.reshape(M * B, 4 * H)

    def project(lo, hi):
        np.matmul(x2[lo:hi], w.wx, out=g2[lo:hi])
        g2[lo:hi] += w.b

    if split_input:
        _halves(M * B, project, (M * B, x2.shape[1], 4 * H))
    else:
        project(0, M * B)
    scale, shift = _gate_affine(H)

    def steps(lo, hi):
        r = tmp[lo:hi]
        for t in range(M):
            z, c = gates[t, lo:hi], cells[t % len(cells), lo:hi]
            if t:
                np.matmul(hidden[t - 1, lo:hi], w.wh, out=r)
                z += r
            z *= scale
            np.tanh(z, out=z)
            z *= scale
            z += shift
            np.multiply(z[:, :H], z[:, 2 * H : 3 * H], out=c)
            if t:
                np.multiply(z[:, H : 2 * H], cells[(t - 1) % len(cells), lo:hi], out=r[:, :H])
                c += r[:, :H]
            tc = tanh_c[t % len(tanh_c), lo:hi]
            np.tanh(c, out=tc)
            np.multiply(z[:, 3 * H :], tc, out=hidden[t, lo:hi])

    _halves(B, steps, (B, H, 4 * H))
    finite = np.isfinite(hidden).reshape(M, -1).all(axis=1)
    if not finite.all():
        raise NonFiniteActivation(int(np.argmin(finite)), layer)


def lstm_forward(
    inputs: np.ndarray, w: LstmWeights, layer: str = "lstm", out=None, tmp=None
) -> tuple[np.ndarray, LstmCache]:
    """Run one LSTM direction over time-major (M, B, Din) inputs, keeping its backward cache.

    `out` holds the cache's (gates, cells, tanh_c, hidden) buffers and `tmp`
    (B, 4H) scratch; both are allocated when not given.
    """
    M, B, d_in = inputs.shape
    H = w.hidden
    if out is None:
        out = (np.empty((M, B, 4 * H)), *np.empty((3, M, B, H)))
    if tmp is None:
        tmp = np.empty((B, 4 * H))
    cache = LstmCache(inputs.reshape(M * B, d_in), *out)
    _lstm_layer(cache.inputs, w, layer, cache.gates, cache.cells, cache.tanh_c, cache.hidden, tmp, split_input=True)
    return cache.hidden, cache


def lstm_backward(
    w: LstmWeights, cache: LstmCache, d_hidden: np.ndarray, grads: LstmWeights, scratch, d_inputs: np.ndarray
) -> np.ndarray:
    """BPTT through one direction for time-major (M, B, H) output gradients.

    Writes the weight gradients into `grads` and the input gradients into
    `d_inputs` (M, B, Din), which it returns.  `scratch` is (coef (M, B, 4H),
    dc_dh (M, B, H), rows (B, 4H)); dz is written over coef.
    """
    return _bptt(w, cache, d_hidden, grads, scratch, d_inputs)


def _bptt(w: LstmWeights, cache: LstmCache, d_hidden, grads: LstmWeights, scratch, d_inputs) -> np.ndarray:
    """lstm_backward's body, which the helper lane calls."""
    M, B, H = d_hidden.shape
    coef, dc_dh, rows = scratch
    wh_t = w.wh.T

    def steps(lo, hi):
        """BPTT for batch rows lo:hi; every row is independent until the weight gradients."""
        gates, cells, tanh_c = cache.gates[:, lo:hi], cache.cells[:, lo:hi], cache.tanh_c[:, lo:hi]
        dz, dc_h = coef[:, lo:hi], dc_dh[:, lo:hi]
        i, f, g, o = np.split(gates, 4, axis=2)
        # dz = [dc g i(1-i) | dc c_prev f(1-f) | dc i(1-g^2) | dh tanh(c) o(1-o)];
        # every factor beside dc and dh is known before the loop.  Two passes
        # over the whole block give i(1-i), f(1-f) and o(1-o); the g block is
        # rewritten.
        c_i, c_f, c_g, c_o = np.split(dz, 4, axis=2)
        np.subtract(1.0, gates, out=dz)
        dz *= gates
        c_i *= g
        c_f[0] = 0.0
        c_f[1:] *= cells[:-1]
        np.multiply(g, g, out=c_g)
        np.subtract(1.0, c_g, out=c_g)
        c_g *= i
        c_o *= tanh_c
        np.multiply(tanh_c, tanh_c, out=dc_h)
        np.subtract(1.0, dc_h, out=dc_h)
        dc_h *= o
        dz4 = dz.reshape(M, hi - lo, 4, H)

        dh, dc, dh_next, dc_next = rows.reshape(4, B, H)[:, lo:hi]
        dh_next.fill(0.0)  # the last step adds a zero carry, as +0.0 turns -0.0 into +0.0
        dc_next.fill(0.0)
        for t in range(M - 1, -1, -1):
            np.add(d_hidden[t, lo:hi], dh_next, out=dh)
            np.multiply(dh, dc_h[t], out=dc)
            dc += dc_next
            np.multiply(dc[:, None, :], dz4[t, :, :3], out=dz4[t, :, :3])
            np.multiply(dh, dz4[t, :, 3], out=dz4[t, :, 3])
            if t:
                np.matmul(dz[t], wh_t, out=dh_next)
                np.multiply(dc, f[t], out=dc_next)

    _halves(B, steps, (B, 4 * H, H, False, True))

    dz2 = coef.reshape(M * B, 4 * H)
    x2, h2 = cache.inputs, cache.hidden[:-1].reshape(-1, H)
    d_in = x2.shape[1]
    _halves(d_in, lambda lo, hi: np.matmul(x2[:, lo:hi].T, dz2, out=grads.wx[lo:hi]), (d_in, M * B, 4 * H, True))
    _halves(H, lambda lo, hi: np.matmul(h2[:, lo:hi].T, dz2[B:], out=grads.wh[lo:hi]), (H, h2.shape[0], 4 * H, True))
    _halves(4 * H, lambda lo, hi: np.sum(dz2[:, lo:hi], axis=0, out=grads.b[lo:hi]))
    d2 = d_inputs.reshape(M * B, -1)
    _halves(M * B, lambda lo, hi: np.matmul(dz2[lo:hi], w.wx.T, out=d2[lo:hi]), (M * B, 4 * H, d_in, False, True))
    return d_inputs


@dataclass
class ForwardCache:
    x: np.ndarray          # (M*B, input_dim) time-major rows
    dense: np.ndarray      # (M*B, dense_units) after the ReLU
    fw_cache: LstmCache
    bw_cache: LstmCache    # runs over the time-reversed sequence
    lstm2_cache: LstmCache
    outputs: np.ndarray    # (B, M, out)
    arena: StepArena
    views: dict            # the step's views into the arena


def _check_inputs(params: ModelParams, x: np.ndarray) -> None:
    if x.ndim != 3 or x.shape[2] != params.input_dim:
        raise ModelError(f"expected (B, M, {params.input_dim}) input, got {x.shape}")


def _dense_relu(params: ModelParams, x2: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.matmul(x2, params.dense_w, out=out)
    out += params.dense_b
    return np.maximum(out, 0.0, out=out)


def _head(params: ModelParams, h2: np.ndarray, out: np.ndarray) -> np.ndarray:
    # Stacked (M, B, H) @ (H, out): one (M*B, H) product would change the bits.
    np.matmul(h2, params.head_w, out=out)
    out += params.head_b
    return out


def forward_batch(
    params: ModelParams, x: np.ndarray, arena: Optional[StepArena] = None
) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass over a (B, M, input_dim) batch; outputs are (B, M, out).

    The outputs and the cache are views into `arena`, valid until the next
    forward_batch on it; without one, the call allocates its own.
    """
    _check_inputs(params, x)
    B, M, _ = x.shape
    if arena is None:
        arena = StepArena(params.dims, B, M)
    elif arena.dims != params.dims:
        raise ModelError(f"arena dims {arena.dims} do not match the parameters' {params.dims}")
    v = arena.views(B, M)
    H = params.hidden
    x2 = v["x"]
    np.copyto(x2.reshape(M, B, -1), x.transpose(1, 0, 2))
    if not np.isfinite(x2).all():
        raise ModelError("non-finite input features")
    dense = v["dense"]
    d_in, units = params.dense_w.shape
    _halves(M * B, lambda lo, hi: _dense_relu(params, x2[lo:hi], dense[lo:hi]), (M * B, d_in, units))

    def buffers(cell):
        return [v[f"{cell}.{name}"] for name in _CACHE_FIELDS]

    bw_cache = LstmCache(v["rev"].reshape(M * B, -1), *buffers("bw"))

    def backward_direction():
        np.copyto(v["rev"], dense.reshape(M, B, -1)[::-1])
        _lstm_layer(bw_cache.inputs, params.bw, "backward lstm", *buffers("bw"), v["bw.tmp"])

    (h_fw, fw_cache), _ = _side_by_side(
        lambda: lstm_forward(dense.reshape(M, B, -1), params.fw, "forward lstm", buffers("fw"), v["tmp"]),
        backward_direction,
    )
    bi = v["bi"]
    bi[:, :, :H] = h_fw
    bi[:, :, H:] = bw_cache.hidden[::-1]
    h2, lstm2_cache = lstm_forward(bi, params.lstm2, "second lstm", buffers("lstm2"), v["tmp"])
    outputs = v["outputs"]
    np.copyto(outputs, _head(params, h2, v["head"]).transpose(1, 0, 2))
    return outputs, ForwardCache(x2, dense, fw_cache, bw_cache, lstm2_cache, outputs, arena, v)


def backward_batch(
    params: ModelParams, cache: ForwardCache, targets: np.ndarray
) -> tuple[ModelParams, float]:
    """Exact gradients of the mean squared error over all steps and outputs.

    The gradients are the cache's arena's ``grads``, rewritten on each call.
    """
    y = cache.outputs
    if targets.shape != y.shape:
        raise ModelError(f"targets shape {targets.shape} does not match outputs {y.shape}")
    err = y - targets
    loss = float(np.mean(err * err))
    B, M, out_dim = y.shape
    H = params.hidden
    v = cache.views
    grads = cache.arena.grads

    d_y = (2.0 * err / err.size).transpose(1, 0, 2).reshape(M * B, out_dim)
    np.matmul(cache.lstm2_cache.hidden.reshape(M * B, H).T, d_y, out=grads.head_w)
    np.sum(d_y, axis=0, out=grads.head_b)
    d_h2 = v["d_h2"]
    np.matmul(d_y, params.head_w.T, out=d_h2.reshape(M * B, H))

    scratch = (v["coef"], v["dc_dh"], v["tmp"])
    d_bi = lstm_backward(params.lstm2, cache.lstm2_cache, d_h2, grads.lstm2, scratch, v["d_bi"])
    bw_scratch = (v["bw.coef"], d_h2, v["bw.tmp"])
    d_dense, d_bw = _side_by_side(
        lambda: lstm_backward(params.fw, cache.fw_cache, d_bi[:, :, :H], grads.fw, scratch, v["d_dense"]),
        lambda: _bptt(params.bw, cache.bw_cache, d_bi[::-1, :, H:], grads.bw, bw_scratch, v["d_bw"]),
    )
    d_dense += d_bw[::-1]

    d_pre = d_dense.reshape(M * B, -1)
    d_pre *= cache.dense > 0
    x2, (d_in, units) = cache.x, params.dense_w.shape
    _halves(d_in, lambda lo, hi: np.matmul(x2[:, lo:hi].T, d_pre, out=grads.dense_w[lo:hi]), (d_in, M * B, units, True))
    np.sum(d_pre, axis=0, out=grads.dense_b)
    return grads, loss


def gradient_norm(grads: ModelParams) -> float:
    return math.sqrt(float(np.dot(grads.flat, grads.flat)))


def clip_gradient_norm(grads: ModelParams, cap: float) -> ModelParams:
    """Scale all gradients by cap/norm when the global L2 norm exceeds cap.

    Returns `grads` itself when no scaling is needed; otherwise scales its
    buffer in place and returns a new object over that buffer.
    """
    if cap <= 0:
        raise ModelError(f"cap must be positive, got {cap}")
    norm = gradient_norm(grads)
    if norm <= cap:
        return grads
    scale, flat = cap / norm, grads.flat
    _halves(flat.size, lambda lo, hi: np.multiply(flat[lo:hi], scale, out=flat[lo:hi]))
    return ModelParams(grads.dims, flat)


@dataclass
class AdamState:
    m: ModelParams
    v: ModelParams
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(params.zeros_like(), params.zeros_like())


ADAM_CHUNK = 32768  # elements per pass of the update: 256 KB per operand, L2-sized


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, lr: float = 0.001
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update, in place; returns the same objects.

    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), ADAM_CHUNK elements at a time
    through a temporary chunk.  The two halves, split at a multiple of
    ADAM_CHUNK, may run side by side, each through its own chunk.
    """
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    n = params.flat.size
    chunks = np.empty((2, min(n, ADAM_CHUNK)))

    def update(start: int, stop: int, chunk: np.ndarray) -> None:
        for lo in range(start, stop, ADAM_CHUNK):
            p, g = params.flat[lo : lo + ADAM_CHUNK], grads.flat[lo : lo + ADAM_CHUNK]
            m, v = state.m.flat[lo : lo + ADAM_CHUNK], state.v.flat[lo : lo + ADAM_CHUNK]
            tmp = chunk[: p.size]
            m *= state.beta1
            m += np.multiply(g, 1.0 - state.beta1, out=tmp)
            v *= state.beta2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - state.beta2
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += state.eps
            np.divide(m, tmp, out=tmp)
            tmp *= lr / bc1
            p -= tmp

    half = min(n, max(1, round(n / (2 * ADAM_CHUNK))) * ADAM_CHUNK)  # the chunk boundary nearest n / 2
    _side_by_side(lambda: update(0, half, chunks[0]), lambda: update(half, n, chunks[1]))
    return params, state


INFER_CHUNK = 256  # sequences per inference forward, to bound activation memory


def _infer_regions(dims: tuple, n: int, m: int) -> list[tuple[str, tuple]]:
    """What an inference forward over n sequences of m steps keeps."""
    d_in, units, hidden, out = dims
    mn = m * n
    return [
        ("x", (mn * max(d_in, 4 * hidden),)),    # input rows, then each layer's gate block
        ("dense", (mn * max(units, hidden),)),  # ReLU output, then the second LSTM's hidden states
        ("bi", (m, n, 2 * hidden)),
        ("cells", (2, n, hidden)),
        ("tanh_c", (1, n, hidden)),
        ("tmp", (n * max(4 * hidden, units),)),
        ("head", (m, n, out)),
    ]


def _infer_chunk(params: ModelParams, v: dict, m: int, n: int) -> np.ndarray:
    """Time-major outputs (M, n, out) of the input rows in ``v["x"]``, keeping no backward cache.

    The arithmetic is forward_batch's, in the same order, so the bits match.
    """
    d_in, units, hidden, _ = params.dims
    mn = m * n
    dense = _dense_relu(params, v["x"][: mn * d_in].reshape(mn, d_in), v["dense"][: mn * units].reshape(mn, units))
    gates = v["x"][: mn * 4 * hidden].reshape(m, n, 4 * hidden)  # the input rows are dead
    tmp = v["tmp"][: n * 4 * hidden].reshape(n, 4 * hidden)
    bi = v["bi"]
    _lstm_layer(dense, params.fw, "forward lstm", gates, v["cells"], v["tanh_c"], bi[:, :, :hidden], tmp)
    # Reverse the steps in place for the backward direction's input product.
    dense3, row = dense.reshape(m, n, units), v["tmp"][: n * units].reshape(n, units)
    for t in range(m // 2):
        np.copyto(row, dense3[t])
        np.copyto(dense3[t], dense3[m - 1 - t])
        np.copyto(dense3[m - 1 - t], row)
    _lstm_layer(dense, params.bw, "backward lstm", gates, v["cells"], v["tanh_c"], bi[::-1, :, hidden:], tmp)
    h2 = v["dense"][: mn * hidden].reshape(m, n, hidden)  # the dense activations are dead
    _lstm_layer(bi.reshape(mn, 2 * hidden), params.lstm2, "second lstm", gates, v["cells"], v["tanh_c"], h2, tmp)
    return _head(params, h2, v["head"])


def _outputs(params: ModelParams, x) -> np.ndarray:
    """forward_batch outputs (N, M, out) for (N, M, input_dim) inputs or a Sequences.

    Runs INFER_CHUNK sequences at a time through one buffer, gathering each
    chunk time-major straight into it; the layers keep no backward cache.
    """
    if isinstance(x, Sequences):
        n, m, rows = len(x), x.m, x.rows()
    else:
        _check_inputs(params, x)
        n, m = x.shape[:2]
    d_in = params.input_dim
    buf = np.empty(_extent(_infer_regions(params.dims, min(n, INFER_CHUNK), m)))
    outputs = np.empty((n, m, params.dims[3]))
    for lo in range(0, n, INFER_CHUNK):
        b = min(INFER_CHUNK, n - lo)
        v = _carve(buf, _infer_regions(params.dims, b, m))
        xt = v["x"][: m * b * d_in].reshape(m, b, d_in)
        if isinstance(x, Sequences):
            # Row indices are in range (load_dataset checks them); "clip" writes unbuffered.
            np.take(x.vectors, rows[lo : lo + b].T, axis=0, out=xt, mode="clip")
        else:
            np.copyto(xt, x[lo : lo + b].transpose(1, 0, 2))
        if not np.isfinite(xt).all():
            raise ModelError("non-finite input features")
        np.copyto(outputs[lo : lo + b], _infer_chunk(params, v, m, b).transpose(1, 0, 2))
    return outputs


def _mean_loss(params: ModelParams, sequences: Sequences) -> float:
    y = sequences.target_array()
    return float(np.sum((_outputs(params, sequences) - y) ** 2)) / y.size


def train(dataset: DatasetSplit, config: TrainConfig) -> tuple[ModelParams, TrainHistory]:
    """Mini-batch training with gradient clipping, Adam, and early stopping.

    Weights start from ``init_params(config.seed)``.  Batches reshuffle each
    epoch under the seeded generator and are gathered from the shared row
    table one at a time; every step runs in one StepArena.  The parameters
    with the best validation MSE are returned together with the per-epoch
    loss history.
    """
    if not dataset.train or not dataset.validation:
        raise ModelError("train and validation partitions must be non-empty")

    rng = np.random.default_rng(config.seed)
    params = init_params(config.seed, input_dim=dataset.train.vectors.shape[1])
    state = AdamState.for_params(params)
    history = TrainHistory()
    best_val = np.inf
    best_params = params.copy()
    since_best = 0

    n = len(dataset.train)
    arena = StepArena(params.dims, min(n, config.batch_size), dataset.train.m)
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for bi, lo in enumerate(range(0, n, config.batch_size)):
            batch = dataset.train[order[lo : lo + config.batch_size]]
            try:
                outputs, cache = forward_batch(params, batch.input_array(), arena)
                grads, loss = backward_batch(params, cache, batch.target_array())
            except NonFiniteActivation as exc:
                raise TrainingDiverged(epoch, bi) from exc
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, bi)
            grads = clip_gradient_norm(grads, config.grad_cap)
            adam_step(params, grads, state, config.learning_rate)
            epoch_losses.append(loss)
        history.train_loss.append(float(np.mean(epoch_losses)))

        val = _mean_loss(params, dataset.validation)
        if not np.isfinite(val):
            raise TrainingDiverged(epoch, -1)
        history.val_loss.append(val)
        if val < best_val:
            best_val = val
            best_params = params.copy()
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    return best_params, history


@dataclass
class TargetPair:
    sbp: float
    dbp: float


@dataclass
class TrainedModel:
    """Inference bundle: weights plus the training-time configuration."""

    params: ModelParams
    m: int
    stats: ChannelStats

    def predict(self, sequence: np.ndarray) -> TargetPair:
        """Final-step (SBP, DBP) for one standardized (M, input_dim) sequence."""
        seq = np.asarray(sequence, dtype=float)
        if seq.ndim != 2 or seq.shape[0] != self.m:
            raise ModelError(f"sequence shape {seq.shape} does not match trained M={self.m}")
        return TargetPair(*self.predict_batch(seq[None])[0].tolist())

    def predict_batch(self, x) -> np.ndarray:
        """Final-step (SBP, DBP) rows for (N, M, input_dim) standardized sequences or a Sequences.

        A Sequences is gathered from its row table a chunk at a time, never M-fold as a whole.
        """
        m = x.m if isinstance(x, Sequences) else x.shape[1]
        if m != self.m:
            raise ModelError(f"batch M={m} does not match trained M={self.m}")
        estimates = _outputs(self.params, x)[:, -1, :]
        if not np.all(np.isfinite(estimates)):
            raise ModelError("non-finite prediction")
        return estimates


def save_model(model: TrainedModel, path) -> None:
    """Write the BPNET1 container atomically: magic, dims, channel stats, f64 payload."""
    p, s = model.params, model.stats
    with atomic_open(path) as fh:
        fh.write(MODEL_HEADER.pack(MODEL_MAGIC, model.m, *p.dims, s.ecg_mean, s.ecg_std, s.ppg_mean, s.ppg_std))
        fh.write(p.flat.astype("<f8").tobytes())


def load_model(path) -> TrainedModel:
    """Read a BPNET1 container; a malformed one raises ModelError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:6] != MODEL_MAGIC:
        raise ModelError(f"bad model magic {data[:6]!r}")
    if len(data) < MODEL_HEADER.size:
        raise ModelError(f"truncated model header: {len(data)} of {MODEL_HEADER.size} bytes")
    _, m, *dims, ecg_mean, ecg_std, ppg_mean, ppg_std = MODEL_HEADER.unpack_from(data)
    if m < 1 or min(dims) < 1:
        raise ModelError(f"model dimensions must be positive, got M={m}, dims {dims}")
    count = param_count(dims)
    payload = len(data) - MODEL_HEADER.size
    if payload != 8 * count:
        raise ModelError(f"model payload is {payload} bytes, its dims declare {8 * count}")
    flat = np.frombuffer(data, dtype="<f8", offset=MODEL_HEADER.size).astype(float)
    return TrainedModel(ModelParams(dims, flat), m, ChannelStats(ecg_mean, ecg_std, ppg_mean, ppg_std))

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
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

import numpy as np

from bpnet.atomic import atomic_open
from bpnet.segmentation import FEATURE_DIM, ChannelStats, DatasetSplit

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
        self.flat = np.zeros(sum(math.prod(shape) for _, shape in shapes)) if flat is None else flat
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


@dataclass
class LstmCache:
    inputs: np.ndarray  # (M*B, Din) time-major rows
    gates: np.ndarray   # (M, B, 4H) post-activation
    cells: np.ndarray   # (M, B, H)
    tanh_c: np.ndarray  # (M, B, H) tanh of the cells
    hidden: np.ndarray  # (M, B, H)


def lstm_forward(inputs: np.ndarray, w: LstmWeights, layer: str = "lstm") -> tuple[np.ndarray, LstmCache]:
    """Run one LSTM direction over time-major (M, B, Din) inputs."""
    M, B, d_in = inputs.shape
    H = w.hidden
    x2 = inputs.reshape(M * B, d_in)
    gates = (x2 @ w.wx + w.b).reshape(M, B, 4 * H)  # activated in place, step by step
    cells = np.empty((M, B, H))
    tanh_c = np.empty((M, B, H))
    hidden = np.empty((M, B, H))
    # sigmoid(z) = 0.5 tanh(z / 2) + 0.5 on the i, f, o blocks; tanh on g.
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H)
    shift = 1.0 - scale
    for t in range(M):
        z = gates[t]
        if t:
            z += hidden[t - 1] @ w.wh
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        np.multiply(z[:, :H], z[:, 2 * H : 3 * H], out=cells[t])
        if t:
            cells[t] += z[:, H : 2 * H] * cells[t - 1]
        np.tanh(cells[t], out=tanh_c[t])
        np.multiply(z[:, 3 * H :], tanh_c[t], out=hidden[t])
    finite = np.isfinite(hidden).reshape(M, -1).all(axis=1)
    if not finite.all():
        raise NonFiniteActivation(int(np.argmin(finite)), layer)
    return hidden, LstmCache(x2, gates, cells, tanh_c, hidden)


def lstm_backward(w: LstmWeights, cache: LstmCache, d_hidden: np.ndarray, grads: LstmWeights) -> np.ndarray:
    """BPTT through one direction for time-major (M, B, H) output gradients.

    Writes the weight gradients into `grads`; returns d_inputs (M, B, Din).
    """
    M, B, H = d_hidden.shape
    i, f, g, o = np.split(cache.gates, 4, axis=2)
    # dz = [dc g i(1-i) | dc c_prev f(1-f) | dc i(1-g^2) | dh tanh(c) o(1-o)];
    # every factor beside dc and dh is known before the loop.
    coef = np.empty_like(cache.gates)
    c_i, c_f, c_g, c_o = np.split(coef, 4, axis=2)
    np.multiply(g, i * (1.0 - i), out=c_i)
    c_f[0] = 0.0
    np.multiply(cache.cells[:-1], f[1:] * (1.0 - f[1:]), out=c_f[1:])
    np.multiply(i, 1.0 - g * g, out=c_g)
    np.multiply(cache.tanh_c, o * (1.0 - o), out=c_o)
    dc_dh = o * (1.0 - cache.tanh_c * cache.tanh_c)
    coef4 = coef.reshape(M, B, 4, H)

    dz = np.empty_like(coef)
    dz4 = dz.reshape(M, B, 4, H)
    wh_t = w.wh.T
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(M - 1, -1, -1):
        dh = d_hidden[t] + dh_next
        dc = dc_next + dh * dc_dh[t]
        np.multiply(dc[:, None, :], coef4[t, :, :3], out=dz4[t, :, :3])
        np.multiply(dh, coef4[t, :, 3], out=dz4[t, :, 3])
        if t:
            dh_next = dz[t] @ wh_t
            dc_next = dc * f[t]

    dz2 = dz.reshape(M * B, 4 * H)
    np.matmul(cache.inputs.T, dz2, out=grads.wx)
    np.matmul(cache.hidden[:-1].reshape(-1, H).T, dz2[B:], out=grads.wh)
    np.sum(dz2, axis=0, out=grads.b)
    return (dz2 @ w.wx.T).reshape(M, B, -1)


@dataclass
class ForwardCache:
    x: np.ndarray          # (M*B, input_dim) time-major rows
    dense_pre: np.ndarray  # (M*B, dense_units)
    fw_cache: LstmCache
    bw_cache: LstmCache    # runs over the time-reversed sequence
    lstm2_cache: LstmCache
    outputs: np.ndarray    # (B, M, out)


def forward_batch(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass over a (B, M, input_dim) batch; outputs are (B, M, out)."""
    if x.ndim != 3 or x.shape[2] != params.input_dim:
        raise ModelError(f"expected (B, M, {params.input_dim}) input, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ModelError("non-finite input features")
    B, M, _ = x.shape
    x2 = x.transpose(1, 0, 2).reshape(M * B, -1)
    dense_pre = x2 @ params.dense_w + params.dense_b
    dense_out = np.maximum(dense_pre, 0.0).reshape(M, B, -1)
    h_fw, fw_cache = lstm_forward(dense_out, params.fw, "forward lstm")
    h_bw_rev, bw_cache = lstm_forward(dense_out[::-1], params.bw, "backward lstm")
    bi_out = np.concatenate([h_fw, h_bw_rev[::-1]], axis=2)
    h2, lstm2_cache = lstm_forward(bi_out, params.lstm2, "second lstm")
    outputs = np.ascontiguousarray((h2 @ params.head_w + params.head_b).transpose(1, 0, 2))
    return outputs, ForwardCache(x2, dense_pre, fw_cache, bw_cache, lstm2_cache, outputs)


def backward_batch(
    params: ModelParams, cache: ForwardCache, targets: np.ndarray
) -> tuple[ModelParams, float]:
    """Exact gradients of the mean squared error over all steps and outputs."""
    y = cache.outputs
    if targets.shape != y.shape:
        raise ModelError(f"targets shape {targets.shape} does not match outputs {y.shape}")
    err = y - targets
    loss = float(np.mean(err * err))
    B, M, out_dim = y.shape
    H = params.hidden
    grads = params.zeros_like()

    d_y = (2.0 * err / err.size).transpose(1, 0, 2).reshape(M * B, out_dim)
    np.matmul(cache.lstm2_cache.hidden.reshape(M * B, H).T, d_y, out=grads.head_w)
    np.sum(d_y, axis=0, out=grads.head_b)
    d_h2 = (d_y @ params.head_w.T).reshape(M, B, H)

    d_bi = lstm_backward(params.lstm2, cache.lstm2_cache, d_h2, grads.lstm2)
    d_dense = lstm_backward(params.fw, cache.fw_cache, d_bi[:, :, :H], grads.fw)
    d_dense += lstm_backward(params.bw, cache.bw_cache, d_bi[::-1, :, H:], grads.bw)[::-1]

    d_pre = d_dense.reshape(M * B, -1) * (cache.dense_pre > 0)
    np.matmul(cache.x.T, d_pre, out=grads.dense_w)
    np.sum(d_pre, axis=0, out=grads.dense_b)
    return grads, loss


def gradient_norm(grads: ModelParams) -> float:
    return math.sqrt(float(np.dot(grads.flat, grads.flat)))


def clip_gradient_norm(grads: ModelParams, cap: float) -> ModelParams:
    """Scale all gradients by cap/norm when the global L2 norm exceeds cap.

    Returns `grads` itself when no scaling is needed, else a new object.
    """
    if cap <= 0:
        raise ModelError(f"cap must be positive, got {cap}")
    norm = gradient_norm(grads)
    if norm <= cap:
        return grads
    return ModelParams(grads.dims, grads.flat * (cap / norm))


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


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, lr: float = 0.001
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update, in place; returns the same objects.

    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), through one temporary vector.
    """
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    tmp = np.empty_like(p)
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
    return params, state


INFER_CHUNK = 256  # sequences per inference forward, to bound activation memory


def _outputs(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """forward_batch outputs, INFER_CHUNK sequences at a time."""
    chunks = range(0, x.shape[0], INFER_CHUNK)
    return np.concatenate([forward_batch(params, x[lo : lo + INFER_CHUNK])[0] for lo in chunks])


def _mean_loss(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum((_outputs(params, x) - y) ** 2)) / y.size


def train(dataset: DatasetSplit, config: TrainConfig) -> tuple[ModelParams, TrainHistory]:
    """Mini-batch training with gradient clipping, Adam, and early stopping.

    Weights start from ``init_params(config.seed)``.  Batches reshuffle each
    epoch under the seeded generator and are gathered from the shared row
    table one at a time; the parameters with the best validation MSE are
    returned together with the per-epoch loss history.
    """
    if not dataset.train or not dataset.validation:
        raise ModelError("train and validation partitions must be non-empty")
    x_val, y_val = dataset.validation.input_array(), dataset.validation.target_array()

    rng = np.random.default_rng(config.seed)
    params = init_params(config.seed, input_dim=dataset.train.vectors.shape[1])
    state = AdamState.for_params(params)
    history = TrainHistory()
    best_val = np.inf
    best_params = params.copy()
    since_best = 0

    n = len(dataset.train)
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for bi, lo in enumerate(range(0, n, config.batch_size)):
            batch = dataset.train[order[lo : lo + config.batch_size]]
            try:
                outputs, cache = forward_batch(params, batch.input_array())
                grads, loss = backward_batch(params, cache, batch.target_array())
            except NonFiniteActivation as exc:
                raise TrainingDiverged(epoch, bi) from exc
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, bi)
            grads = clip_gradient_norm(grads, config.grad_cap)
            adam_step(params, grads, state, config.learning_rate)
            epoch_losses.append(loss)
        history.train_loss.append(float(np.mean(epoch_losses)))

        val = _mean_loss(params, x_val, y_val)
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

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Final-step (SBP, DBP) rows for (N, M, input_dim) standardized sequences."""
        if x.shape[1] != self.m:
            raise ModelError(f"batch M={x.shape[1]} does not match trained M={self.m}")
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
    count = sum(math.prod(shape) for _, shape in param_shapes(*dims))
    payload = len(data) - MODEL_HEADER.size
    if payload != 8 * count:
        raise ModelError(f"model payload is {payload} bytes, its dims declare {8 * count}")
    flat = np.frombuffer(data, dtype="<f8", offset=MODEL_HEADER.size).astype(float)
    return TrainedModel(ModelParams(dims, flat), m, ChannelStats(ecg_mean, ecg_std, ppg_mean, ppg_std))

"""Tunable-Q wavelet transform filter bank.

Iterated two-channel filter bank implemented in the DFT domain.  Each level
splits its input into a highpass subband (kept) and a lowpass band (iterated).
The quality factor Q and redundancy r control the band geometry through

    beta  = 2 / (Q + 1)        highpass scaling
    alpha = 1 - beta / r       lowpass scaling

The transition between bands uses the frequency response of a 2-vanishing-
moment Daubechies filter, which makes analysis/synthesis an exact Parseval
frame: reconstruction of unmodified subbands reproduces the input to floating
point accuracy.  Signals are zero-extended to the next power of two
internally and truncated on synthesis.

Both directions work along the last axis, so a (K, N) stack of signals that
share one Q goes through every FFT and band copy in one call.  Each level's
geometry (lengths, bin counts, transition weights) is computed once per
(padded length, Q, r, J) and kept in a bounded cache.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class TqwtError(ValueError):
    """Invalid parameters, geometry mismatch, or unusable input signal."""


@dataclass(frozen=True)
class TqwtParams:
    """Filter-bank configuration: quality factor, redundancy, level count."""

    q: float
    r: float = 3.0
    levels: int = 10

    def __post_init__(self) -> None:
        if self.q < 1.0:
            raise TqwtError(f"quality factor must be >= 1, got {self.q}")
        if self.r <= 1.0:
            raise TqwtError(f"redundancy must be > 1, got {self.r}")
        if self.levels < 1:
            raise TqwtError(f"levels must be >= 1, got {self.levels}")

    @property
    def beta(self) -> float:
        return 2.0 / (self.q + 1.0)

    @property
    def alpha(self) -> float:
        return 1.0 - self.beta / self.r

    def min_signal_length(self) -> int:
        """Smallest (pre-padding) length whose final lowpass keeps >= 8 samples.

        The lowpass length depends only on the padded length, a power of two,
        so the search doubles; the answer is the shortest length that pads to
        the first padded length that works.
        """
        scale = self.alpha**self.levels
        if scale == 0.0:
            raise TqwtError(f"{self.levels} levels leave no lowpass band at Q={self.q}")
        k = 3
        while 2 * round(math.ldexp(scale, k) / 2) < 8:
            k += 1
        return 8 if k == 3 else 2 ** (k - 1) + 1


@dataclass
class SubbandSet:
    """Highpass subbands for levels 1..J plus the final lowpass residual.

    Each band holds one row per transformed signal: shape (n,) for a single
    signal, (K, n) for a stack of K signals.
    """

    highpass: list[np.ndarray]
    lowpass: np.ndarray
    n_signal: int
    n_padded: int

    @property
    def levels(self) -> int:
        return len(self.highpass)


def _theta(v: np.ndarray) -> np.ndarray:
    # Daubechies 2-vanishing-moment frequency response on [0, pi];
    # theta(v)^2 + theta(pi - v)^2 = 1 gives exact reconstruction.
    return 0.5 * (1.0 + np.cos(v)) * np.sqrt(2.0 - np.cos(v))


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _level_lengths(n_padded: int, alpha: float, beta: float, level: int) -> tuple[int, int, int]:
    """(input, lowpass, highpass) lengths at `level`, all even.

    Lengths derive from the original padded length to avoid rounding drift
    across levels.
    """
    n_in = n_padded if level == 1 else 2 * round(alpha ** (level - 1) * n_padded / 2)
    n_lo = 2 * round(alpha**level * n_padded / 2)
    n_hi = 2 * round(beta * alpha ** (level - 1) * n_padded / 2)
    return n_in, n_lo, n_hi


class _Stage(NamedTuple):
    """One level's band geometry: lengths, passband and transition bin counts,
    and the transition weights in both directions."""

    n_in: int
    n_lo: int
    n_hi: int
    p: int
    t: int
    trans: np.ndarray
    rev: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(n_padded: int, params: TqwtParams) -> tuple[_Stage, ...]:
    """Every level's geometry for one padded length; bounded because callers
    may ask for any Q."""
    stages = []
    for level in range(1, params.levels + 1):
        n, n_lo, n_hi = _level_lengths(n_padded, params.alpha, params.beta, level)
        p = (n - n_hi) // 2
        t = (n_lo + n_hi - n) // 2 - 1
        if p < 0 or t < 0:
            raise TqwtError(f"degenerate band geometry (n={n}, n_lo={n_lo}, n_hi={n_hi})")
        trans = _theta(np.arange(1, t + 1) * np.pi / (t + 1))
        rev = trans[::-1].copy()
        trans.flags.writeable = rev.flags.writeable = False
        stages.append(_Stage(n, n_lo, n_hi, p, t, trans, rev))
    return tuple(stages)


def _afb(X: np.ndarray, s: _Stage) -> tuple[np.ndarray, np.ndarray]:
    """One analysis stage on unitary DFT rows (last axis)."""
    n, n_lo, n_hi, p, t, h = s.n_in, s.n_lo, s.n_hi, s.p, s.t, s.n_hi // 2

    lo = np.zeros((*X.shape[:-1], n_lo), dtype=complex)
    lo[..., 0] = X[..., 0]
    if p > 0:
        lo[..., 1 : p + 1] = X[..., 1 : p + 1]
        lo[..., n_lo - p :] = X[..., n - p :]
    if t > 0:
        lo[..., p + 1 : p + t + 1] = X[..., p + 1 : p + t + 1] * s.trans
        lo[..., n_lo - p - t : n_lo - p] = X[..., n - p - t : n - p] * s.rev
    # lo[n_lo // 2] stays zero: the output Nyquist sits in the H0 stopband.

    hi = np.zeros((*X.shape[:-1], n_hi), dtype=complex)
    if t > 0:
        hi[..., 1 : t + 1] = X[..., p + 1 : p + t + 1] * s.rev
        hi[..., n_hi - t :] = X[..., n - p - t : n - p] * s.trans
    # Bins t+1 .. h-1 of each half are pure passband copies.
    hi[..., t + 1 : h] = X[..., p + t + 1 : p + h]
    hi[..., h + 1 : n_hi - t] = X[..., n - p - h + 1 : n - p - t]
    hi[..., h] = X[..., n // 2]
    return lo, hi


def _sfb(lo: np.ndarray, hi: np.ndarray, s: _Stage) -> np.ndarray:
    """Exact adjoint of :func:`_afb`; returns the parent DFT rows."""
    n, n_lo, n_hi, p, t, h = s.n_in, s.n_lo, s.n_hi, s.p, s.t, s.n_hi // 2

    X = np.zeros((*lo.shape[:-1], n), dtype=complex)
    X[..., 0] = lo[..., 0]
    if p > 0:
        X[..., 1 : p + 1] = lo[..., 1 : p + 1]
        X[..., n - p :] = lo[..., n_lo - p :]
    if t > 0:
        X[..., p + 1 : p + t + 1] = lo[..., p + 1 : p + t + 1] * s.trans + hi[..., 1 : t + 1] * s.rev
        X[..., n - p - t : n - p] = lo[..., n_lo - p - t : n_lo - p] * s.rev + hi[..., n_hi - t :] * s.trans
    X[..., p + t + 1 : p + h] = hi[..., t + 1 : h]
    X[..., n - p - h + 1 : n - p - t] = hi[..., h + 1 : n_hi - t]
    X[..., n // 2] = hi[..., h]
    return X


def _udft(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(x) / math.sqrt(x.shape[-1])


def _iudft(X: np.ndarray) -> np.ndarray:
    # A contiguous copy: the real view would keep the complex buffer alive.
    return np.real(np.fft.ifft(X) * math.sqrt(X.shape[-1])).copy()


def decompose(signal: np.ndarray, params: TqwtParams) -> SubbandSet:
    """Split `signal` into J highpass subbands plus a lowpass residual.

    `signal` is one signal of shape (N,) or a stack of K signals of shape
    (K, N); every row is transformed along the last axis, and each row of a
    stack comes out bit for bit as its own 1-D call would.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim not in (1, 2):
        raise TqwtError(f"expected a (N,) signal or a (K, N) stack, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise TqwtError("signal contains non-finite samples")

    n_signal = x.shape[-1]
    n_padded = _next_pow2(max(n_signal, 2))
    if 2 * round(params.alpha**params.levels * n_padded / 2) < 8:
        raise TqwtError(
            f"signal of length {n_signal} too short for {params.levels} levels "
            f"(need >= {params.min_signal_length()} samples)"
        )

    padded = np.zeros((*x.shape[:-1], n_padded))
    padded[..., :n_signal] = x
    X = _udft(padded)

    highpass: list[np.ndarray] = []
    for stage in _layout(n_padded, params):
        X, hi = _afb(X, stage)
        highpass.append(_iudft(hi))
    return SubbandSet(highpass, _iudft(X), n_signal, n_padded)


def reconstruct(subbands: SubbandSet, params: TqwtParams) -> np.ndarray:
    """Inverse filter bank; exact for subbands produced by :func:`decompose`.

    Subbands may be modified (zeroed, thresholded) before synthesis.  Returns
    one row per row of the subbands, truncated to the original length.
    """
    if subbands.levels != params.levels:
        raise TqwtError(
            f"subband count {subbands.levels} does not match params levels {params.levels}"
        )
    stages = _layout(subbands.n_padded, params)
    for level, (stage, band) in enumerate(zip(stages, subbands.highpass), start=1):
        if band.shape[-1] != stage.n_hi:
            raise TqwtError(f"subband length mismatch at level {level}")
    if subbands.lowpass.shape[-1] != stages[-1].n_lo:
        raise TqwtError("lowpass length mismatch")

    X = _udft(subbands.lowpass)
    for stage, band in zip(reversed(stages), reversed(subbands.highpass)):
        X = _sfb(X, _udft(band), stage)
    return _iudft(X)[..., : subbands.n_signal]


def _h0_magnitude(w: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """|H0| of one stage at normalized rad/sample frequency w; 0 outside [0, pi]."""
    out = np.zeros_like(w)
    lo_edge = (1.0 - beta) * np.pi
    hi_edge = alpha * np.pi
    out[w <= lo_edge] = 1.0
    band = (w > lo_edge) & (w < hi_edge)
    out[band] = _theta((w[band] + (beta - 1.0) * np.pi) / (alpha + beta - 1.0))
    return out


def _h1_magnitude(w: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    out = np.zeros_like(w)
    lo_edge = (1.0 - beta) * np.pi
    hi_edge = alpha * np.pi
    band = (w > lo_edge) & (w < hi_edge)
    out[band] = _theta((hi_edge - w[band]) / (alpha + beta - 1.0))
    out[(w >= hi_edge) & (w <= np.pi)] = 1.0
    return out


def level_response(freq_hz: np.ndarray, fs: float, params: TqwtParams, level: int) -> np.ndarray:
    """Cascaded magnitude response of the `level`-th highpass subband."""
    w = 2.0 * np.pi * np.asarray(freq_hz, dtype=float) / fs
    mag = _h1_magnitude(w / params.alpha ** (level - 1), params.alpha, params.beta)
    for m in range(level - 1):
        mag *= _h0_magnitude(w / params.alpha**m, params.alpha, params.beta)
    return mag


def subband_frequencies(params: TqwtParams, fs: float, level: int) -> tuple[float, float]:
    """(center, lower 3 dB cutoff) of the `level`-th subband, in Hz.

    The center follows the closed form alpha^level * (2 - beta) / (4 alpha) * fs.
    The cutoff is found numerically: the lowest frequency at which the
    cascaded response crosses 1/sqrt(2) of its passband maximum, located on a
    dense grid and refined by linear interpolation.
    """
    if not 1 <= level <= params.levels:
        raise TqwtError(f"level {level} out of range 1..{params.levels}")
    center = params.alpha**level * (2.0 - params.beta) / (4.0 * params.alpha) * fs

    # The subband lives inside (0, alpha^(level-1) * fs / 2); keep a margin.
    f_top = params.alpha ** (level - 1) * fs / 2.0 * 1.05
    grid = np.arange(0.0, min(f_top, fs / 2.0), fs / 2**18)
    mag = level_response(grid, fs, params, level)
    k = int(np.argmax(mag))
    target = mag[k] / math.sqrt(2.0)
    below = np.nonzero(mag[: k + 1] <= target)[0]
    if below.size == 0:
        return center, 0.0
    i = int(below[-1])
    f_lo = grid[i] + (target - mag[i]) * (grid[i + 1] - grid[i]) / (mag[i + 1] - mag[i])
    return center, float(f_lo)


@dataclass
class FrequencyTable:
    """Center / lower-3 dB lookup over a grid of Q values, at one level."""

    qs: np.ndarray
    centers_hz: np.ndarray
    lower3db_hz: np.ndarray
    fs: float
    level: int
    r: float = 3.0

    def __post_init__(self) -> None:
        if self.qs.size == 0:
            raise TqwtError("empty frequency table")
        if not (len(self.qs) == len(self.centers_hz) == len(self.lower3db_hz)):
            raise TqwtError("frequency table columns have unequal lengths")

    def __len__(self) -> int:
        return int(self.qs.size)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["q", "center_hz", "lower3db_hz"])
            for q, c, lo in zip(self.qs, self.centers_hz, self.lower3db_hz):
                writer.writerow([f"{q:.10g}", f"{c:.10g}", f"{lo:.10g}"])

    @classmethod
    def from_csv(cls, path, fs: float, level: int, r: float = 3.0) -> "FrequencyTable":
        qs, centers, lows = [], [], []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                qs.append(float(row["q"]))
                centers.append(float(row["center_hz"]))
                lows.append(float(row["lower3db_hz"]))
        return cls(np.array(qs), np.array(centers), np.array(lows), fs, level, r)


def q_grid(q_min: float, q_max: float, step: float) -> np.ndarray:
    """The inclusive, ascending Q grid from q_min to q_max in `step` increments."""
    try:
        return np.linspace(q_min, q_max, int(round((q_max - q_min) / step)) + 1)
    except (ValueError, MemoryError) as exc:
        raise TqwtError(f"cannot build a Q grid from {q_min} to {q_max} in steps of {step}: {exc}") from None


def build_q_lookup(
    fs: float,
    level: int = 10,
    q_min: float = 1.0,
    q_max: float = 1.4,
    step: float = 0.01,
    r: float = 3.0,
) -> FrequencyTable:
    """Tabulate subband frequencies over the inclusive Q grid, ascending."""
    if q_min >= q_max:
        raise TqwtError(f"need q_min < q_max, got {q_min} >= {q_max}")
    if step <= 0:
        raise TqwtError(f"step must be positive, got {step}")
    qs = q_grid(q_min, q_max, step)
    centers = np.empty(qs.size)
    lows = np.empty(qs.size)
    for i, q in enumerate(qs):
        centers[i], lows[i] = subband_frequencies(TqwtParams(q=float(q), r=r, levels=level), fs, level)
    return FrequencyTable(qs, centers, lows, fs, level, r)

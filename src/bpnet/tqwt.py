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

Every level works on one-sided unitary spectra, bins 0 .. n/2 of a length-n
signal (np.fft.rfft / irfft with norm="ortho").  The signals are real, so
their DFT is Hermitian, X[n - k] = conj(X[k]); both filters are real and
even in frequency, so each band's spectrum stays Hermitian and its negative
half only repeats the positive one.  Keeping the positive half halves every
FFT and band copy and gives the same subbands as the full complex spectra.

Both directions work along the last axis, so a (K, N) stack of signals that
share one Q goes through every FFT and band copy in one call.  Each level's
geometry (lengths, bin counts, transition weights) is computed once per
(padded length, Q, r, J) and kept in a bounded cache.

Subband frequencies come from the cascaded magnitude response on an
ascending frequency grid w, so each stage's passband, transition band and
stopband are contiguous slices of it, found by np.searchsorted on w / alpha^m.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from bpnet.atomic import atomic_open


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
        """Smallest signal length that :func:`decompose` accepts.

        A signal is zero-extended to a power of two, which works when its
        final lowpass keeps >= 8 samples and every level's rounded lengths
        leave a passband and a transition band.  The search doubles from 8,
        the least padded length that can keep 8 lowpass samples, and returns
        the shortest length that pads to the first one that works; a
        TqwtError when none in float range does.
        """
        for k in range(3, 1024):  # 2.0**1024 overflows
            if 2 * round(math.ldexp(self.alpha**self.levels, k) / 2) >= 8 and all(
                min(_stage_geometry(1 << k, self.alpha, self.beta, j)[3:]) >= 0 for j in range(1, self.levels + 1)
            ):
                return (1 << (k - 1)) + 1
        raise TqwtError(f"{self.levels} levels leave no lowpass band at Q={self.q}")


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
    c = np.cos(v)
    return 0.5 * (1.0 + c) * np.sqrt(2.0 - c)


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _stage_geometry(n_padded: int, alpha: float, beta: float, level: int) -> tuple[int, int, int, int, int]:
    """(input, lowpass, highpass) lengths at `level`, all even, then its
    passband and transition bin counts; a negative count is a degenerate level.

    Lengths derive from the original padded length to avoid rounding drift
    across levels.
    """
    n_in = n_padded if level == 1 else 2 * round(alpha ** (level - 1) * n_padded / 2)
    n_lo = 2 * round(alpha**level * n_padded / 2)
    n_hi = 2 * round(beta * alpha ** (level - 1) * n_padded / 2)
    return n_in, n_lo, n_hi, (n_in - n_hi) // 2, (n_lo + n_hi - n_in) // 2 - 1


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
        n, n_lo, n_hi, p, t = _stage_geometry(n_padded, params.alpha, params.beta, level)
        if p < 0 or t < 0:
            raise TqwtError(f"degenerate band geometry (n={n}, n_lo={n_lo}, n_hi={n_hi})")
        trans = _theta(np.arange(1, t + 1) * np.pi / (t + 1))
        rev = trans[::-1].copy()
        trans.flags.writeable = rev.flags.writeable = False
        stages.append(_Stage(n, n_lo, n_hi, p, t, trans, rev))
    return tuple(stages)


def _afb(X: np.ndarray, s: _Stage) -> tuple[np.ndarray, np.ndarray]:
    """One analysis stage on one-sided unitary DFT rows (last axis, bins 0 .. n/2)."""
    p, t = s.p, s.t
    lo = np.empty((*X.shape[:-1], s.n_lo // 2 + 1), dtype=complex)
    lo[..., : p + 1] = X[..., : p + 1]
    np.multiply(X[..., p + 1 : p + t + 1], s.trans, out=lo[..., p + 1 : p + t + 1])
    lo[..., p + t + 1] = 0.0  # the output Nyquist, n_lo / 2, sits in the H0 stopband

    hi = np.empty((*X.shape[:-1], s.n_hi // 2 + 1), dtype=complex)
    hi[..., 0] = 0.0
    np.multiply(X[..., p + 1 : p + t + 1], s.rev, out=hi[..., 1 : t + 1])
    # Bins t+1 .. n_hi/2 are pure passband copies, up to the input Nyquist n/2 = p + n_hi/2.
    hi[..., t + 1 :] = X[..., p + t + 1 :]
    return lo, hi


def _sfb(lo: np.ndarray, hi: np.ndarray, s: _Stage) -> np.ndarray:
    """Exact adjoint of :func:`_afb`; returns the parent one-sided DFT rows."""
    p, t = s.p, s.t
    X = np.empty((*lo.shape[:-1], s.n_in // 2 + 1), dtype=complex)
    X[..., : p + 1] = lo[..., : p + 1]
    X[..., p + 1 : p + t + 1] = lo[..., p + 1 : p + t + 1] * s.trans + hi[..., 1 : t + 1] * s.rev
    X[..., p + t + 1 :] = hi[..., t + 1 :]
    return X


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

    X = np.fft.rfft(x, n_padded, norm="ortho")  # zero-extends to n_padded
    highpass: list[np.ndarray] = []
    for stage in _layout(n_padded, params):
        X, hi = _afb(X, stage)
        highpass.append(np.fft.irfft(hi, stage.n_hi, norm="ortho"))
    return SubbandSet(highpass, np.fft.irfft(X, stage.n_lo, norm="ortho"), n_signal, n_padded)


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

    X = np.fft.rfft(subbands.lowpass, norm="ortho")
    for stage, band in zip(reversed(stages), reversed(subbands.highpass)):
        X = _sfb(X, np.fft.rfft(band, norm="ortho"), stage)
    return np.fft.irfft(X, subbands.n_padded, norm="ortho")[..., : subbands.n_signal]


def _level_response(w: np.ndarray, params: TqwtParams, level: int) -> np.ndarray:
    """Cascaded magnitude of the `level`-th highpass subband on `w`: H1 over the
    bins it passes, times each earlier stage's H0 in stage order."""
    alpha, beta = params.alpha, params.beta
    lo_edge, hi_edge, width = (1.0 - beta) * np.pi, alpha * np.pi, alpha + beta - 1.0
    mag = np.zeros_like(w)
    u = w / alpha ** (level - 1)
    lo, top, hi = u.searchsorted(lo_edge, "right"), u.searchsorted(hi_edge), u.searchsorted(np.pi, "right")
    mag[lo:top] = _theta((hi_edge - u[lo:top]) / width)
    mag[top:hi] = 1.0
    for m in range(level - 1):
        u = w[lo:hi] / alpha**m
        # H0 is one through lo_edge (no multiply), theta below hi_edge and zero from there.
        a, b = u.searchsorted(lo_edge, "right"), u.searchsorted(hi_edge)
        if a < b:
            mag[lo + a : lo + b] *= _theta((u[a:b] + (beta - 1.0) * np.pi) / width)
        mag[lo + b : hi] = 0.0
        hi = lo + b
    return mag


def subband_frequencies(params: TqwtParams, fs: float, level: int) -> tuple[float, float]:
    """(center, lower 3 dB cutoff) of the `level`-th subband, in Hz.

    The center follows the closed form alpha^level * (2 - beta) / (4 alpha) * fs.
    The cutoff is found numerically: the lowest frequency at which the
    cascaded response crosses 1/sqrt(2) of its passband maximum, located on
    a grid of fs / 2^18 Hz steps and refined by linear interpolation.  A
    crossing below the grid's first step cannot be bracketed: a TqwtError.
    """
    if not 1 <= level <= params.levels:
        raise TqwtError(f"level {level} out of range 1..{params.levels}")
    center = params.alpha**level * (2.0 - params.beta) / (4.0 * params.alpha) * fs

    # The subband lives inside (0, alpha^(level-1) * fs / 2); keep a margin.
    f_top = params.alpha ** (level - 1) * fs / 2.0 * 1.05
    grid = np.arange(0.0, min(f_top, fs / 2.0), fs / 2**18)
    mag = _level_response(2.0 * np.pi * grid / fs, params, level)
    k = int(np.argmax(mag))
    if mag[k] == 0.0:  # mag[0] is always zero, so below the peak the crossing is bracketed
        raise TqwtError(f"level {level} subband at Q={params.q:g} lies below the {fs / 2**18:.3g} Hz "
                        "grid step; its lower 3 dB cutoff cannot be bracketed")
    target = mag[k] / math.sqrt(2.0)
    i = int(np.flatnonzero(mag[: k + 1] <= target)[-1])
    if i == 0:  # the crossing lies inside the first grid step, where interpolation is no estimate
        raise TqwtError(f"level {level} lower 3 dB cutoff at Q={params.q:g} lies inside the first "
                        f"{fs / 2**18:.3g} Hz grid step; it cannot be bracketed")
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
        with atomic_open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["q", "center_hz", "lower3db_hz"])
            for q, c, lo in zip(self.qs, self.centers_hz, self.lower3db_hz):
                writer.writerow([f"{q:.10g}", f"{c:.10g}", f"{lo:.10g}"])


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
    try:
        qs = np.linspace(q_min, q_max, int(round((q_max - q_min) / step)) + 1)
    except (ValueError, MemoryError) as exc:
        raise TqwtError(f"cannot build a Q grid from {q_min} to {q_max} in steps of {step}: {exc}") from None
    centers = np.empty(qs.size)
    lows = np.empty(qs.size)
    for i, q in enumerate(qs):
        centers[i], lows[i] = subband_frequencies(TqwtParams(q=float(q), r=r, levels=level), fs, level)
    return FrequencyTable(qs, centers, lows, fs, level, r)

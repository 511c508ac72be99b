"""Adaptive wavelet preprocessing applied identically to ECG and PPG windows.

Per window: locate the cardiac fundamental in the magnitude spectrum,
normalized by its maximum at or above 0.5 Hz so that baseline wander sets no
scale, pick the quality factor Q from the frequency lookup table so the
fundamental is not attenuated, decompose with the tunable-Q filter bank,
drop the lowpass residual (DC and baseline wander), soft-threshold the
subbands with a risk-estimate rule, and synthesize the cleaned window.

Both steps take stacks of windows.  `smoothed_spectra` takes the spectra of
a (K, N) stack, such as one record's windows of one channel, in one FFT and
one normalisation; `first_peak` scans one of them, and `spectrum_peak` is a
stack of one.  `denoise_window` takes a (K, N) stack that shares a Q.  The
shrinkage writes into the band-sized arrays each call allocates anyway,
with the same operations in the same order, so every value is rounded as in
the plain expressions and each row comes out as its own call would give it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from bpnet.tqwt import FrequencyTable, TqwtParams, decompose, reconstruct, SubbandSet

FUNDAMENTAL_BAND_HZ = (1.0, 3.5)
PROMINENCE_FLOOR = 0.4
PROMINENCE_WINDOW_HZ = (0.5, 5.0)
FALLBACK_Q = 1.08
SPECTRUM_SMOOTH_HZ = 0.25  # moving-average width for the peak/valley scan


class PreprocessError(ValueError):
    pass


@dataclass
class FundamentalPeak:
    frequency_hz: float
    amplitude: float      # on the spectrum normalized by its maximum at or above 0.5 Hz
    prominence: float
    left_end_hz: float


def smoothed_spectra(windows: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude spectra of a (K, N) stack of windows, lightly smoothed, each
    row divided by its maximum at or above 0.5 Hz; returns (freqs, (K, bins)).

    The smoothing suppresses rectangular-window leakage ripple so that the
    valley scan sees spectral structure, not sidelobes.  Bins below
    PROMINENCE_WINDOW_HZ[0] (baseline wander) may exceed 1; they do not set
    the scale, so wander leaves the cardiac peaks' prominence as it is.
    One `rfft` serves the stack; the smoothing runs row by row, because a
    batched convolution sums in another order.
    """
    n = windows.shape[-1]
    if n < 4 * fs:
        raise PreprocessError(f"window of {n} samples shorter than 4 s at fs={fs}")
    if fs <= 7.0:
        raise PreprocessError(f"sampling rate {fs} too low to resolve the band")
    mag = np.abs(np.fft.rfft(windows, axis=-1))
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    df = freqs[1] - freqs[0]
    width = max(1, int(round(SPECTRUM_SMOOTH_HZ / df)))
    if width % 2 == 0:
        width += 1
    if width > 1:
        kernel = np.full(width, 1.0 / width)
        for row in mag:
            row[:] = np.convolve(row, kernel, mode="same")
    top = mag[:, np.searchsorted(freqs, PROMINENCE_WINDOW_HZ[0]) :].max(axis=-1, keepdims=True)
    mag /= np.where(top > 0, top, 1.0)
    return freqs, mag


def _local_extrema(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    maxima = np.nonzero((mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:]))[0] + 1
    minima = np.nonzero((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))[0] + 1
    return maxima, minima


def _prominence(mag: np.ndarray, freqs: np.ndarray, k: int, minima: np.ndarray) -> float:
    """Peak height above the higher flanking minimum inside the scan window."""
    lo_hz, hi_hz = PROMINENCE_WINDOW_HZ
    left = minima[(minima < k) & (freqs[minima] >= lo_hz)]
    right = minima[(minima > k) & (freqs[minima] <= hi_hz)]
    if left.size:
        left_ref = mag[left[-1]]
    else:
        lo_bin = np.searchsorted(freqs, lo_hz)
        left_ref = np.min(mag[lo_bin:k]) if lo_bin < k else mag[k]
    if right.size:
        right_ref = mag[right[0]]
    else:
        hi_bin = np.searchsorted(freqs, hi_hz, side="right")
        right_ref = np.min(mag[k + 1 : hi_bin]) if k + 1 < hi_bin else mag[k]
    return float(mag[k] - max(left_ref, right_ref))


def first_peak(freqs: np.ndarray, mag: np.ndarray) -> Optional[FundamentalPeak]:
    """First sufficiently prominent peak in the cardiac band of one spectrum
    from `smoothed_spectra`.

    Scans [1.0, 3.5] Hz in ascending frequency and returns the first peak
    whose prominence exceeds 0.4 on the normalized spectrum; the left end is
    the nearest local minimum below the peak, or half the peak frequency when
    no minimum exists.  Returns None when no peak qualifies.  No bin above
    PROMINENCE_WINDOW_HZ[1] is read, so the extrema are sought below it.
    """
    end = min(mag.size, int(np.searchsorted(freqs, PROMINENCE_WINDOW_HZ[1], side="right")) + 1)
    maxima, minima = _local_extrema(mag[:end])
    band = maxima[(freqs[maxima] >= FUNDAMENTAL_BAND_HZ[0]) & (freqs[maxima] <= FUNDAMENTAL_BAND_HZ[1])]
    for k in band:
        prom = _prominence(mag, freqs, int(k), minima)
        if prom > PROMINENCE_FLOOR:
            below = minima[minima < k]
            if below.size and freqs[below[-1]] > 0:
                left_end = float(freqs[below[-1]])
            else:
                left_end = float(freqs[k]) / 2.0
            return FundamentalPeak(float(freqs[k]), float(mag[k]), prom, left_end)
    return None


def spectrum_peak(signal: np.ndarray, fs: float) -> Optional[FundamentalPeak]:
    """`first_peak` of one window's spectrum: a stack of one for `smoothed_spectra`."""
    freqs, mag = smoothed_spectra(np.asarray(signal, dtype=float)[np.newaxis], fs)
    return first_peak(freqs, mag[0])


def select_q(peak: Optional[FundamentalPeak], table: FrequencyTable) -> float:
    """Adaptive Q: bounded by the center closest to the fundamental, then
    matched on the lower cutoff against the peak's left end.

    Without a detected fundamental the fixed fallback Q = 1.08 applies.
    Ties break toward smaller Q.
    """
    if peak is None:
        return FALLBACK_Q
    q_max_idx = int(np.argmin(np.abs(table.centers_hz - peak.frequency_hz)))
    q_max = table.qs[q_max_idx]
    eligible = np.nonzero(table.qs <= q_max)[0]
    best = eligible[np.argmin(np.abs(table.lower3db_hz[eligible] - peak.left_end_hz))]
    return float(table.qs[best])


def sure_threshold(coeffs: np.ndarray, sigma: float | np.ndarray) -> np.ndarray:
    """Risk-estimate threshold over sigma-normalized sorted squared coeffs.

    Works row by row along the last axis; `sigma` broadcasts against the
    rows as shape (..., 1), and the result holds one threshold per row in
    that shape.  The risk is (n - 2k + cumsum + (n - k) * sx2) / n, built
    with the same operations in the same order inside the arrays the call
    owns: the scaled copy is squared and sorted in place, and the terms are
    added into the cumulative sum.
    """
    sx2 = np.asarray(coeffs, dtype=float) / sigma
    np.multiply(sx2, sx2, out=sx2)
    sx2.sort(axis=-1)
    n = sx2.shape[-1]
    k = np.arange(1.0, n + 1)  # whole numbers: n - k is exact, as in integers
    risk = np.cumsum(sx2, axis=-1)
    risk += n - 2.0 * k
    risk += (n - k) * sx2
    risk /= n
    best = np.take_along_axis(sx2, np.argmin(risk, axis=-1)[..., None], axis=-1)
    return sigma * np.sqrt(best)


def soft_shrink(values: np.ndarray, threshold: float | np.ndarray) -> np.ndarray:
    """sign(values) * max(|values| - threshold, 0), built in one output array."""
    values = np.asarray(values, dtype=float)
    out = np.abs(values)
    out -= threshold
    np.maximum(out, 0.0, out=out)
    out *= np.sign(values)
    return out


def rigrsure_soft_denoise(subbands: SubbandSet) -> SubbandSet:
    """Per-subband soft thresholding; the lowpass residual passes untouched.

    Each row (one signal of a stack) is denoised on its own.  The noise
    scale comes from the finest subband's median absolute coefficient /
    0.6745; each highpass subband gets its own risk-estimate threshold.
    Rows whose noise scale is not positive, and all-zero bands of a row,
    pass through unchanged.  The result shares the bands it leaves as they
    are with `subbands`.
    """
    # np.median's value from an in-place sort, which is faster here than its
    # partition: the mean of the middle one or two, NaN where a NaN sorts last.
    finest = np.abs(subbands.highpass[0])
    finest.sort(axis=-1)
    n = finest.shape[-1]
    sigma = finest[..., (n - 1) // 2 : n // 2 + 1].mean(axis=-1, keepdims=True) / 0.6745
    sigma[np.isnan(finest[..., -1:])] = np.nan
    usable = (sigma > 0.0) & np.isfinite(sigma)
    sigma = np.where(usable, sigma, 1.0)  # masked rows: any finite scale, result discarded
    highpass = []
    for band in subbands.highpass:
        keep = usable & np.any(band, axis=-1, keepdims=True)
        if not keep.any():
            highpass.append(band)
            continue
        shrunk = soft_shrink(band, sure_threshold(band, sigma))
        if not keep.all():
            np.copyto(shrunk, band, where=~keep)
        highpass.append(shrunk)
    return SubbandSet(highpass, subbands.lowpass, subbands.n_signal, subbands.n_padded)


def denoise_window(signal: np.ndarray, q: float, table: FrequencyTable) -> np.ndarray:
    """Decompose at `q`, zero the lowpass residual, denoise, resynthesize.

    `signal` is one window (N,) or a stack of windows (K, N) that share `q`;
    a stack returns each row bit for bit as its own 1-D call would.
    """
    params = TqwtParams(q=q, r=table.r, levels=table.level)
    sb = decompose(signal, params)
    sb.lowpass = np.zeros_like(sb.lowpass)
    sb = rigrsure_soft_denoise(sb)  # lets the noisy bands go before synthesis
    return reconstruct(sb, params)


def preprocess_signal(signal: np.ndarray, fs: float, table: FrequencyTable) -> np.ndarray:
    """Full per-window chain: Q selection, baseline removal, denoising.

    Output has the input's length; its mean is driven to (near) zero by
    zeroing the lowpass residual before synthesis.
    """
    x = np.asarray(signal, dtype=float)
    return denoise_window(x, select_q(spectrum_peak(x, fs), table), table)

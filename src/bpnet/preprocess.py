"""Adaptive wavelet preprocessing applied identically to ECG and PPG windows.

Per window: locate the cardiac fundamental in the normalized magnitude
spectrum, pick the quality factor Q from the frequency lookup table so the
fundamental is not attenuated, decompose with the tunable-Q filter bank,
drop the lowpass residual (DC and baseline wander), soft-threshold the
subbands with a risk-estimate rule, and synthesize the cleaned window.
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
    amplitude: float      # on the max-normalized spectrum
    prominence: float
    left_end_hz: float


def _smoothed_spectrum(signal: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Max-normalized magnitude spectrum, lightly smoothed.

    The smoothing suppresses rectangular-window leakage ripple so that the
    valley scan sees spectral structure, not sidelobes.
    """
    mag = np.abs(np.fft.rfft(signal))
    freqs = np.fft.rfftfreq(signal.size, d=1.0 / fs)
    df = freqs[1] - freqs[0]
    width = max(1, int(round(SPECTRUM_SMOOTH_HZ / df)))
    if width % 2 == 0:
        width += 1
    if width > 1:
        kernel = np.full(width, 1.0 / width)
        mag = np.convolve(mag, kernel, mode="same")
    top = np.max(mag)
    if top > 0:
        mag = mag / top
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


def spectrum_peak(signal: np.ndarray, fs: float) -> Optional[FundamentalPeak]:
    """First sufficiently prominent spectral peak in the cardiac band.

    Scans [1.0, 3.5] Hz in ascending frequency and returns the first peak
    whose prominence exceeds 0.4 on the normalized spectrum; the left end is
    the nearest local minimum below the peak, or half the peak frequency when
    no minimum exists.  Returns None when no peak qualifies.
    """
    x = np.asarray(signal, dtype=float)
    if x.size < 4 * fs:
        raise PreprocessError(f"window of {x.size} samples shorter than 4 s at fs={fs}")
    if fs <= 7.0:
        raise PreprocessError(f"sampling rate {fs} too low to resolve the band")
    freqs, mag = _smoothed_spectrum(x, fs)
    maxima, minima = _local_extrema(mag)

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


def select_q(peak: Optional[FundamentalPeak], table: FrequencyTable) -> float:
    """Adaptive Q: bounded by the center closest to the fundamental, then
    matched on the lower cutoff against the peak's left end.

    Without a detected fundamental the fixed fallback Q = 1.08 applies.
    Ties break toward smaller Q.
    """
    if len(table) == 0:
        raise PreprocessError("empty frequency table")
    if peak is None:
        return FALLBACK_Q
    q_max_idx = int(np.argmin(np.abs(table.centers_hz - peak.frequency_hz)))
    q_max = table.qs[q_max_idx]
    eligible = np.nonzero(table.qs <= q_max)[0]
    best = eligible[np.argmin(np.abs(table.lower3db_hz[eligible] - peak.left_end_hz))]
    return float(table.qs[best])


def sure_threshold(coeffs: np.ndarray, sigma: float) -> float:
    """Risk-estimate threshold over sigma-normalized sorted squared coeffs."""
    w = np.asarray(coeffs, dtype=float) / sigma
    n = w.size
    sx2 = np.sort(w * w)
    cumsum = np.cumsum(sx2)
    k = np.arange(1, n + 1)
    risk = (n - 2.0 * k + cumsum + (n - k) * sx2) / n
    return sigma * float(np.sqrt(sx2[int(np.argmin(risk))]))


def soft_shrink(values: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def rigrsure_soft_denoise(subbands: SubbandSet) -> SubbandSet:
    """Per-subband soft thresholding; the lowpass residual passes untouched.

    The noise scale comes from the finest subband's median absolute
    coefficient / 0.6745; each highpass subband gets its own risk-estimate
    threshold.  Degenerate (all-zero) subbands pass through unchanged.
    """
    out = subbands.copy()
    finest = subbands.highpass[0]
    sigma = float(np.median(np.abs(finest))) / 0.6745
    if sigma <= 0.0 or not np.isfinite(sigma):
        return out
    for i, band in enumerate(out.highpass):
        if band.size == 0 or not np.any(band):
            continue
        t = sure_threshold(band, sigma)
        out.highpass[i] = soft_shrink(band, t)
    return out


def denoise_window(signal: np.ndarray, q: float, table: FrequencyTable) -> np.ndarray:
    """Decompose at `q`, zero the lowpass residual, denoise, resynthesize."""
    params = TqwtParams(q=q, r=table.r, levels=table.level)
    sb = decompose(signal, params)
    sb.lowpass = np.zeros_like(sb.lowpass)
    return reconstruct(rigrsure_soft_denoise(sb), params)


def preprocess_signal(signal: np.ndarray, fs: float, table: FrequencyTable) -> np.ndarray:
    """Full per-window chain: Q selection, baseline removal, denoising.

    Output has the input's length; its mean is driven to (near) zero by
    zeroing the lowpass residual before synthesis.
    """
    x = np.asarray(signal, dtype=float)
    return denoise_window(x, select_q(spectrum_peak(x, fs), table), table)

from dataclasses import replace

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnet.preprocess import (
    FALLBACK_Q,
    FUNDAMENTAL_BAND_HZ,
    PROMINENCE_FLOOR,
    PROMINENCE_WINDOW_HZ,
    SPECTRUM_SMOOTH_HZ,
    FundamentalPeak,
    PreprocessError,
    denoise_window,
    preprocess_signal,
    rigrsure_soft_denoise,
    select_q,
    soft_shrink,
    first_peak,
    smoothed_spectra,
    spectrum_peak,
    sure_threshold,
)
from bpnet.synthetic import SyntheticConfig, generate
from bpnet.tqwt import SubbandSet, TqwtParams, decompose, reconstruct

FS = 125.0


def _sine(freq, n, fs=FS, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return amp * np.sin(2 * np.pi * freq * t + phase)


def _brute_force_band_peak(signal, fs, lo=1.0, hi=3.5):
    # Independent oracle: raw spectrum argmax inside the band, plain loops.
    mag = np.abs(np.fft.rfft(signal))
    freqs = np.fft.rfftfreq(len(signal), 1.0 / fs)
    best_f, best_m = None, -1.0
    for f, m in zip(freqs, mag):
        if lo <= f <= hi and m > best_m:
            best_f, best_m = f, m
    return best_f


def test_pure_sine_peak():
    x = _sine(1.5, 2048)
    peak = spectrum_peak(x, FS)
    assert peak is not None
    df = FS / 2048
    assert abs(peak.frequency_hz - 1.5) <= df
    assert peak.amplitude == pytest.approx(1.0)
    assert peak.prominence > 0.8


def test_dc_only_returns_none():
    assert spectrum_peak(np.full(2048, 3.0), FS) is None


def test_two_tone_peak_and_left_end():
    x = _sine(1.2, 2048) + _sine(2.4, 2048, amp=0.5)
    peak = spectrum_peak(x, FS)
    assert peak is not None
    oracle_f = _brute_force_band_peak(x, FS)
    df = FS / 2048
    assert abs(peak.frequency_hz - oracle_f) <= df
    assert abs(peak.frequency_hz - 1.2) <= df
    # No spectral valley below the fundamental: left end falls back to f/2.
    assert peak.left_end_hz == pytest.approx(peak.frequency_hz / 2.0)


def test_spectrum_peak_window_too_short():
    with pytest.raises(PreprocessError, match="shorter than 4 s"):
        spectrum_peak(np.ones(100), FS)
    with pytest.raises(PreprocessError, match="sampling rate"):
        spectrum_peak(np.ones(100), 5.0)


def test_select_q_fallback_without_peak(q_table):
    assert select_q(None, q_table) == FALLBACK_Q


@pytest.mark.parametrize(
    "freq, left, expected_q",
    [
        (0.8129, 0.4309, 1.0),
        (1.9491, 1.3397, 1.4),
        (1.0020, 0.5735, 1.08),
    ],
)
def test_select_q_reference_rows(q_table, freq, left, expected_q):
    peak = FundamentalPeak(freq, 1.0, 1.0, left)
    assert select_q(peak, q_table) == pytest.approx(expected_q)


def test_select_q_self_consistent_rows(q_table):
    # Feeding a row's own (center, cutoff) must select that row's Q.
    for i in range(0, len(q_table), 8):
        peak = FundamentalPeak(float(q_table.centers_hz[i]), 1.0, 1.0, float(q_table.lower3db_hz[i]))
        assert select_q(peak, q_table) == pytest.approx(float(q_table.qs[i]))


def test_q_selection_scale_invariant(q_table, rng):
    base = _sine(1.4, 2048) + 0.3 * rng.standard_normal(2048)
    q_ref = select_q(spectrum_peak(base, FS), q_table)
    for scale in (1e-3, 0.5, 7.0, 1e4):
        q = select_q(spectrum_peak(scale * base, FS), q_table)
        assert q == q_ref


def test_selected_q_always_in_table_range(q_table, rng):
    for trial in range(10):
        x = rng.standard_normal(2048)
        q = select_q(spectrum_peak(x, FS), q_table)
        assert (1.0 <= q <= 1.4) or q == FALLBACK_Q


def _sure_oracle(coeffs, sigma):
    # Brute-force risk scan with plain loops.
    w = [c / sigma for c in coeffs]
    n = len(w)
    sx2 = sorted(v * v for v in w)
    best_risk, best_k = None, 0
    cum = 0.0
    for k in range(1, n + 1):
        cum += sx2[k - 1]
        risk = (n - 2 * k + cum + (n - k) * sx2[k - 1]) / n
        if best_risk is None or risk < best_risk:
            best_risk, best_k = risk, k
    return sigma * np.sqrt(sx2[best_k - 1])


def test_sure_threshold_matches_brute_force(rng):
    for _ in range(20):
        coeffs = rng.standard_normal(rng.integers(8, 300)) * rng.uniform(0.1, 5.0)
        sigma = rng.uniform(0.2, 3.0)
        assert sure_threshold(coeffs, sigma) == pytest.approx(_sure_oracle(coeffs.tolist(), sigma), abs=1e-12)


def test_denoise_all_zero_passthrough():
    sb = SubbandSet([np.zeros(64), np.zeros(32)], np.zeros(16), 128, 128)
    out = rigrsure_soft_denoise(sb)
    assert all(not np.any(h) for h in out.highpass)


def test_denoise_single_large_coefficient(rng):
    band = rng.standard_normal(256) * 0.01
    band[40] = 50.0
    sb = SubbandSet([band.copy()], np.zeros(8), 256, 256)
    out = rigrsure_soft_denoise(sb)
    sigma = np.median(np.abs(band)) / 0.6745
    t = sure_threshold(band, sigma)
    assert out.highpass[0][40] == pytest.approx(band[40] - t)


def test_denoise_white_noise_energy(rng):
    # Monte-Carlo oracle: over 100 draws the soft-shrunk energy stays far
    # below the 20% band.
    ratios = []
    for _ in range(100):
        noise = rng.standard_normal(1024)
        t = _sure_oracle(noise.tolist(), 1.0)
        out = soft_shrink(noise, t)
        ratios.append(np.sum(out**2) / np.sum(noise**2))
    assert max(ratios) < 0.20

    noise = rng.standard_normal(1024)
    sb = SubbandSet([noise.copy()], np.zeros(16), 1024, 1024)
    out = rigrsure_soft_denoise(sb)
    assert np.sum(out.highpass[0] ** 2) / np.sum(noise**2) < 0.20


def test_denoise_keeps_lowpass(rng):
    low = rng.standard_normal(32)
    sb = SubbandSet([rng.standard_normal(64)], low.copy(), 96, 96)
    out = rigrsure_soft_denoise(sb)
    assert np.array_equal(out.lowpass, low)


def test_preprocess_removes_drift(q_table):
    # 40 s window: two full cycles of the 0.05 Hz drift are resolvable.
    n = 5000
    clean = _sine(1.5, n)
    x = clean + _sine(0.05, n, amp=2.0)
    out = preprocess_signal(x, FS, q_table)
    assert out.size == n
    assert np.corrcoef(out, clean)[0, 1] >= 0.99
    assert abs(np.mean(out)) <= 1e-2 * np.sqrt(np.mean(x**2))


def test_preprocess_constant_is_zeroed(q_table):
    out = preprocess_signal(np.full(2048, 5.0), FS, q_table)
    assert np.max(np.abs(out)) <= 1e-8


def test_preprocess_improves_snr(q_table, rng):
    n = 2048
    clean = _sine(1.3, n)
    noise = rng.standard_normal(n) * np.sqrt(np.mean(clean**2) / 10.0)  # 10 dB SNR
    x = clean + noise

    def snr_db(est):
        return 10 * np.log10(np.sum(clean**2) / np.sum((est - clean) ** 2))

    out = preprocess_signal(x, FS, q_table)
    assert snr_db(out) > snr_db(x)


def test_preprocess_keeps_fundamental(q_table, rng):
    n = 2048
    x = _sine(1.3, n) + 0.3 * rng.standard_normal(n)
    peak = spectrum_peak(x, FS)
    out = preprocess_signal(x, FS, q_table)

    def mag_at(sig, f):
        m = np.abs(np.fft.rfft(sig))
        freqs = np.fft.rfftfreq(len(sig), 1.0 / FS)
        return m[np.argmin(np.abs(freqs - f))]

    assert mag_at(out, peak.frequency_hz) >= 0.7 * mag_at(x, peak.frequency_hz)


def test_baseline_removal_idempotent(q_table):
    # Pulse-shaped window: narrow systolic upstrokes put most energy in
    # harmonics, clear of the residual band, so re-removal finds ~nothing.
    n = 2048
    rng = np.random.default_rng(3)
    t = np.arange(n) / FS
    beats = np.zeros(n)
    period = int(FS / 1.25)
    for k in range(0, n - period, period):
        m = np.arange(period)
        beats[k : k + period] += np.clip(np.sin(np.pi * m / (0.4 * period)), 0, None) ** 2
    x = beats + 0.4 * _sine(0.06, n) + 0.03 * rng.standard_normal(n)

    out = preprocess_signal(x, FS, q_table)
    q = select_q(spectrum_peak(out, FS), q_table)
    params = TqwtParams(q=q, r=q_table.r, levels=q_table.level)
    sb = decompose(out, params)
    sb.lowpass = np.zeros_like(sb.lowpass)
    again = reconstruct(sb, params)
    rel = np.sqrt(np.mean((again - out) ** 2)) / np.sqrt(np.mean(out**2))
    assert rel <= 0.01


def test_baseline_estimate_linearity(q_table, rng):
    # Synthesis is linear in the subbands: keeping only the lowpass gives a
    # baseline whose complement equals reconstructing without the lowpass.
    x = _sine(1.2, 2048) + _sine(0.03, 2048, amp=1.5) + 0.1 * rng.standard_normal(2048)
    params = TqwtParams(q=1.1, r=3.0, levels=10)
    sb_full = decompose(x, params)

    sb_base = replace(sb_full, highpass=[np.zeros_like(h) for h in sb_full.highpass])
    baseline = reconstruct(sb_base, params)

    sb_nolow = replace(sb_full, lowpass=np.zeros_like(sb_full.lowpass))
    detrended = reconstruct(sb_nolow, params)

    assert np.allclose(x - baseline, detrended, atol=1e-9)


def test_zeroed_lowpass_removes_mean(q_table, rng):
    x = rng.standard_normal(2048) + 5.0
    params = TqwtParams(q=1.08, r=3.0, levels=10)
    sb = decompose(x, params)
    sb.lowpass = np.zeros_like(sb.lowpass)
    out = reconstruct(sb, params)
    assert abs(np.mean(out)) <= 1e-3 * np.sqrt(np.mean(x**2))



def test_preprocess_signal_is_denoise_at_selected_q(q_table):
    x = _sine(1.3, 2048) + _sine(0.05, 2048, amp=0.7)
    q = select_q(spectrum_peak(x, FS), q_table)
    assert np.array_equal(preprocess_signal(x, FS, q_table), denoise_window(x, q, q_table))


def _row(sb: SubbandSet, i: int) -> SubbandSet:
    return SubbandSet([h[i] for h in sb.highpass], sb.lowpass[i], sb.n_signal, sb.n_padded)


@pytest.mark.parametrize("q", [FALLBACK_Q, 1.0, 1.23])
def test_stacked_denoise_equals_rows_bit_for_bit(q, q_table, rng):
    # Row 0 is all zero (sigma = 0), row 1 loses its five coarsest bands,
    # rows 2-3 are noisy sines; row 4 stands alone as K = 1 below.
    n = 2000
    x = np.stack([_sine(f, n) + 0.2 * rng.standard_normal(n) for f in (1.1, 1.3, 1.7, 2.1, 2.9)])
    x[0] = 0.0
    params = TqwtParams(q=q, r=q_table.r, levels=q_table.level)
    sb = decompose(x, params)
    for band in sb.highpass[5:]:
        band[1] = 0.0

    stacked = rigrsure_soft_denoise(sb)
    for i in range(x.shape[0]):
        single = rigrsure_soft_denoise(_row(sb, i))
        for got, want in zip(stacked.highpass, single.highpass):
            assert got[i].tobytes() == want.tobytes()
    assert not any(np.any(h[0]) for h in stacked.highpass)
    assert not any(np.any(h[1]) for h in stacked.highpass[5:])

    out = denoise_window(x, q, q_table)
    for i, row in enumerate(x):
        assert out[i].tobytes() == denoise_window(row, q, q_table).tobytes()
    assert denoise_window(x[4:], q, q_table)[0].tobytes() == out[4].tobytes()


def test_sure_threshold_rows_match_single_calls(rng):
    coeffs = rng.standard_normal((3, 257)) * np.array([[0.5], [2.0], [7.0]])
    sigma = np.array([[0.4], [1.1], [2.5]])
    t = sure_threshold(coeffs, sigma)
    assert t.shape == (3, 1)
    for row, s, got in zip(coeffs, sigma[:, 0], t[:, 0]):
        assert got == sure_threshold(row, float(s))[0]
        assert got == pytest.approx(_sure_oracle(row.tolist(), float(s)), abs=1e-12)


@pytest.mark.parametrize("drift", [0.0, 0.25, 0.5])
def test_spectrum_peak_finds_the_heart_rate_under_baseline_wander(drift):
    # Four 240 s records, fifteen 16 s windows each.  A hit is a peak within
    # 0.2 Hz of the window's median beat rate.  Measured: at least 57 of 60
    # windows hit on each channel at every drift.  A spectrum scaled by the
    # wander's own peak below 0.5 Hz hits none at drift 0.5.
    window, hits = 2000, {"ecg": 0, "ppg": 0}
    for i, hr in enumerate((64.0, 78.0, 91.0, 104.0)):
        rec = generate(SyntheticConfig(duration_s=240.0, heart_rate_bpm=hr, seed=40 + i,
                                       ecg_drift=drift, ppg_drift=1.4 * drift))
        for lo in range(0, rec.ecg.size - window + 1, window):
            beats = rec.beat_times[(rec.beat_times >= lo / FS) & (rec.beat_times < (lo + window) / FS)]
            rate = 1.0 / np.median(np.diff(beats))
            for channel in hits:
                peak = spectrum_peak(getattr(rec, channel)[lo : lo + window], FS)
                hits[channel] += peak is not None and abs(peak.frequency_hz - rate) <= 0.2
    assert hits["ecg"] >= 54 and hits["ppg"] >= 54, hits  # 90 % of the 60 windows


# The one-window spectrum scan and the plain shrinkage expressions, kept as
# references: the stacked and in-place forms must give the same bits.
def _ref_spectrum_peak(x, fs):
    mag = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(x.size, d=1.0 / fs)
    width = max(1, int(round(SPECTRUM_SMOOTH_HZ / (freqs[1] - freqs[0]))))
    width += width % 2 == 0
    if width > 1:
        mag = np.convolve(mag, np.full(width, 1.0 / width), mode="same")
    top = np.max(mag[freqs >= PROMINENCE_WINDOW_HZ[0]])
    if top > 0:
        mag = mag / top
    maxima = np.nonzero((mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:]))[0] + 1
    minima = np.nonzero((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))[0] + 1
    lo_hz, hi_hz = PROMINENCE_WINDOW_HZ
    for k in maxima[(freqs[maxima] >= FUNDAMENTAL_BAND_HZ[0]) & (freqs[maxima] <= FUNDAMENTAL_BAND_HZ[1])]:
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
        prom = float(mag[k] - max(left_ref, right_ref))
        if prom > PROMINENCE_FLOOR:
            below = minima[minima < k]
            left_end = float(freqs[below[-1]]) if below.size and freqs[below[-1]] > 0 else float(freqs[k]) / 2.0
            return FundamentalPeak(float(freqs[k]), float(mag[k]), prom, left_end)
    return None


def _ref_sure_threshold(coeffs, sigma):
    w = np.asarray(coeffs, dtype=float) / sigma
    n = w.shape[-1]
    sx2 = np.sort(w * w, axis=-1)
    cumsum = np.cumsum(sx2, axis=-1)
    k = np.arange(1, n + 1)
    risk = (n - 2.0 * k + cumsum + (n - k) * sx2) / n
    best = np.take_along_axis(sx2, np.argmin(risk, axis=-1)[..., None], axis=-1)
    return sigma * np.sqrt(best)


def _ref_soft_shrink(values, threshold):
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def _ref_denoise_bands(highpass):
    sigma = np.median(np.abs(highpass[0]), axis=-1, keepdims=True) / 0.6745
    usable = (sigma > 0.0) & np.isfinite(sigma)
    sigma = np.where(usable, sigma, 1.0)
    out = []
    for band in highpass:
        keep = usable & np.any(band, axis=-1, keepdims=True)
        out.append(np.where(keep, _ref_soft_shrink(band, _ref_sure_threshold(band, sigma)), band))
    return out


def test_stacked_spectra_give_the_one_window_peaks():
    # Heart rates 64-104 bpm under drift, a pure tone, a constant and zeros
    # (no peak), at two window lengths.
    for n in (2000, 2048):
        rows = [_sine(1.5, n), np.full(n, 3.0), np.zeros(n), _sine(6.0, n)]
        for i, hr in enumerate((64.0, 91.0, 104.0)):
            rec = generate(SyntheticConfig(duration_s=70.0, heart_rate_bpm=hr, seed=50 + i, ecg_drift=0.3))
            rows += [rec.ecg[lo : lo + n] for lo in range(0, rec.ecg.size - n + 1, n)]
            rows += [rec.ppg[lo : lo + n] for lo in range(0, rec.ppg.size - n + 1, n)]
        want = [_ref_spectrum_peak(x, FS) for x in rows]
        freqs, mags = smoothed_spectra(np.stack(rows), FS)
        assert [first_peak(freqs, mag) for mag in mags] == want
        assert [spectrum_peak(x, FS) for x in rows] == want
        assert sum(p is None for p in want) >= 3
    assert smoothed_spectra(np.empty((0, 2000)), FS)[1].shape == (0, 1001)
    with pytest.raises(PreprocessError):
        smoothed_spectra(np.ones((2, 100)), FS)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 64),
    n=st.integers(1, 1100),
    seed=st.integers(0, 2**32 - 1),
    scalar_sigma=st.booleans(),
)
def test_in_place_shrinkage_is_bit_equal_to_the_plain_expressions(rows, n, seed, scalar_sigma):
    rng = np.random.default_rng(seed)
    band = rng.standard_normal((rows, n)) * rng.uniform(0.01, 50.0, (rows, 1))
    band[rng.random(rows) < 0.2] = 0.0  # all-zero rows
    sigma = float(rng.uniform(0.1, 5.0)) if scalar_sigma else rng.uniform(0.1, 5.0, (rows, 1))
    t = sure_threshold(band, sigma)
    assert t.tobytes() == _ref_sure_threshold(band, sigma).tobytes()
    assert soft_shrink(band, t).tobytes() == _ref_soft_shrink(band, t).tobytes()
    if scalar_sigma:
        assert soft_shrink(band[0], float(t[0, 0])).tobytes() == _ref_soft_shrink(band[0], float(t[0, 0])).tobytes()

    # Rows whose finest band is zero or holds a NaN have no noise scale and
    # pass through (masked).
    width = 2 * n - int(rng.integers(2))  # odd and even: one or two middle values
    finest = rng.standard_normal((rows, width)) * rng.uniform(0.01, 5.0, (rows, 1))
    finest[rng.random(rows) < 0.3] = 0.0
    finest[rng.random(rows) < 0.1, rng.integers(width)] = np.nan
    highpass = [finest, band, band[:, : (n + 1) // 2].copy()]
    got = rigrsure_soft_denoise(SubbandSet(highpass, np.zeros((rows, 4)), 4 * n, 4 * n))
    for a, b in zip(got.highpass, _ref_denoise_bands(highpass)):
        assert a.tobytes() == b.tobytes()


def test_stacked_denoise_workspace_per_row(q_table, rng):
    # With the noisy subbands alive beside the shrunk ones through synthesis
    # and several band-sized SURE temporaries, a row took 156-182 KB; the
    # in-place shrinkage takes 113-120 KB per row, output included.
    x = rng.standard_normal((32, 2000))
    for q in (1.0, 1.2, 1.4):
        denoise_window(x, q, q_table)  # fills the level-geometry cache
        tracemalloc.start()
        try:
            denoise_window(x, q, q_table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / x.shape[0] <= 135 * 1024, (q, peak / x.shape[0] / 1024)

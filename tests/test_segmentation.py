import shutil
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bpnet import segmentation
from bpnet.config import parse_config
from bpnet.pipeline import stage_segment
from bpnet.segmentation import (
    FEATURE_DIM,
    ChannelStats,
    DatasetError,
    SegmentationError,
    Sequences,
    _adaptive_pick,
    _dedupe_refractory,
    _moving_average,
    _plateau_extrema,
    _refine_peaks,
    build_sequences,
    detect_ppg_peaks,
    load_dataset,
    resample_spans,
    save_dataset,
    span_features,
    span_targets,
    split_and_standardize,
)
from bpnet.synthetic import SyntheticConfig, generate

FS = 125.0


def _pulse_train(n_pulses, f0=1.2, fs=FS, start=0.3, dicrotic=0.0, lead_out=1.0):
    """Raised-cosine-upstroke pulses; returns (signal, apex indices)."""
    duration = start + n_pulses / f0 + lead_out
    n = int(duration * fs)
    t = np.arange(n) / fs
    sig = np.zeros(n)
    period = 1.0 / f0
    apexes = []
    for k in range(n_pulses):
        tk = start + k * period
        ph = (t - tk) / period
        mask = (ph >= 0) & (ph < 1)
        pulse = np.zeros(n)
        pulse[mask] = np.sin(np.pi * np.clip(ph[mask] / 0.35, 0, 1)) ** 2 * np.exp(-2.0 * ph[mask])
        if dicrotic:
            pulse[mask] += dicrotic * np.exp(-0.5 * ((ph[mask] - 0.55) / 0.06) ** 2)
        apexes.append(int(np.argmax(pulse)))
        sig += pulse
    return sig, np.array(apexes)


class TestPpgPeaks:
    def test_raised_cosine_train_apexes(self):
        sig, apexes = _pulse_train(11)
        detected = detect_ppg_peaks(sig, FS)
        assert len(detected) == len(apexes)
        assert np.max(np.abs(detected - apexes)) <= 1

    def test_dicrotic_bump_not_detected(self):
        sig, apexes = _pulse_train(11, dicrotic=0.40)
        detected = detect_ppg_peaks(sig, FS)
        assert len(detected) == len(apexes)
        for d in detected:
            assert np.min(np.abs(apexes - d)) <= 2

    def test_flat_signal_rejected(self):
        with pytest.raises(SegmentationError, match="PPG peaks"):
            detect_ppg_peaks(np.zeros(int(8 * FS)), FS)

    def test_refine_matches_per_peak_loop(self):
        """The gathered refine step picks np.argmax's index, at both edges and among ties."""

        def loop(x, coarse, half):
            refined = []
            for idx in coarse:
                lo, hi = max(0, idx - half), min(x.size, idx + half + 1)
                refined.append(lo + int(np.argmax(x[lo:hi])))
            return refined

        rng = np.random.default_rng(11)
        for _ in range(5000):
            x = rng.integers(0, 4, rng.integers(1, 60)).astype(float)
            half = int(rng.integers(0, 12))
            coarse = np.unique(np.concatenate([[0, x.size - 1], rng.integers(0, x.size, rng.integers(0, 6))]))
            assert _refine_peaks(x, coarse, half).tolist() == loop(x, coarse, half), (x, coarse, half)
        assert _refine_peaks(np.zeros(5), np.zeros(0, dtype=np.intp), 2).size == 0


def _scan_maxima(x):
    """Reference per-sample scan: the centre of each run whose neighbours are both lower."""
    n, maxima, i = x.size, [], 1
    while i < n - 1:
        if x[i] > x[i - 1]:
            j = i
            while j < n - 1 and x[j + 1] == x[i]:
                j += 1
            if j < n - 1 and x[j + 1] < x[i]:
                maxima.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return np.asarray(maxima, dtype=int)


class TestPlateauExtrema:
    def test_matches_reference_scan_on_tie_heavy_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(12_000):
            x = rng.integers(0, 4, rng.integers(0, 41)).astype(float)
            maxima, minima = _plateau_extrema(x)
            assert np.array_equal(maxima, _scan_maxima(x)), x
            assert np.array_equal(minima, _scan_maxima(-x)), x

    def test_plateau_centres_and_open_ends(self):
        x = np.array([5.0, 1, 3, 3, 3, 3, 0, 0, 0, 2, 2])
        maxima, minima = _plateau_extrema(x)
        # The leading 5 and the trailing 2-run each have one neighbour only.
        assert maxima.tolist() == [3] and minima.tolist() == [1, 7]


def _span(lo, hi):
    """One-span `lo`, `hi` arrays for the span functions."""
    return np.array([lo]), np.array([hi])


class TestFeatureVector:
    def test_identity_resample_256(self):
        ecg = np.sin(np.arange(600) * 0.04)
        ppg = np.cos(np.arange(600) * 0.03)
        (fv,), (code,) = span_features(ecg, ppg, *_span(100, 356), FS)
        assert fv.shape == (FEATURE_DIM,) and code == 0
        assert np.max(np.abs(fv[:256] - ecg[100:356])) <= 1e-12
        assert np.max(np.abs(fv[256:512] - ppg[100:356])) <= 1e-12
        assert fv[-1] == pytest.approx(1.0)

    def test_linear_ramp_preserved(self):
        ramp = np.linspace(0.0, 1.0, 300)
        (fv,), _ = span_features(ramp, ramp, *_span(0, 300), FS)
        expected = np.linspace(0.0, 1.0, 256)
        assert np.max(np.abs(fv[:256] - expected)) <= 1e-9

    def test_norm_length_arithmetic(self):
        ecg = np.zeros(400)
        (fv,), _ = span_features(ecg, ecg, *_span(50, 300), FS)
        assert fv[-1] == pytest.approx(250.0 / 256.0)

    def test_endpoints_preserved(self, rng):
        x = rng.standard_normal(500)
        (fv,), _ = span_features(x, x, *_span(17, 417), FS)
        assert fv[0] == pytest.approx(x[17], abs=1e-12)
        assert fv[255] == pytest.approx(x[416], abs=1e-12)

    def test_rejects_short_and_long(self):
        x = np.zeros(3000)
        _, (code,) = span_features(x, x, *_span(0, 10), FS)
        assert code == 2  # shorter than 16 samples
        _, (code,) = span_features(x, x, *_span(0, int(10 * FS) + 1), FS)
        assert code == 3  # longer than 10 s


class TestTargets:
    def test_constant_abp_rejected(self):
        _, (code,) = span_targets(np.full(300, 100.0), FS, *_span(0, 300))
        assert code == 6  # no detectable beats

    def test_sinusoidal_abp(self):
        # Analytic extrema: 100 +/- 20 over two full cycles at 1.2 Hz.
        n = int(2 / 1.2 * FS) + 1
        t = np.arange(n) / FS
        abp = 100 + 20 * np.sin(2 * np.pi * 1.2 * t)
        ((sbp, dbp),), (code,) = span_targets(abp, FS, *_span(0, n))
        assert code == 0
        assert sbp == pytest.approx(120.0, abs=0.5)
        assert dbp == pytest.approx(80.0, abs=0.5)

    def test_two_beat_averaging(self):
        seg = np.concatenate(
            [
                np.linspace(80, 118, 40), np.linspace(118, 78, 40),
                np.linspace(78, 122, 40), np.linspace(122, 82, 40),
                np.linspace(82, 100, 20),
            ]
        )
        ((sbp, dbp),), (code,) = span_targets(seg, FS, *_span(0, seg.size))
        assert code == 0
        assert sbp == pytest.approx(120.0)
        assert dbp == pytest.approx(80.0)

    def test_implausible_values_rejected(self):
        n = int(2 / 1.2 * FS) + 1
        t = np.arange(n) / FS
        too_high = 400 + 20 * np.sin(2 * np.pi * 1.2 * t)
        _, (code,) = span_targets(too_high, FS, *_span(0, n))
        assert code == 7  # implausible pressures


def _aligned_triple(n_pulses, f0=1.2):
    ppg, _ = _pulse_train(n_pulses, f0=f0)
    n = ppg.size
    t = np.arange(n) / FS
    ecg = 0.5 * ppg
    abp = 100 + 20 * np.sin(2 * np.pi * f0 * (t - 0.05))
    return ecg, ppg, abp


class TestSequences:
    def test_counting_rule(self):
        for n_pulses, m, expected in [(12, 10, 1), (11, 10, 0), (5, 1, 3)]:
            ecg, ppg, abp = _aligned_triple(n_pulses)
            seqs = build_sequences(ecg, ppg, abp, FS, m, patient_id="p")
            assert len(seqs) == expected, (n_pulses, m)

    def test_sequence_structure(self):
        ecg, ppg, abp = _aligned_triple(14)
        seqs = build_sequences(ecg, ppg, abp, FS, 10, patient_id="p")
        for seq in seqs:
            assert seq.m == 10
            arr = seq.input_array()
            assert arr.shape == (10, FEATURE_DIM)
            assert np.all(np.isfinite(arr))
            assert seq.target_array().shape == (10, 2)

    def test_overlap_by_one_peak(self):
        ecg, ppg, abp = _aligned_triple(14)
        peaks = detect_ppg_peaks(ppg, FS)
        seqs = build_sequences(ecg, ppg, abp, FS, 3, patient_id="p")
        # Raw segment lengths track the peak spacing; consecutive vectors
        # share two of their three anchor peaks.
        for seq in seqs:
            lengths = seq.input_array()[:, -1] * 256
            spans = np.diff(peaks)
            for j, ln in enumerate(lengths):
                assert any(
                    abs(ln - (spans[i] + spans[i + 1])) < 1e-9 for i in range(len(spans) - 1)
                )

    def test_start_indices_strictly_increase(self):
        ecg, ppg, abp = _aligned_triple(16)
        seqs = build_sequences(ecg, ppg, abp, FS, 4, patient_id="p")
        starts = [int(s.start) for s in seqs]
        assert all(b > a for a, b in zip(starts, starts[1:]))

    def test_given_peaks_equal_detected(self):
        ecg, ppg, abp = _aligned_triple(20)
        abp[300:700] = 400.0  # some rejected spans
        detected = build_sequences(ecg, ppg, abp, FS, 3, patient_id="p", index_offset=80)
        given = build_sequences(
            ecg, ppg, abp, FS, 3, patient_id="p", index_offset=80, peaks=detect_ppg_peaks(ppg, FS)
        )
        assert given.m == detected.m and 0 < len(given) < 16  # 18 rows, 16 sequences unless rejected
        for field in ("vectors", "targets", "first", "patient", "start"):
            a, b = getattr(given, field), getattr(detected, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field


    def test_batch_equals_its_windows_joined(self):
        ecg, ppg, abp = _aligned_triple(60)
        abp[300:400] = 400.0  # rejected spans in the first window
        cuts = [0, 1000, 1300, 2600, ecg.size]
        windows = [(a, detect_ppg_peaks(ppg[a:b], FS)) for a, b in zip(cuts[:-1], cuts[1:])]
        windows[1] = (1000, windows[1][1][:4])  # two spans: fewer than M
        batch = build_sequences(ecg, ppg, abp, FS, 3, patient_id="p", index_offset=7, windows=windows)
        bounds = dict(zip(cuts[:-1], cuts[1:]))
        parts = [
            build_sequences(ecg[a : bounds[a]], ppg[a : bounds[a]], abp[a : bounds[a]], FS, 3, patient_id="p",
                            index_offset=7 + a, peaks=peaks)
            for a, peaks in windows
        ]
        assert len(parts[1]) == 0 and all(len(p) for p in parts[::2])
        joined = Sequences.concat([p for p in parts if len(p)])
        for field in ("vectors", "targets", "first", "patient", "start"):
            a, b = getattr(batch, field), getattr(joined, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        with pytest.raises(ValueError, match="not both"):
            build_sequences(ecg, ppg, abp, FS, 3, peaks=windows[0][1], windows=windows)


class TestRejectedVectors:
    def test_rejected_vector_drops_its_sequences(self):
        ecg, ppg, abp = _aligned_triple(20)
        peaks = detect_ppg_peaks(ppg, FS)
        abp[peaks[9] : peaks[10]] = 400.0  # implausible pressure inside two-cycle spans
        m = 3
        seqs = build_sequences(ecg, ppg, abp, FS, m, patient_id="p", index_offset=1000)
        # Reference: the per-vector loop over every candidate start.
        ok = []
        for i in range(peaks.size - 2):
            span = _span(peaks[i], peaks[i + 2])
            ok.append(span_features(ecg, ppg, *span, FS)[1][0] == 0 and span_targets(abp, FS, *span)[1][0] == 0)
        starts = [s for s in range(len(ok) - m + 1) if all(ok[s : s + m])]
        assert not all(ok) and starts
        assert seqs.first.tolist() == starts
        assert seqs.start.tolist() == [1000 + int(peaks[s]) for s in starts]
        assert set(seqs.patient.tolist()) == {"p"}


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_resampling_equals_np_interp_bytes(data):
    lengths = data.draw(st.lists(st.integers(16, 1250), min_size=1, max_size=5), label="lengths")
    lo = np.array([data.draw(st.integers(0, 300), label="lo") for _ in lengths])
    hi = lo + lengths
    palette = data.draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=6),
        label="palette",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    size = int(hi.max()) + 7
    x = rng.standard_normal((2, size)) * 10.0 ** rng.integers(-3, 4, (2, size))
    pick = rng.random((2, size))
    x[pick < 0.2] = rng.choice(np.array(palette + [-0.0, 0.0]), (2, size))[pick < 0.2]
    x[pick > 0.9] = -0.0
    x[:, size // 3 : size // 2] = x[:, size // 3 : size // 3 + 1]  # a run of repeated samples
    rows = resample_spans(x, lo, hi)
    assert rows.shape == (2, len(lengths), 256)
    for c in range(2):
        assert resample_spans(x[c], lo, hi).tobytes() == rows[c].tobytes()
        for s, (a, b) in enumerate(zip(lo, hi)):
            ref = np.interp(np.linspace(0.0, b - a - 1.0, 256), np.arange(b - a, dtype=float), x[c, a:b])
            assert rows[c, s].tobytes() == ref.tobytes(), (c, s)


# Reference: the pick loops as they were, indexing one numpy scalar per
# candidate; the list-based loops must pick exactly the same indices.
def _reference_adaptive_pick(envelope, candidates, fs, refractory_s, signal_weight):
    if candidates.size == 0:
        return []
    refractory = int(round(refractory_s * fs))
    lead = envelope[: min(envelope.size, int(2 * fs))]
    signal_level = float(np.max(lead))
    noise_level = float(np.mean(lead))
    threshold = noise_level + signal_weight * (signal_level - noise_level)
    accepted = []
    for idx in candidates:
        if accepted and idx - accepted[-1] < refractory:
            if envelope[idx] > envelope[accepted[-1]]:
                accepted[-1] = int(idx)
            continue
        if envelope[idx] > threshold:
            accepted.append(int(idx))
            signal_level = 0.125 * envelope[idx] + 0.875 * signal_level
        else:
            noise_level = 0.125 * envelope[idx] + 0.875 * noise_level
        threshold = noise_level + signal_weight * (signal_level - noise_level)
    return accepted


def _reference_dedupe_refractory(indices, strength, refractory):
    kept = []
    for idx in sorted(indices):
        if kept and idx - kept[-1] < refractory:
            if strength[idx] > strength[kept[-1]]:
                kept[-1] = idx
        else:
            kept.append(idx)
    return np.asarray(kept, dtype=int)


def _reference_detect_ppg_peaks(ppg, fs):
    x = np.asarray(ppg, dtype=float)
    smooth = _moving_average(x, int(round(0.04 * fs)))
    coarse = _reference_adaptive_pick(smooth, _plateau_extrema(smooth)[0], fs, 0.3, signal_weight=0.5)
    refined = _refine_peaks(x, np.asarray(coarse, dtype=np.intp), int(round(0.06 * fs)))
    return _reference_dedupe_refractory(refined.tolist(), x, int(round(0.3 * fs)))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_peak_pick_loops_match_numpy_scalar_reference(data):
    n = data.draw(st.integers(200, 1500), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    palette = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4), label="palette")
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    tie = rng.random(n) < 0.3
    x[tie] = rng.choice(np.array(palette), n)[tie]
    fs = data.draw(st.sampled_from([50.0, 125.0, 250.0]), label="fs")
    refractory_s = data.draw(st.floats(0.0, 1.0), label="refractory_s")
    weight = data.draw(st.floats(0.0, 1.0), label="signal_weight")
    candidates = np.unique(rng.integers(0, n, data.draw(st.integers(0, n), label="n_candidates")))
    got = _adaptive_pick(x, candidates, fs, refractory_s, weight)
    assert got == _reference_adaptive_pick(x, candidates, fs, refractory_s, weight)
    assert all(type(idx) is int for idx in got)

    indices = rng.integers(0, n, data.draw(st.integers(0, 60), label="n_indices")).tolist()
    refractory = data.draw(st.integers(1, 80), label="refractory")
    order = sorted(indices)
    kept = _dedupe_refractory(order, x[order].tolist(), refractory)
    assert kept.tolist() == _reference_dedupe_refractory(indices, x, refractory).tolist()

    want = _reference_detect_ppg_peaks(x, FS)
    if want.size < 3:
        with pytest.raises(SegmentationError):
            detect_ppg_peaks(x, FS)
    else:
        assert detect_ppg_peaks(x, FS).tolist() == want.tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ppg_peaks_on_synthetic_windows_match_reference(seed):
    ppg = generate(SyntheticConfig(duration_s=120.0, seed=seed)).ppg
    for lo in range(0, ppg.size - 2000 + 1, 2000):
        window = ppg[lo : lo + 2000]
        assert detect_ppg_peaks(window, FS).tolist() == _reference_detect_ppg_peaks(window, FS).tolist()


def _reference_targets(abp, lo, hi):
    """Per-span SBP/DBP as computed span by span on ``abp[lo:hi]`` alone, or None."""
    seg = abp[lo:hi]
    bottom, top = float(np.min(seg)), float(np.max(seg))
    if top - bottom <= 1e-9:
        return None
    mid = 0.5 * (bottom + top)
    spacing = int(round(0.3 * FS))
    means = []
    for found, strength in zip(_plateau_extrema(seg), (seg, -seg)):
        kept = []
        for idx in found[strength[found] > (mid if strength is seg else -mid)]:
            if kept and idx - kept[-1] < spacing:
                if strength[idx] > strength[kept[-1]]:
                    kept[-1] = idx
            else:
                kept.append(idx)
        if not kept:
            return None
        means.append(float(np.mean(seg[kept])))
    sbp, dbp = means
    return (sbp, dbp) if 20.0 < dbp < sbp < 300.0 else None


def test_build_sequences_with_rejected_targets_matches_per_vector_loop():
    ecg, ppg, abp = _aligned_triple(24)
    peaks = detect_ppg_peaks(ppg, FS)
    abp[peaks[4] : peaks[7]] = 93.0  # flat: spans 4 and 5 see no beat
    abp[peaks[11] - 3 : peaks[11] + 9] = np.round(abp[peaks[11] - 3 : peaks[11] + 9])  # plateaus
    abp[peaks[14] : peaks[15]] += 250.0  # implausible systolic pressure
    m = 3
    seqs = build_sequences(ecg, ppg, abp, FS, m, patient_id="p")

    n = peaks.size - 2
    vectors, targets, ok = np.zeros((n, FEATURE_DIM)), np.zeros((n, 2)), np.zeros(n, dtype=bool)
    for i in range(n):
        lo, hi = peaks[i], peaks[i + 2]
        grid = np.linspace(0.0, hi - lo - 1.0, 256)
        waves = [np.interp(grid, np.arange(hi - lo, dtype=float), x[lo:hi]) for x in (ecg, ppg)]
        vectors[i] = np.concatenate(waves + [[(hi - lo) / 256.0]])
        pair = _reference_targets(abp, lo, hi)
        if pair is not None:
            targets[i], ok[i] = pair, True
    first = [s for s in range(n - m + 1) if ok[s : s + m].all()]
    assert 4 in np.flatnonzero(~ok) and 14 in np.flatnonzero(~ok) and first
    assert seqs.vectors.tobytes() == vectors.tobytes()
    assert seqs.targets.tobytes() == targets.tobytes()
    assert seqs.first.tolist() == first


def _walked_targets(abp, fs, lo, hi):
    """span_targets span by span: the extrema of ``abp[lo:hi]`` alone, each kind's
    beats through the _dedupe_refractory walk, then averaged."""
    spacing = int(round(0.3 * fs))
    pairs, codes = np.zeros((len(lo), 2)), np.zeros(len(lo), dtype=int)
    for s, (a, b) in enumerate(zip(lo, hi)):
        seg = abp[min(a, abp.size) : b]
        if seg.size == 0:
            codes[s] = 5
            continue
        mid = 0.5 * (seg.min() + seg.max())
        if seg.max() - seg.min() <= 1e-9:
            codes[s] = 6
            continue
        for col, (found, strength, level) in enumerate(zip(_plateau_extrema(seg), (seg, -seg), (mid, -mid))):
            found = found[strength[found] > level]
            picked = _dedupe_refractory(found.tolist(), strength[found].tolist(), spacing)
            if picked.size:
                pairs[s, col] = np.add.reduce(seg[picked]) / picked.size
            else:
                codes[s] = 6
        sbp, dbp = pairs[s]
        if codes[s] == 0 and not 20.0 < dbp < sbp < 300.0:
            codes[s] = 7
    return pairs, codes


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_array_dedupe_equals_the_walk(data):
    """Spans with and without candidates closer than 0.3 s, tied beats, plateaus and empty spans."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    knots = data.draw(st.integers(4, 40), label="knots")
    # Alternating high and low knots, 3 to 60 samples apart: like extrema two
    # gaps apart, often closer than the 38-sample spacing at 125 Hz.  Levels
    # come from a small palette, so beats tie.
    gaps = rng.integers(3, 61, knots)
    palette = np.array(data.draw(st.lists(st.floats(60.0, 180.0), min_size=1, max_size=4), label="palette"))
    level = rng.choice(palette, knots) + np.where(np.arange(knots) % 2, -40.0, 40.0)
    x = np.concatenate([np.linspace(a, b, g, endpoint=False) for a, b, g in zip(level[:-1], level[1:], gaps)])
    plateau = rng.integers(0, x.size - 4)
    x[plateau : plateau + 4] = x[plateau]
    n_spans = data.draw(st.integers(1, 12), label="n_spans")
    lo = rng.integers(0, x.size, n_spans)
    hi = lo + rng.integers(-5, 400, n_spans)  # some spans empty, some past the end
    empty = rng.random(n_spans) < 0.2
    hi[empty] = lo[empty]
    got_pairs, got_codes = span_targets(x, FS, lo, hi)
    want_pairs, want_codes = _walked_targets(x, FS, lo, np.clip(hi, 0, x.size))
    assert got_codes.tolist() == want_codes.tolist()
    assert got_pairs.tobytes() == want_pairs.tobytes()


def test_one_span_rejection_codes():
    x = np.zeros(400)
    for lo, hi, expected in [
        (50, 50, 1),  # peak order violation
        (-5, 100, 4),  # outside signal bounds
        (350, 450, 4),
    ]:
        (row,), (code,) = span_features(x, x, *_span(lo, hi), FS)
        assert code == expected and not row.any(), (lo, hi)
    _, (code,) = span_targets(x, FS, *_span(120, 100))
    assert code == 5  # empty ABP span
    n = int(2 / 1.2 * FS) + 1
    high = 400 + 20 * np.sin(2 * np.pi * 1.2 * np.arange(n) / FS)
    (pair,), (code,) = span_targets(high, FS, *_span(0, n))
    # An implausible span keeps the pair that failed.
    assert code == 7 and [f"{v:.1f}" for v in pair] == ["420.0", "380.0"]


def _toy_samples(count, patient="p0", m=4, start=0, rng=None):
    """`count` sequences of one patient, sliding by one row as in a window."""
    rng = rng or np.random.default_rng(0)
    rows = count + m - 1
    vectors = np.empty((rows, FEATURE_DIM))
    vectors[:, :256] = rng.standard_normal((rows, 256)) * 2 + 1.0
    vectors[:, 256:512] = rng.standard_normal((rows, 256)) * 3 - 0.5
    vectors[:, -1] = 0.9
    targets = np.column_stack([120.0 + rng.normal(size=rows), 80.0 + rng.normal(size=rows)])
    return Sequences(vectors, targets, np.arange(count), np.full(count, patient), start + np.arange(count), m)


class TestSplit:
    def test_fraction_counts(self):
        split = split_and_standardize(_toy_samples(100))
        assert (len(split.train), len(split.validation), len(split.test)) == (70, 10, 20)

    def test_train_standardized_to_unit_moments(self):
        split = split_and_standardize(_toy_samples(50))
        x = split.train.input_array()
        ecg_all, ppg_all = x[..., :256], x[..., 256:512]
        assert abs(np.mean(ecg_all)) <= 1e-9
        assert abs(np.std(ecg_all) - 1.0) <= 1e-9
        assert abs(np.mean(ppg_all)) <= 1e-9
        assert abs(np.std(ppg_all) - 1.0) <= 1e-9

    def test_stats_equal_numpy_moments_of_gathered_train_rows(self):
        samples = _toy_samples(50)
        raw = samples.vectors.copy()
        split = split_and_standardize(samples)
        ecg, ppg = (raw[:, lo : lo + 256][split.train.rows()].ravel() for lo in (0, 256))
        assert split.stats == ChannelStats(np.mean(ecg), np.std(ecg), np.mean(ppg), np.std(ppg))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stats_equal_numpy_moments_piece_by_piece(self, data):
        """Random tables, M, train selections and piece sizes: moments equal the gather's."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m = data.draw(st.integers(1, 12), label="m")
        n_rows = data.draw(st.integers(m, 150), label="rows")
        count = data.draw(st.integers(10, 90), label="sequences")
        train = data.draw(st.floats(0.1, 0.9), label="train fraction")
        validation = data.draw(st.floats(0.0, 1.0 - train), label="validation fraction")
        piece = data.draw(st.integers(8, 4096), label="piece")
        vectors = rng.standard_normal((n_rows, FEATURE_DIM)) * rng.uniform(0.1, 50.0, FEATURE_DIM)
        vectors += rng.uniform(-20.0, 20.0)
        patient = rng.choice(["a", "b", "c"], count)
        patient[:10] = "a"  # one patient always has enough sequences to split
        first = rng.integers(0, n_rows - m + 1, count)
        samples = Sequences(vectors, np.zeros((n_rows, 2)), first, patient, rng.permutation(count), m)
        raw = vectors.copy()
        with mock.patch.object(segmentation, "SUM_PIECE", piece), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # patients below the sequence minimum
            split = split_and_standardize(samples, (train, validation, 1.0 - train - validation))
        ecg, ppg = (raw[:, lo : lo + 256][split.train.rows()].ravel() for lo in (0, 256))
        assert split.stats == ChannelStats(np.mean(ecg), np.std(ecg), np.mean(ppg), np.std(ppg))

    def test_moments_traced_peak_below_quarter_of_gather(self):
        samples = _toy_samples(1200, m=10)
        raw = samples.vectors.copy()
        gather_bytes = 840 * 10 * 256 * 8  # one channel of the 840 train sequences' rows
        assert gather_bytes >= 16 * 2**20
        tracemalloc.start()
        try:
            split = split_and_standardize(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(split.train) == 840
        assert peak < gather_bytes / 4, (peak, gather_bytes)
        ecg, ppg = (raw[:, lo : lo + 256][split.train.rows()].ravel() for lo in (0, 256))
        assert split.stats == ChannelStats(np.mean(ecg), np.std(ecg), np.mean(ppg), np.std(ppg))

    def test_validation_uses_train_statistics(self):
        rng = np.random.default_rng(1)
        samples = _toy_samples(50, rng=rng)
        # Shift the rows only validation/test sequences hold so their own moments differ.
        samples.vectors[samples.first[35] + samples.m - 1 :, :256] += 4.0
        split = split_and_standardize(samples)
        val_ecg = split.validation.input_array()[..., :256]
        assert abs(np.mean(val_ecg)) > 0.5  # standardized with train stats, not its own

    def test_chronological_no_leakage(self):
        samples = _toy_samples(60, start=0)
        split = split_and_standardize(samples)
        train_max = max(split.train.start)
        val_idx = split.validation.start
        test_min = min(split.test.start)
        assert train_max < min(val_idx)
        assert max(val_idx) < test_min

    def test_small_patient_excluded_with_warning(self):
        samples = Sequences.concat([_toy_samples(40, patient="big"), _toy_samples(5, patient="tiny", start=1000)])
        with pytest.warns(UserWarning, match="tiny"):
            split = split_and_standardize(samples)
        patients = set(np.concatenate([split.train.patient, split.validation.patient, split.test.patient]))
        assert patients == {"big"}

    def test_norm_length_and_targets_untouched(self):
        samples = _toy_samples(20)
        raw_norm = samples[0].input_array()[0, -1]
        raw_sbp = samples[0].target_array()[0, 0]
        split = split_and_standardize(samples)
        assert split.train[0].input_array()[0, -1] == raw_norm
        assert split.train[0].target_array()[0, 0] == raw_sbp

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            split_and_standardize(_toy_samples(20), fractions=(0.5, 0.2, 0.2))


class TestSequencesTable:
    def test_rows_shared_by_overlapping_sequences(self):
        seqs = _toy_samples(6, m=3)
        x = seqs.input_array()
        assert x.shape == (6, 3, FEATURE_DIM)
        assert seqs.target_array().shape == (6, 3, 2)
        # Sequence i+1 starts one row after sequence i.
        assert np.array_equal(x[1:, :-1], x[:-1, 1:])

    def test_iteration_and_slicing(self):
        seqs = _toy_samples(6, m=3, start=40)
        rows = list(seqs)
        assert len(rows) == len(seqs) == 6
        assert np.array_equal(rows[2].input_array(), seqs.input_array()[2])
        assert rows[2].input_array().shape == (3, FEATURE_DIM)
        assert int(rows[2].start) == 42 and str(rows[2].patient) == "p0"
        tail = seqs[3:]
        assert len(tail) == 3 and tail.vectors is seqs.vectors
        picked = seqs[np.array([5, 0])]
        assert np.array_equal(picked.start, [45, 40])
        masked = seqs[seqs.start % 2 == 0]
        assert np.array_equal(masked.input_array(), seqs.input_array()[::2])

    def test_concat_offsets_rows(self):
        a, b = _toy_samples(3, patient="a", m=2), _toy_samples(4, patient="b", m=2, rng=np.random.default_rng(5))
        both = Sequences.concat([a, b])
        assert len(both) == 7
        assert np.array_equal(both.input_array(), np.concatenate([a.input_array(), b.input_array()]))
        assert list(both.patient) == ["a"] * 3 + ["b"] * 4

    def test_concat_generator_equals_list(self):
        parts = [
            _toy_samples(3, patient="a", m=2),
            _toy_samples(4, patient="bb", m=2, rng=np.random.default_rng(5)),
            _toy_samples(2, patient="c", m=2, start=9, rng=np.random.default_rng(6)),
        ]
        listed = Sequences.concat(parts)
        reserved = Sequences.concat((p for p in parts), 20)  # 12 rows used
        assert len(reserved.vectors) == len(listed.vectors) == 12
        for field in ("vectors", "targets", "first", "patient", "start"):
            a, b = getattr(reserved, field), getattr(listed, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert reserved.m == listed.m == 2
        with pytest.raises(ValueError, match="11 rows reserved"):
            Sequences.concat(iter(parts), 11)
        with pytest.raises(ValueError, match="no parts"):
            Sequences.concat(iter([]), 5)

    @pytest.mark.parametrize("rows", [None, 0])
    def test_concat_of_no_rows(self, rows):
        empty = _toy_samples(1)[:0]
        empty.vectors, empty.targets = empty.vectors[:0], empty.targets[:0]
        joined = Sequences.concat([empty, empty], rows)
        assert len(joined) == 0
        assert joined.vectors.shape == (0, FEATURE_DIM) and joined.targets.shape == (0, 2)

    def test_shared_rows_standardized_once(self):
        samples = _toy_samples(50)
        raw = samples.input_array().copy()
        split = split_and_standardize(samples)
        s = split.stats
        for part in (split.train, split.validation, split.test):
            assert part.vectors is samples.vectors
        expected = raw.copy()
        expected[..., :256] = (raw[..., :256] - s.ecg_mean) / s.ecg_std
        expected[..., 256:512] = (raw[..., 256:512] - s.ppg_mean) / s.ppg_std
        assert np.array_equal(samples.input_array(), expected)


def _reference_bpseq(split) -> bytes:
    """BPSEQ2 bytes written field by field, as the format describes."""
    table, s = split.train, split.stats
    first = np.concatenate([split.train.first, split.validation.first, split.test.first])
    out = [b"BPSEQ2", struct.pack("<IIII", first.size, len(table.vectors), table.m, FEATURE_DIM)]
    out.append(struct.pack("<dddd", s.ecg_mean, s.ecg_std, s.ppg_mean, s.ppg_std))
    out.append(table.vectors.astype("<f4").tobytes())
    out.append(table.targets.astype("<f4").tobytes())
    out.append(first.astype("<u4").tobytes())
    return b"".join(out)


class TestDatasetFile:
    def test_roundtrip(self, tmp_path):
        split = split_and_standardize(_toy_samples(30))
        path = tmp_path / "data.bpseq"
        save_dataset(split, path)
        assert path.read_bytes()[:6] == b"BPSEQ2"
        assert (tmp_path / "data.bpseq.manifest.csv").exists()
        loaded = load_dataset(path)
        assert len(loaded.train) == len(split.train)
        assert len(loaded.test) == len(split.test)
        assert loaded.stats.ecg_mean == pytest.approx(split.stats.ecg_mean)
        # float32 payload: compare at storage precision
        orig = split.train[3].input_array()
        back = loaded.train[3].input_array()
        assert np.max(np.abs(orig - back)) <= 1e-5 * max(1.0, np.max(np.abs(orig)))

    def test_bytes_match_reference_writer(self, tmp_path):
        # Two patients, 420 train sequences over one 606-row table.
        samples = Sequences.concat([_toy_samples(400, patient="a"), _toy_samples(200, patient="b", start=7)])
        split = split_and_standardize(samples)
        path = tmp_path / "data.bpseq"
        save_dataset(split, path)
        assert path.read_bytes() == _reference_bpseq(split)
        manifest = (tmp_path / "data.bpseq.manifest.csv").read_text().splitlines()
        assert manifest[0] == "patient,start_index,split"
        assert manifest[1] == f"a,{int(split.train.start[0])},train"
        assert len(manifest) == 1 + 600

    @pytest.mark.parametrize("write_rows", [7, 100, 512])
    def test_piecewise_feature_write_matches_one_shot_bytes(self, tmp_path, monkeypatch, write_rows):
        split = split_and_standardize(_toy_samples(250))
        assert len(split.train.vectors) % write_rows != 0  # 253 rows: the last write is short
        monkeypatch.setattr(segmentation, "WRITE_ROWS", write_rows)
        save_dataset(split, tmp_path / "data.bpseq")
        assert (tmp_path / "data.bpseq").read_bytes() == _reference_bpseq(split)

    def test_loaded_split_round_trips_bytes(self, tmp_path):
        split = split_and_standardize(_toy_samples(30))
        save_dataset(split, tmp_path / "a.bpseq")
        loaded = load_dataset(tmp_path / "a.bpseq")
        assert np.array_equal(loaded.test.start, split.test.start)
        save_dataset(loaded, tmp_path / "b.bpseq")
        assert (tmp_path / "a.bpseq").read_bytes() == (tmp_path / "b.bpseq").read_bytes()

    def test_loaded_partitions_share_one_table(self, tmp_path):
        split = split_and_standardize(_toy_samples(30))
        save_dataset(split, tmp_path / "a.bpseq")
        loaded = load_dataset(tmp_path / "a.bpseq")
        assert len(loaded.train.vectors) == len(split.train.vectors) == 33
        for part in (loaded.validation, loaded.test):
            assert part.vectors is loaded.train.vectors and part.targets is loaded.train.targets
        assert np.array_equal(loaded.test.first, split.test.first)

    def test_partitions_without_one_table_rejected(self, tmp_path):
        split = split_and_standardize(_toy_samples(30))
        test = split.test
        split.test = Sequences(test.vectors.copy(), test.targets, test.first, test.patient, test.start, test.m)
        with pytest.raises(ValueError, match="share one row table"):
            save_dataset(split, tmp_path / "a.bpseq")

    def test_failed_write_keeps_previous_files(self, tmp_path, unwritable):
        split = split_and_standardize(_toy_samples(30))
        path = tmp_path / "data.bpseq"
        save_dataset(split, path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # The header and features are written before the targets fail.
        targets = unwritable(split.train.targets)
        for part in (split.train, split.validation, split.test):
            part.targets = targets
        with pytest.raises(OSError, match="no space"):
            save_dataset(split, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resample_helper_identity(self, rng):
        x = rng.standard_normal(256)
        x[::17] = -0.0
        (row,) = resample_spans(x, *_span(0, 256))
        assert row.tobytes() == x.tobytes()
        assert row is not x


@pytest.fixture
def saved_dataset(tmp_path):
    path = tmp_path / "data.bpseq"
    save_dataset(split_and_standardize(_toy_samples(30)), path)
    return path


class TestDatasetErrors:
    def test_bad_magic(self, saved_dataset):
        saved_dataset.write_bytes(b"garbage" * 20)
        with pytest.raises(DatasetError, match="magic"):
            load_dataset(saved_dataset)

    def test_truncated_header(self, saved_dataset):
        saved_dataset.write_bytes(saved_dataset.read_bytes()[:30])
        with pytest.raises(DatasetError, match="header"):
            load_dataset(saved_dataset)

    def test_short_payload(self, saved_dataset):
        saved_dataset.write_bytes(saved_dataset.read_bytes()[:-4])
        with pytest.raises(DatasetError, match="payload"):
            load_dataset(saved_dataset)

    def test_trailing_payload(self, saved_dataset):
        saved_dataset.write_bytes(saved_dataset.read_bytes() + bytes(100))
        with pytest.raises(DatasetError, match="payload"):
            load_dataset(saved_dataset)

    def test_feature_dim(self, saved_dataset):
        data = bytearray(saved_dataset.read_bytes())
        data[18:22] = struct.pack("<I", 512)
        saved_dataset.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="feature dim"):
            load_dataset(saved_dataset)

    def test_huge_sequence_length(self, saved_dataset):
        data = bytearray(saved_dataset.read_bytes())
        data[14:18] = struct.pack("<I", 2**32 - 1)
        saved_dataset.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="payload"):
            load_dataset(saved_dataset)

    def test_sequence_length_above_row_count(self, saved_dataset):
        data = bytearray(saved_dataset.read_bytes())
        (rows,) = struct.unpack_from("<I", data, 10)
        data[14:18] = struct.pack("<I", rows + 1)
        saved_dataset.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="fewer than M"):
            load_dataset(saved_dataset)

    def test_sequence_rows_past_table(self, saved_dataset):
        data = bytearray(saved_dataset.read_bytes())
        rows, m = struct.unpack_from("<II", data, 10)
        data[-4:] = struct.pack("<I", rows - m + 1)  # the last sequence's first row
        saved_dataset.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="runs past"):
            load_dataset(saved_dataset)

    def test_zero_sequences(self, saved_dataset):
        data = bytearray(saved_dataset.read_bytes()[: struct.calcsize("<6s4I4d")])
        data[6:10] = struct.pack("<I", 0)
        saved_dataset.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="declares 0 sequences"):
            load_dataset(saved_dataset)

    def test_manifest_row_count(self, saved_dataset):
        manifest = saved_dataset.with_name(saved_dataset.name + ".manifest.csv")
        manifest.write_text("".join(manifest.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(DatasetError, match="rows"):
            load_dataset(saved_dataset)

    def test_unknown_split_name(self, saved_dataset):
        manifest = saved_dataset.with_name(saved_dataset.name + ".manifest.csv")
        manifest.write_text(manifest.read_text().replace(",test\n", ",bogus\n", 1))
        with pytest.raises(DatasetError, match="bogus"):
            load_dataset(saved_dataset)

    @pytest.mark.parametrize("kind, value", [("feature", np.nan), ("target", np.inf)])
    def test_non_finite_row(self, saved_dataset, kind, value):
        data = bytearray(saved_dataset.read_bytes())
        _, _, n_rows, *_ = struct.unpack_from("<6s4I4d", data)
        row = 5
        word = row * FEATURE_DIM + 7 if kind == "feature" else n_rows * FEATURE_DIM + row * 2 + 1
        offset = struct.calcsize("<6s4I4d") + word * 4
        struct.pack_into("<f", data, offset, value)
        saved_dataset.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match=f"dataset row {row} holds a non-finite {kind}"):
            load_dataset(saved_dataset)

    def test_missing_manifest(self, saved_dataset):
        saved_dataset.with_name(saved_dataset.name + ".manifest.csv").unlink()
        with pytest.raises(DatasetError, match="manifest"):
            load_dataset(saved_dataset)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_any_truncation_raises(self, saved_dataset, cut):
        data = saved_dataset.read_bytes()
        truncated = saved_dataset.with_name("cut.bpseq")
        truncated.write_bytes(data[: int(cut * len(data))])
        truncated.with_name("cut.bpseq.manifest.csv").write_bytes(
            saved_dataset.with_name(saved_dataset.name + ".manifest.csv").read_bytes()
        )
        with pytest.raises(DatasetError):
            load_dataset(truncated)


WINDOW = 2000  # 16 s at 125 Hz, the M=10 window


@pytest.fixture(scope="module")
def pre_cohort(tmp_path_factory):
    """A six-record `pre/` tree, 240 s each, with unusable and unusual windows.

    p1's window 2 has a NaN ECG sample (as preprocess writes a dropped window),
    p2's window 3 has a flat ABP, so every span fails its targets although its
    peaks would give enough rows, p3's window 4 has a flat PPG, so peak
    detection fails there, and p4's window 1 pulses for its first 5.6 s only,
    so it has fewer than M+2 peaks.  p5's window 2 has a notch in its first
    systolic peak: two ABP maxima 6 samples apart, closer than the 0.3 s
    spacing.
    """
    pre = tmp_path_factory.mktemp("cohort") / "pre"
    for i, hr in enumerate((64.0, 72.0, 80.0, 88.0, 96.0, 104.0)):
        rec = generate(SyntheticConfig(duration_s=240.0, heart_rate_bpm=hr, seed=31 + i))
        ecg, ppg, abp = rec.ecg.copy(), rec.ppg.copy(), rec.abp.copy()
        if i == 1:
            ecg[2 * WINDOW + 700] = np.nan
        if i == 2:
            abp[3 * WINDOW : 4 * WINDOW] = 93.0
        if i == 3:
            ppg[4 * WINDOW : 5 * WINDOW] = 0.5
        if i == 4:
            ppg[WINDOW + 700 : 2 * WINDOW] = ppg[WINDOW + 700]
        if i == 5:
            top = 2 * WINDOW + 200 + int(np.argmax(abp[2 * WINDOW + 200 : 2 * WINDOW + 275]))
            abp[top - 2 : top + 3] = abp[top] - 5.0
        (pre / f"p{i}").mkdir(parents=True)
        for name, x in (("ecg", ecg), ("ppg", ppg), ("abp", abp)):
            np.save(pre / f"p{i}" / f"{name}.npy", x)
    return pre


def _segment_config(tmp_path, pre):
    shutil.copytree(pre, tmp_path / "out" / "pre")
    return parse_config(f"train.m = 10\nout.dir = {tmp_path / 'out'}\n")


def _window_by_window(ecg, ppg, abp, fs, m, patient_id, index_offset):
    """Reference: build_sequences over one window as it was before batching,
    every span's targets through the dedupe walk."""
    peaks = detect_ppg_peaks(ppg, fs)
    lo, hi = peaks[:-2], peaks[2:]
    vectors, feature_code = span_features(ecg, ppg, lo, hi, fs)
    targets, target_code = _walked_targets(abp, fs, lo, hi)
    rejected = (feature_code != 0) | (target_code != 0)
    targets[rejected] = 0.0
    bad = np.concatenate([[0], np.cumsum(rejected)])
    first = np.nonzero(bad[m:] == bad[: max(lo.size - m + 1, 0)])[0]
    return Sequences(vectors, targets, first, np.full(first.size, patient_id), index_offset + peaks[first], m)


def _list_assembled(config, pre, path):
    """The dataset built window by window, every window's parts held in a list and joined once."""
    parts = []
    for name in sorted(p.name for p in pre.iterdir()):
        ecg, ppg, abp = (np.load(pre / name / f"{c}.npy") for c in ("ecg", "ppg", "abp"))
        for lo in range(0, ecg.size - WINDOW + 1, WINDOW):
            hi = lo + WINDOW
            if not all(np.isfinite(x[lo:hi]).all() for x in (ecg, ppg, abp)):
                continue
            try:
                part = _window_by_window(ecg[lo:hi], ppg[lo:hi], abp[lo:hi], FS, 10, name, lo)
            except SegmentationError:
                continue
            if len(part):
                parts.append(part)
    fractions = (config.split_train, config.split_validation, config.split_test)
    split = split_and_standardize(Sequences.concat(parts), fractions)
    save_dataset(split, path)
    return split


class TestStageSegment:
    def test_reserved_table_bytes_equal_list_assembly(self, tmp_path, pre_cohort, monkeypatch):
        config = _segment_config(tmp_path, pre_cohort)
        reserved = []
        concat = Sequences.concat.__func__

        def spy(cls, parts, rows=None):
            reserved.append(rows)
            return concat(cls, parts, rows)

        monkeypatch.setattr(Sequences, "concat", classmethod(spy))
        split = stage_segment(config)
        monkeypatch.undo()
        # The flat-ABP window's rows are reserved but hold no sequence.
        assert reserved[0] > len(split.train.vectors) > 0
        ref = _list_assembled(config, pre_cohort, tmp_path / "ref.bpseq")
        assert split.train.vectors.tobytes() == ref.train.vectors.tobytes()
        assert split.train.targets.tobytes() == ref.train.targets.tobytes()
        out = tmp_path / "out"
        assert (out / "dataset.bpseq").read_bytes() == (tmp_path / "ref.bpseq").read_bytes()
        manifest = (out / "dataset.bpseq.manifest.csv").read_text()
        assert manifest == (tmp_path / "ref.bpseq.manifest.csv").read_text()
        starts = {(row.split(",")[0], int(row.split(",")[1]) // WINDOW) for row in manifest.splitlines()[1:]}
        assert {("p0", 2), ("p2", 2), ("p3", 3), ("p4", 2), ("p5", 2)} <= starts
        assert not {("p1", 2), ("p2", 3), ("p3", 4), ("p4", 1)} & starts

    def test_cohort_holds_each_kind_of_window(self, pre_cohort):
        def window(name, w, channel):
            return np.load(pre_cohort / name / f"{channel}.npy")[w * WINDOW : (w + 1) * WINDOW]

        with pytest.raises(SegmentationError):
            detect_ppg_peaks(window("p3", 4, "ppg"), FS)
        assert 3 <= detect_ppg_peaks(window("p4", 1, "ppg"), FS).size < 10 + 2
        abp, peaks = window("p5", 2, "abp"), detect_ppg_peaks(window("p5", 2, "ppg"), FS)
        spacing = int(round(0.3 * FS))
        close = 0
        for lo, hi in zip(peaks[:-2], peaks[2:]):
            seg = abp[lo:hi]
            found = _plateau_extrema(seg)[0]
            found = found[seg[found] > 0.5 * (seg.min() + seg.max())]
            close += int(np.any(np.diff(found) < spacing))
        assert close

    def test_traced_peak_at_most_130_percent_of_the_table(self, tmp_path, pre_cohort):
        config = _segment_config(tmp_path, pre_cohort)
        tracemalloc.start()
        try:
            split = stage_segment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = split.train.vectors.nbytes + split.train.targets.nbytes
        assert table > 6 * 2**20
        assert peak <= 1.3 * table, (peak, table, peak / table)

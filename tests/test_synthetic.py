import math

import numpy as np
import pytest

from bpnet.config import ConfigError
from bpnet.recordio import read_csv_record, select_channels
from bpnet.segmentation import build_sequences, detect_ppg_peaks, span_targets
from bpnet.synthetic import SyntheticConfig, generate


@pytest.fixture(scope="module")
def clean_record():
    cfg = SyntheticConfig(duration_s=60.0, seed=1, noise_std=0.0, ecg_drift=0.0, ppg_drift=0.0)
    return generate(cfg)


def test_r_spikes_at_beat_times(clean_record):
    rec = clean_record
    fs = rec.config.fs
    ecg = rec.ecg
    # Local maxima above half the R amplitude; the T wave stays below it.
    detected = np.flatnonzero((ecg[1:-1] > ecg[:-2]) & (ecg[1:-1] >= ecg[2:]) & (ecg[1:-1] > 0.5)) + 1
    truth = np.round(rec.beat_times * fs).astype(int)
    matched = sum(np.min(np.abs(detected - ti)) <= 2 for ti in truth[1:-1])
    assert matched == len(truth) - 2


def test_ppg_pulse_per_beat(clean_record):
    rec = clean_record
    peaks = detect_ppg_peaks(rec.ppg, rec.config.fs)
    assert abs(len(peaks) - len(rec.beat_times)) <= 2


def test_abp_extrema_match_configured_pressures(clean_record):
    rec = clean_record
    fs = rec.config.fs
    beats = np.array([2, 10, 30])
    lo = (rec.beat_times[beats] * fs).astype(int)
    hi = (rec.beat_times[beats + 2] * fs).astype(int)
    pairs, code = span_targets(rec.abp, fs, lo, hi)
    assert not code.any()
    for k, (sbp, dbp) in zip(beats, pairs):
        assert sbp == pytest.approx(np.mean(rec.sbp_beats[k : k + 2]), abs=0.5)
        assert dbp == pytest.approx(np.mean(rec.dbp_beats[k : k + 2]), abs=0.5)


def test_timing_to_pressure_map_is_monotone(clean_record):
    rec = clean_record
    rr = np.diff(rec.beat_times)
    assert np.corrcoef(rr, rec.sbp_beats)[0, 1] == pytest.approx(-1.0, abs=1e-9)
    assert np.corrcoef(rr, rec.dbp_beats)[0, 1] == pytest.approx(-1.0, abs=1e-9)


def test_configured_ptt_recovered(clean_record):
    rec = clean_record
    fs = rec.config.fs
    # Pulse onset: the PPG foot, its minimum within half a second of the R spike.
    ptts = []
    for k in (3, 9, 20):
        lo = int(np.ceil(rec.beat_times[k] * fs))
        ptts.append((lo + np.argmin(rec.ppg[lo : lo + int(0.5 * fs)])) / fs - rec.beat_times[k])
    assert np.mean(ptts) == pytest.approx(rec.config.ptt_s, abs=2.0 / fs)


def test_noisy_record_yields_sequences():
    rec = generate(SyntheticConfig(duration_s=60.0, seed=2))
    seqs = build_sequences(rec.ecg, rec.ppg, rec.abp, rec.config.fs, 10, patient_id="s")
    assert len(seqs) > 40
    for s in seqs[:5]:
        assert np.all(np.isfinite(s.input_array()))


def test_csv_roundtrip_through_record_reader():
    rec = generate(SyntheticConfig(duration_s=20.0, seed=3))
    record = read_csv_record(rec.to_csv(), fs=rec.config.fs)
    triple = select_channels(record)
    assert triple.abp is not None
    assert triple.ecg.size == rec.t.size
    assert np.allclose(triple.ppg, rec.ppg, atol=1e-5)


def test_determinism():
    a = generate(SyntheticConfig(duration_s=10.0, seed=5))
    b = generate(SyntheticConfig(duration_s=10.0, seed=5))
    assert np.array_equal(a.ecg, b.ecg)
    assert np.array_equal(a.ppg, b.ppg)
    assert np.array_equal(a.abp, b.abp)


@pytest.mark.parametrize(
    "field, value",
    [
        ("fs", 0.0),
        ("fs", 0.001),  # 120 s at 0.001 Hz is not one sample
        ("duration_s", -5.0),
        ("heart_rate_bpm", 0.0),
        ("heart_rate_bpm", math.inf),  # the beat loop would never advance
        ("hr_swing_bpm", 75.0),  # the rate would reach zero at the swing's trough
        ("hr_period_s", 0.0),
        ("noise_std", -0.1),
        ("seed", -1),
    ],
)
def test_bad_setting_is_a_config_error(field, value):
    with pytest.raises(ConfigError, match=field):
        SyntheticConfig(**{field: value})

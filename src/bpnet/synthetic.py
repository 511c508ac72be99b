"""Bundled synthetic ECG/PPG/ABP generator.

Produces physiologically shaped test records without restricted clinical
data.  Heart rate swings slowly and sinusoidally; per-beat systolic and
diastolic pressures follow a known monotone (affine) mapping from the beat
period, so a waveform model can learn the embedded timing-to-pressure
relationship and be scored against exact ground truth.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from bpnet.config import ConfigError


@dataclass
class SyntheticConfig:
    fs: float = 125.0
    duration_s: float = 120.0
    heart_rate_bpm: float = 75.0
    hr_swing_bpm: float = 12.0          # peak deviation of the slow HR modulation
    hr_period_s: float = 53.0
    ptt_s: float = 0.25
    ecg_drift: float = 0.25             # baseline wander amplitude
    ppg_drift: float = 0.35
    drift_hz: float = 0.06
    noise_std: float = 0.02
    dicrotic: float = 0.30              # PPG dicrotic bump, fraction of pulse
    sbp_base: float = 115.0             # at the reference beat period
    dbp_base: float = 72.0
    sbp_slope: float = -80.0            # mmHg per second of beat-period deviation
    dbp_slope: float = -35.0
    seed: int = 0

    def __post_init__(self) -> None:
        for holds, rule in (
            (0 < self.fs < math.inf, "0 < fs < inf"),
            (0 < self.duration_s < math.inf, "0 < duration_s < inf"),
            (self.duration_s * self.fs >= 1, "int(duration_s * fs) >= 1, one sample at least"),
            # the beat loop steps by 60 / (instantaneous rate), which must stay positive
            (abs(self.hr_swing_bpm) < self.heart_rate_bpm < math.inf,
             "abs(hr_swing_bpm) < heart_rate_bpm < inf"),
            (self.hr_period_s > 0, "hr_period_s > 0"),
            (0 <= self.noise_std < math.inf, "0 <= noise_std < inf"),
            (self.seed >= 0, "seed >= 0"),
        ):
            if not holds:
                raise ConfigError(f"synthetic record needs {rule}")


@dataclass
class SyntheticRecord:
    config: SyntheticConfig
    t: np.ndarray
    ecg: np.ndarray
    ppg: np.ndarray
    abp: np.ndarray
    beat_times: np.ndarray
    sbp_beats: np.ndarray
    dbp_beats: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("time,ecg_ii,ppg,abp\n")
        for i in range(self.t.size):
            buf.write(
                f"{self.t[i]:.6f},{self.ecg[i]:.6f},{self.ppg[i]:.6f},{self.abp[i]:.6f}\n"
            )
        return buf.getvalue()


def _beat_times(config: SyntheticConfig) -> np.ndarray:
    """Integrate the instantaneous heart period over the record."""
    times = [0.35]
    while True:
        t = times[-1]
        hr = config.heart_rate_bpm + config.hr_swing_bpm * np.sin(
            2 * np.pi * t / config.hr_period_s
        )
        nxt = t + 60.0 / hr
        if nxt >= config.duration_s - 1.0:
            break
        times.append(nxt)
    return np.array(times)


def _abp_shape(phase: np.ndarray) -> np.ndarray:
    """Pulse contour on [0, 1): cosine rise to 1 at 0.25, cosine fall to 0."""
    out = np.empty_like(phase)
    rising = phase < 0.25
    out[rising] = 0.5 * (1.0 - np.cos(np.pi * phase[rising] / 0.25))
    out[~rising] = 0.5 * (1.0 + np.cos(np.pi * (phase[~rising] - 0.25) / 0.75))
    return out


def generate(config: SyntheticConfig) -> SyntheticRecord:
    rng = np.random.default_rng(config.seed)
    n = int(config.duration_s * config.fs)
    t = np.arange(n) / config.fs
    beats = _beat_times(config)
    periods = np.diff(beats)
    rr_ref = 60.0 / config.heart_rate_bpm

    # Per-beat pressures from the known monotone timing map.
    sbp_beats = config.sbp_base + config.sbp_slope * (periods - rr_ref)
    dbp_beats = config.dbp_base + config.dbp_slope * (periods - rr_ref)

    ecg = np.zeros(n)
    ppg = np.zeros(n)
    abp = np.full(n, float(np.mean(dbp_beats) if len(periods) else config.dbp_base))

    for k, tk in enumerate(beats[:-1]):
        period = periods[k]
        # ECG: narrow R spike plus low T wave.
        ecg += 1.1 * np.exp(-0.5 * ((t - tk) / 0.012) ** 2)
        ecg += 0.22 * np.exp(-0.5 * ((t - tk - 0.30 * period) / 0.055) ** 2)

        # PPG: delayed raised-cosine upstroke, exponential decay, dicrotic bump.
        ph = (t - tk - config.ptt_s) / period
        mask = (ph >= 0) & (ph < 1)
        pm = ph[mask]
        pulse = np.sin(np.pi * np.clip(pm / 0.35, 0.0, 1.0)) ** 2 * np.exp(-2.0 * pm)
        pulse += config.dicrotic * np.exp(-0.5 * ((pm - 0.55) / 0.06) ** 2)
        ppg[mask] += pulse

        # ABP: per-beat contour scaled between the beat's DBP and SBP.
        mask_a = (ph >= 0) & (ph < 1)
        abp[mask_a] = dbp_beats[k] + (sbp_beats[k] - dbp_beats[k]) * _abp_shape(pm)

    drift_phase = rng.uniform(0, 2 * np.pi, size=2)
    ecg += config.ecg_drift * np.sin(2 * np.pi * config.drift_hz * t + drift_phase[0])
    ppg += config.ppg_drift * np.sin(2 * np.pi * config.drift_hz * t + drift_phase[1])
    if config.noise_std > 0:
        ecg += rng.normal(0.0, config.noise_std, n)
        ppg += rng.normal(0.0, config.noise_std, n)

    return SyntheticRecord(config, t, ecg, ppg, abp, beats, sbp_beats, dbp_beats)

"""Beat detection, two-cycle waveform segmentation, and dataset assembly.

Segments are anchored on PPG systolic peaks: each feature vector spans three
consecutive peaks (two cycles), with the ECG sliced over the same sample
range.  Both slices are resampled to 256 points by linear interpolation and
concatenated with the normalized raw segment length, giving 513 features.
Consecutive vectors are offset by one peak; M of them form one training
sequence, each step paired with the SBP/DBP read from the ABP over its span.
"""

from __future__ import annotations

import csv
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from bpnet.atomic import atomic_open

WAVE_POINTS = 256
FEATURE_DIM = 2 * WAVE_POINTS + 1

PPG_REFRACTORY_S = 0.30
MIN_PATIENT_SEQUENCES = 10  # fewer, and split drops the patient

DATASET_MAGIC = b"BPSEQ2"


class SegmentationError(ValueError):
    """Unusable window: too few peaks or degenerate signal content."""


class DatasetError(ValueError):
    """Malformed or inconsistent BPSEQ2 container or manifest."""


@dataclass(eq=False)
class Sequences:
    """Sequences of M consecutive two-cycle vectors over one shared row table.

    Each vector is stored once: row r of ``vectors`` (V, 513) holds its
    features and row r of ``targets`` (V, 2) its SBP/DBP.  Sequence i is rows
    ``first[i] ... first[i] + m - 1``; ``first``, ``patient`` and ``start``
    (the window-relative peak index plus the window offset) hold one entry
    per sequence.  Indexing with an int, slice, mask or index array selects
    sequences and keeps sharing the row table; iterating yields one-sequence
    rows.
    """

    vectors: np.ndarray
    targets: np.ndarray
    first: np.ndarray
    patient: np.ndarray
    start: np.ndarray
    m: int

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, index) -> "Sequences":
        return Sequences(
            self.vectors, self.targets, self.first[index], self.patient[index], self.start[index], self.m
        )

    def rows(self) -> np.ndarray:
        """Row indices (..., M) of the selected sequences."""
        return self.first[..., None] + np.arange(self.m)

    def input_array(self) -> np.ndarray:
        """Features gathered to (..., M, 513)."""
        return self.vectors[self.rows()]

    def target_array(self) -> np.ndarray:
        """Targets gathered to (..., M, 2)."""
        return self.targets[self.rows()]

    @classmethod
    def concat(cls, parts: list["Sequences"]) -> "Sequences":
        """One table holding every part's rows and sequences, in order."""
        offsets = np.cumsum([0] + [len(p.vectors) for p in parts[:-1]])
        return cls(
            np.concatenate([p.vectors for p in parts]),
            np.concatenate([p.targets for p in parts]),
            np.concatenate([p.first + o for p, o in zip(parts, offsets)]),
            np.concatenate([p.patient for p in parts]),
            np.concatenate([p.start for p in parts]),
            parts[0].m,
        )


@dataclass
class ChannelStats:
    ecg_mean: float
    ecg_std: float
    ppg_mean: float
    ppg_std: float


@dataclass
class DatasetSplit:
    """Train, validation and test sequences over one shared row table."""

    train: Sequences
    validation: Sequences
    test: Sequences
    stats: ChannelStats


def _extremal_runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal samples in `x`: (start, end, is_maximum, is_minimum).

    A run is a maximum when both neighbours are lower and a minimum when both
    are higher.  Runs at either end of `x` have one neighbour and are left
    out, so starts and ends both increase.
    """
    edges = np.flatnonzero(np.diff(x)) + 1  # run starts, the first run aside
    starts, ends = edges[:-1], edges[1:] - 1
    level, left, right = x[starts], x[starts - 1], x[ends + 1]
    return starts, ends, (left < level) & (right < level), (left > level) & (right > level)


def _plateau_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local (maxima, minima), plateau-aware: each run's centre."""
    starts, ends, maximum, minimum = _extremal_runs(x)
    centre = (starts + ends) // 2
    return centre[maximum], centre[minimum]


def _moving_average(x: np.ndarray, width: int) -> np.ndarray:
    width = max(1, width)
    kernel = np.full(width, 1.0 / width)
    return np.convolve(x, kernel, mode="same")


def _adaptive_pick(
    envelope: np.ndarray,
    candidates: np.ndarray,
    fs: float,
    refractory_s: float,
    signal_weight: float,
) -> list[int]:
    """Scan candidates in time with an adaptive amplitude threshold.

    Classic running-threshold scheme: accepted peaks pull the signal level,
    rejected ones the noise level, and the threshold sits `signal_weight` of
    the way between them.  Within the refractory window the larger candidate
    wins.
    """
    if candidates.size == 0:
        return []
    refractory = int(round(refractory_s * fs))
    lead = envelope[: min(envelope.size, int(2 * fs))]
    signal_level = float(np.max(lead))
    noise_level = float(np.mean(lead))
    threshold = noise_level + signal_weight * (signal_level - noise_level)

    accepted: list[int] = []
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


def _dedupe_refractory(indices: list[int], strength: np.ndarray, refractory: int) -> np.ndarray:
    """Keep the stronger of any two detections closer than `refractory`."""
    kept: list[int] = []
    for idx in sorted(indices):
        if kept and idx - kept[-1] < refractory:
            if strength[idx] > strength[kept[-1]]:
                kept[-1] = idx
        else:
            kept.append(idx)
    return np.asarray(kept, dtype=int)


def detect_ppg_peaks(ppg: np.ndarray, fs: float) -> np.ndarray:
    """Systolic (positive) peak indices with a 0.3 s refractory floor.

    The amplitude threshold adapts midway between running signal and noise
    levels, which rejects dicrotic bumps riding the diastolic decay.
    """
    x = np.asarray(ppg, dtype=float)
    if x.size < int(fs):
        raise SegmentationError("PPG window shorter than one second")
    smooth = _moving_average(x, int(round(0.04 * fs)))
    candidates = _plateau_extrema(smooth)[0]
    coarse = _adaptive_pick(smooth, candidates, fs, PPG_REFRACTORY_S, signal_weight=0.5)

    half = int(round(0.06 * fs))
    refined = []
    for idx in coarse:
        lo, hi = max(0, idx - half), min(x.size, idx + half + 1)
        refined.append(lo + int(np.argmax(x[lo:hi])))
    peaks = _dedupe_refractory(refined, x, int(round(PPG_REFRACTORY_S * fs)))
    if peaks.size < 3:
        raise SegmentationError(f"only {peaks.size} PPG peaks found; window unusable")
    return peaks


def resample_spans(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each span ``x[..., lo[s]:hi[s]]`` resampled to 256 points: (..., S, 256).

    One gather does np.interp's arithmetic for every span: grid point p
    between samples j and j+1 is ``(y[j+1] - y[j]) * (p - j) + y[j]``, and a
    point that lands on a sample (the last one included) takes it as is, so
    each row is bit-equal to np.interp, -0.0 kept.  A one-sample span is
    exact only alone: np.linspace scales a whole batch differently when any
    step is zero (two-cycle spans hold at least 16 samples).
    """
    grid = np.linspace(0.0, hi - lo - 1.0, WAVE_POINTS, axis=-1)
    j = grid.astype(np.intp)
    frac = grid - j
    left = lo[:, None] + j
    y0 = np.take(x, left, axis=-1)
    y1 = np.take(x, np.minimum(left + 1, hi[:, None] - 1), axis=-1)
    return np.where(frac == 0.0, y0, (y1 - y0) * frac + y0)


# Why a two-cycle span is dropped, by code (0 keeps it): 1 peak order
# violation (hi <= lo), 2 segment shorter than 16 samples, 3 segment longer
# than 10 s, 4 segment outside signal bounds, 5 empty ABP span, 6 no
# detectable ABP beats in span, 7 implausible pressures.


def span_features(
    ecg: np.ndarray, ppg: np.ndarray, lo: np.ndarray, hi: np.ndarray, fs: float
) -> tuple[np.ndarray, np.ndarray]:
    """Two-cycle feature rows (S, 513) over spans [lo, hi) and a rejection code per span.

    A rejected span's row stays zero.
    """
    n = hi - lo
    size = min(ecg.size, ppg.size)
    code = np.select([hi <= lo, n < 16, n > 10.0 * fs, (lo < 0) | (hi > size)], [1, 2, 3, 4])
    rows = np.zeros((lo.size, FEATURE_DIM))
    ok = code == 0
    if ok.any():
        waves = resample_spans(np.stack((ecg[:size], ppg[:size]), dtype=float), lo[ok], hi[ok])
        rows[ok, : 2 * WAVE_POINTS] = waves.transpose(1, 0, 2).reshape(-1, 2 * WAVE_POINTS)
        rows[ok, -1] = n[ok] / float(WAVE_POINTS)
    return rows, code


def span_targets(
    abp: np.ndarray, fs: float, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(SBP, DBP) rows (S, 2) over ABP spans [lo, hi) and a rejection code per span.

    One run-length pass finds the extrema of the whole of `abp`.  The runs
    that start after `lo` and end before `hi - 1` are exactly the extrema of
    ``abp[lo:hi]`` taken on its own.  Of those, maxima above the span's
    mid-range and minima below it are deduplicated within 0.3 s and
    averaged.  Rows of rejected spans hold no meaningful pair, except that
    an implausible span (code 7) keeps the pair that failed.
    """
    x = np.asarray(abp, dtype=float)
    lo = np.minimum(lo, x.size)
    hi = np.clip(hi, lo, x.size)
    pairs = np.zeros((lo.size, 2))
    code = np.where(hi > lo, 0, 5)
    padded = np.append(x, 0.0)  # so that hi == x.size is an index reduceat takes
    edges = np.stack((lo, hi), axis=-1).ravel()
    top = np.maximum.reduceat(padded, edges)[::2]
    bottom = np.minimum.reduceat(padded, edges)[::2]
    code[(code == 0) & (top - bottom <= 1e-9)] = 6
    mid = 0.5 * (bottom + top)

    live = np.flatnonzero(code == 0)
    spacing = int(round(0.3 * fs))
    starts, ends, maximum, minimum = _extremal_runs(x)
    for col, kind, strength, level in ((0, maximum, x, mid), (1, minimum, -x, -mid)):
        first, last = starts[kind], ends[kind]
        a = np.searchsorted(first, lo[live], "right")
        b = np.maximum(np.searchsorted(last, hi[live] - 1, "left"), a)
        # Runs a[k] ... b[k]-1 of this kind lie inside span live[k].
        counts = b - a
        owner = np.repeat(np.arange(live.size), counts)
        run = np.arange(counts.sum()) + np.repeat(a - np.cumsum(counts) + counts, counts)
        centre = (first[run] + last[run]) // 2
        beat = strength[centre] > level[live][owner]
        centre, owner = centre[beat], owner[beat]
        bounds = np.searchsorted(owner, np.arange(live.size + 1))
        for k, s in enumerate(live):
            picked = _dedupe_refractory(centre[bounds[k] : bounds[k + 1]].tolist(), strength, spacing)
            if picked.size:
                pairs[s, col] = np.add.reduce(x[picked]) / picked.size  # np.mean's arithmetic
            else:
                code[s] = 6
    sbp, dbp = pairs.T
    code[(code == 0) & ~((20.0 < dbp) & (dbp < sbp) & (sbp < 300.0))] = 7
    return pairs, code


def build_sequences(
    ecg: np.ndarray,
    ppg: np.ndarray,
    abp: np.ndarray,
    fs: float,
    m: int,
    patient_id: str = "",
    index_offset: int = 0,
) -> Sequences:
    """Sliding sequences of M two-cycle vectors, offset by one peak each.

    A window with P usable peaks yields P-2 vectors and max(0, P-2-M+1)
    sequences; any rejected member vector drops its containing sequences.
    """
    if m < 1:
        raise ValueError(f"sequence length must be >= 1, got {m}")
    peaks = detect_ppg_peaks(ppg, fs)
    # With fewer than M+2 peaks the sliding count below is simply empty.

    lo, hi = peaks[:-2], peaks[2:]
    vectors, feature_code = span_features(ecg, ppg, lo, hi, fs)
    targets, target_code = span_targets(abp, fs, lo, hi)
    # A rejected span keeps its features (zero if they were rejected) and
    # stores zero targets.
    rejected = (feature_code != 0) | (target_code != 0)
    targets[rejected] = 0.0
    n = lo.size

    # Start s is valid when rows s .. s+m-1 hold no rejected vector.
    bad = np.concatenate([[0], np.cumsum(rejected)])
    first = np.nonzero(bad[m:] == bad[: max(n - m + 1, 0)])[0]
    return Sequences(
        vectors, targets, first, np.full(first.size, patient_id), index_offset + peaks[first], m
    )


def split_and_standardize(
    samples: Sequences,
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2),
) -> DatasetSplit:
    """Chronological per-patient split plus train-only channel standardization.

    Per patient, the earliest 70% of sequences train, the next 10% validate,
    and the rest test; ECG and PPG sub-vectors are scaled by scalar mean/std
    computed on the training partition only.  norm_length and targets stay in
    natural units.  The row table of `samples` is standardized in place and
    shared by the three partitions.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")
    order = np.lexsort((samples.start, samples.patient))
    patients, begins, counts = np.unique(samples.patient[order], return_index=True, return_counts=True)
    train: list[np.ndarray] = []
    validation: list[np.ndarray] = []
    test: list[np.ndarray] = []
    for patient, lo, n in zip(patients, begins, counts):
        if n < MIN_PATIENT_SEQUENCES:
            warnings.warn(f"patient {str(patient)!r} has only {n} sequences; excluded", stacklevel=2)
            continue
        ordered = order[lo : lo + n]
        n_train = int(fractions[0] * n)
        n_val = int(fractions[1] * n)
        train.append(ordered[:n_train])
        validation.append(ordered[n_train : n_train + n_val])
        test.append(ordered[n_train + n_val :])

    if not train:
        raise SegmentationError("no patients with enough sequences to split")
    train, validation, test = (samples[np.concatenate(idx)] for idx in (train, validation, test))

    # Moments over the train sequences' rows in sequence order, a row counted
    # once per sequence that holds it.
    rows = train.rows()
    moments = []
    for lo in (0, WAVE_POINTS):
        channel = samples.vectors[:, lo : lo + WAVE_POINTS][rows].ravel()
        mean = float(np.mean(channel))
        channel -= mean  # np.std's own steps, in place on the gathered copy
        channel *= channel
        moments += [mean, float(np.sqrt(np.sum(channel) / channel.size)) or 1.0]
        del channel  # freed before the next channel is gathered
    stats = ChannelStats(*moments)
    standardize_features(samples.vectors, stats)
    return DatasetSplit(train, validation, test, stats)


def standardize_features(arr: np.ndarray, stats: ChannelStats) -> np.ndarray:
    """Apply train-set channel statistics to feature rows (..., 513) in place."""
    for lo, mean, std in ((0, stats.ecg_mean, stats.ecg_std), (WAVE_POINTS, stats.ppg_mean, stats.ppg_std)):
        wave = arr[..., lo : lo + WAVE_POINTS]
        wave -= mean
        wave /= std
    return arr


SPLIT_NAMES = ("train", "validation", "test")
# Magic, uint32 sequence count / row count / M / feature dim, four float64 channel statistics.
DATASET_HEADER = struct.Struct("<6s4I4d")
MANIFEST_COLUMNS = ["patient", "start_index", "split"]


def save_dataset(split: DatasetSplit, path) -> None:
    """Write the BPSEQ2 container plus a sidecar CSV manifest, atomically.

    Layout: magic "BPSEQ2"; uint32 sequence count N, row count V, M and
    feature dim; four float64 channel statistics; then the shared row table,
    each row once, as V x 513 float32 features and V x 2 float32 targets;
    then N uint32 first-row indices in train, validation, test order.  The
    manifest lists (patient, start index, split) per sequence in file order.
    """
    parts = [getattr(split, name) for name in SPLIT_NAMES]
    table = split.train
    if any(p.vectors is not table.vectors or p.targets is not table.targets or p.m != table.m for p in parts):
        raise ValueError("dataset partitions do not share one row table")
    first = np.concatenate([part.first for part in parts])
    if not first.size:
        raise ValueError("empty dataset")

    s = split.stats
    # Both files are renamed into place only after both are fully written.
    with atomic_open(path) as fh, atomic_open(str(path) + ".manifest.csv", "w", newline="") as manifest:
        fh.write(DATASET_HEADER.pack(
            DATASET_MAGIC, first.size, len(table.vectors), table.m, FEATURE_DIM,
            s.ecg_mean, s.ecg_std, s.ppg_mean, s.ppg_std,
        ))
        table.vectors.astype("<f4").tofile(fh)
        table.targets.astype("<f4").tofile(fh)
        first.astype("<u4").tofile(fh)
        writer = csv.writer(manifest)
        writer.writerow(MANIFEST_COLUMNS)
        for name, part in zip(SPLIT_NAMES, parts):
            writer.writerows(
                (patient, start, name) for patient, start in zip(part.patient.tolist(), part.start.tolist())
            )


def load_dataset(path) -> DatasetSplit:
    """Read a BPSEQ2 container written by :func:`save_dataset`.

    The three partitions of the returned split share one V-row table.  A
    malformed container or manifest raises DatasetError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:6] != DATASET_MAGIC:
        raise DatasetError(f"bad dataset magic {data[:6]!r}")
    if len(data) < DATASET_HEADER.size:
        raise DatasetError(f"truncated dataset header: {len(data)} of {DATASET_HEADER.size} bytes")
    _, count, n_rows, m, dim, *moments = DATASET_HEADER.unpack_from(data)
    if dim != FEATURE_DIM:
        raise DatasetError(f"unsupported feature dim {dim}")
    if count < 1 or m < 1:
        raise DatasetError(f"dataset declares {count} sequences of M={m}")
    payload = len(data) - DATASET_HEADER.size
    expected = (n_rows * (FEATURE_DIM + 2) + count) * 4
    if payload != expected:
        raise DatasetError(f"dataset payload is {payload} bytes, {n_rows} rows + {count} sequences need {expected}")
    if m > n_rows:
        raise DatasetError(f"dataset payload holds {n_rows} rows, fewer than M={m}")
    targets_at = DATASET_HEADER.size + n_rows * FEATURE_DIM * 4
    first_at = targets_at + n_rows * 2 * 4
    first = np.frombuffer(data, "<u4", count, first_at).astype(np.int64)
    past = np.flatnonzero(first + m > n_rows)
    if past.size:
        raise DatasetError(f"sequence {past[0]} starts at row {first[past[0]]}: M={m} runs past {n_rows} rows")

    manifest = str(path) + ".manifest.csv"
    try:
        with open(manifest, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except FileNotFoundError:
        raise DatasetError(f"missing dataset manifest {manifest}") from None
    if header != MANIFEST_COLUMNS:
        raise DatasetError(f"manifest columns {header}, expected {MANIFEST_COLUMNS}")
    if len(rows) != count or any(len(row) != 3 for row in rows):
        raise DatasetError(f"manifest has {len(rows)} rows for {count} sequences")
    patient, start, names = zip(*rows)
    unknown = set(names) - set(SPLIT_NAMES)
    if unknown:
        raise DatasetError(f"unknown split name(s) {sorted(unknown)} in manifest")
    try:
        start = np.array(start, dtype=int)
    except ValueError:
        raise DatasetError("non-integer start index in manifest") from None

    vectors = np.frombuffer(data, "<f4", n_rows * FEATURE_DIM, DATASET_HEADER.size).reshape(n_rows, FEATURE_DIM)
    targets = np.frombuffer(data, "<f4", n_rows * 2, targets_at).reshape(n_rows, 2)
    table = Sequences(vectors.astype(float), targets.astype(float), first, np.array(patient, dtype=str), start, m)
    names = np.array(names)
    train, validation, test = (table[names == name] for name in SPLIT_NAMES)
    return DatasetSplit(train, validation, test, ChannelStats(*moments))

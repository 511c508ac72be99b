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
import mmap
import struct
import warnings
from collections.abc import Iterable
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


def _mapped_table(rows: int, cols: int) -> np.ndarray:
    """An uninitialised (rows, cols) float64 table in an anonymous mapping of its own.

    malloc maps a table this large only until the first such mapping is
    freed; glibc then raises its mmap threshold, later tables land on the brk
    heap, and when a live chunk splits the heap's free space the heap grows
    by a whole table.  A mapping of its own is returned to the system when
    the table dies, on every pass alike.  `segment` fills nearly every row it
    reserves, so the mapping is private and pre-faulted (MAP_POPULATE) where it can be.
    """
    if rows * cols == 0:  # mmap refuses an empty mapping
        return np.empty((rows, cols))
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, rows * cols * 8, flags=flags), dtype=np.float64).reshape(rows, cols)


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
    def concat(cls, parts: Iterable["Sequences"], rows: int | None = None) -> "Sequences":
        """One table holding every part's rows and sequences, in order.

        With `rows`, a table of that many rows is reserved up front and each
        part is copied in as it arrives, so a generator's parts need not all
        be alive at once; `rows` must be at least their total row count, and
        the returned table is cut to that total.  Without it, the parts are
        listed and counted first.  The features live in an anonymous mapping
        (see `_mapped_table`), so peak memory does not depend on what earlier
        tables left behind in the heap.
        """
        if rows is None:
            parts = list(parts)
            rows = sum(len(p.vectors) for p in parts)
        vectors, targets = _mapped_table(rows, FEATURE_DIM), np.empty((rows, 2))
        first, patient, start = [], [], []
        used, m = 0, None
        for part in parts:
            n = len(part.vectors)
            if used + n > rows:
                raise ValueError(f"parts hold more than the {rows} rows reserved")
            vectors[used : used + n] = part.vectors
            targets[used : used + n] = part.targets
            first.append(part.first + used)
            patient.append(part.patient)
            start.append(part.start)
            used, m = used + n, part.m
        if m is None:
            raise ValueError("no parts to join")
        return cls(
            vectors[:used], targets[:used], np.concatenate(first), np.concatenate(patient), np.concatenate(start), m
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
    last = 0.0  # the envelope at accepted[-1]
    for idx, value in zip(candidates.tolist(), envelope[candidates].tolist()):
        if accepted and idx - accepted[-1] < refractory:
            if value > last:
                accepted[-1], last = idx, value
            continue
        if value > threshold:
            accepted.append(idx)
            last = value
            signal_level = 0.125 * value + 0.875 * signal_level
        else:
            noise_level = 0.125 * value + 0.875 * noise_level
        threshold = noise_level + signal_weight * (signal_level - noise_level)
    return accepted


def _dedupe_refractory(indices: list[int], values: list[float], refractory: int) -> np.ndarray:
    """Keep the stronger of any two detections closer than `refractory`.

    `indices` ascend and `values[j]` is the strength at `indices[j]`.
    """
    kept: list[int] = []
    last = 0.0  # the strength at kept[-1]
    for idx, value in zip(indices, values):
        if kept and idx - kept[-1] < refractory:
            if value > last:
                kept[-1], last = idx, value
        else:
            kept.append(idx)
            last = value
    return np.asarray(kept, dtype=int)


def _refine_peaks(x: np.ndarray, coarse: np.ndarray, half: int) -> np.ndarray:
    """Each coarse index moved to the first maximum of ``x`` within ``half`` samples of it.

    One gather over index windows clipped to the signal: a clipped window
    repeats its edge index, and the first maximum along a row of
    non-decreasing indices is np.argmax's over ``x[lo:hi]``, ties included.
    """
    window = np.clip(coarse[:, None] + np.arange(-half, half + 1), 0, x.size - 1)
    return window[np.arange(coarse.size), np.argmax(x[window], axis=1)]


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

    refined = _refine_peaks(x, np.asarray(coarse, dtype=np.intp), int(round(0.06 * fs)))
    refined.sort()
    peaks = _dedupe_refractory(refined.tolist(), x[refined].tolist(), int(round(PPG_REFRACTORY_S * fs)))
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
        # Spans without a close pair keep every beat: row sums of a (spans, count) gather are np.mean's.
        in_span = np.bincount(owner, minlength=live.size)
        stop = np.cumsum(in_span)
        close = np.zeros(live.size, dtype=bool)
        close[owner[1:][(owner[1:] == owner[:-1]) & (np.diff(centre) < spacing)]] = True
        value = x[centre]
        for n in np.unique(in_span[~close & (in_span > 0)]).tolist():
            group = np.flatnonzero(~close & (in_span == n))
            pairs[live[group], col] = np.add.reduce(value[(stop[group] - n)[:, None] + np.arange(n)], axis=-1) / n
        code[live[in_span == 0]] = 6
        for k in np.flatnonzero(close).tolist():  # only a span with a close pair walks the dedupe
            beats = centre[stop[k] - in_span[k] : stop[k]]
            picked = _dedupe_refractory(beats.tolist(), strength[beats].tolist(), spacing)
            pairs[live[k], col] = np.add.reduce(x[picked]) / picked.size  # np.mean's arithmetic
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
    peaks: np.ndarray | None = None,
    windows: list[tuple[int, np.ndarray]] | None = None,
) -> Sequences:
    """Sliding sequences of M two-cycle vectors, offset by one peak each, over a batch of windows.

    `windows` lists each window's offset in the channels and its PPG peaks
    relative to it; without it the channels are one window whose peaks are
    `peaks`, or are detected here.  A window with P usable peaks yields P-2
    vectors and max(0, P-2-M+1) sequences, never straddling windows; any
    rejected member vector drops its containing sequences, and a window
    left with none drops its rows.  Starts count from `index_offset`.
    """
    if m < 1:
        raise ValueError(f"sequence length must be >= 1, got {m}")
    if windows is None:
        windows = [(0, detect_ppg_peaks(ppg, fs) if peaks is None else peaks)]
    elif peaks is not None:
        raise ValueError("pass peaks or windows, not both")
    # With fewer than M+2 peaks a window's sliding count below is simply empty.
    lo = np.concatenate([offset + p[:-2] for offset, p in windows])
    hi = np.concatenate([offset + p[2:] for offset, p in windows])
    window_of = np.repeat(np.arange(len(windows)), [max(p.size - 2, 0) for _, p in windows])
    vectors, feature_code = span_features(ecg, ppg, lo, hi, fs)
    targets, target_code = span_targets(abp, fs, lo, hi)
    # A rejected span keeps its features (zero if they were rejected) and
    # stores zero targets.
    rejected = (feature_code != 0) | (target_code != 0)
    targets[rejected] = 0.0

    # Start s is valid when rows s .. s+m-1 lie in one window and hold no rejected vector.
    count = max(lo.size - m + 1, 0)
    bad = np.concatenate([[0], np.cumsum(rejected)])
    first = np.flatnonzero((bad[m:] == bad[:count]) & (window_of[m - 1 :] == window_of[:count]))
    start = index_offset + lo[first]
    keep = np.isin(window_of, window_of[first])  # the rows of windows that hold a sequence
    if not keep.all():
        vectors, targets, first = vectors[keep], targets[keep], np.cumsum(keep)[first] - 1
    return Sequences(vectors, targets, first, np.full(first.size, patient_id), start, m)


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
    # once per sequence that holds it: np.mean and np.std of that gather,
    # summed piece by piece without building it.
    rows = train.rows().ravel()
    size = rows.size * WAVE_POINTS
    moments = []
    for lo in (0, WAVE_POINTS):
        wave = samples.vectors[:, lo : lo + WAVE_POINTS]
        mean = float(_gathered_sum(wave, rows, 0, size) / size)
        moments += [mean, float(np.sqrt(_gathered_sum(wave, rows, 0, size, mean) / size)) or 1.0]
    stats = ChannelStats(*moments)
    standardize_features(samples.vectors, stats)
    return DatasetSplit(train, validation, test, stats)


SUM_PIECE = 1 << 17  # elements gathered at a time for the train moments: 1 MB of float64


def _gathered_sum(wave: np.ndarray, rows: np.ndarray, start: int, n: int, mean: float | None = None):
    """np.add.reduce of ``wave[rows].ravel()[start:start + n]``, bit for bit, without that gather.

    numpy sums a contiguous float64 array pairwise: above 128 elements it
    splits n at n // 2 rounded down to a multiple of 8.  Following those
    splits down to pieces of at most SUM_PIECE elements and reducing each
    piece gives the same bits.  With `mean`, the piece's squared deviations
    are summed instead (np.std's in-place steps).
    """
    if n > max(SUM_PIECE, 128):
        half = n // 2
        half -= half % 8
        left = _gathered_sum(wave, rows, start, half, mean)
        return left + _gathered_sum(wave, rows, start + half, n - half, mean)
    first, offset = divmod(start, WAVE_POINTS)
    piece = wave[rows[first : -(-(start + n) // WAVE_POINTS)]].ravel()[offset : offset + n]
    if mean is not None:
        piece -= mean
        piece *= piece
    return np.add.reduce(piece)


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
WRITE_ROWS = 512  # feature rows converted to float32 per write


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
        for lo in range(0, len(table.vectors), WRITE_ROWS):  # ~1 MB of float32 at a time
            table.vectors[lo : lo + WRITE_ROWS].astype("<f4").tofile(fh)
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
    malformed container or manifest, or a non-finite feature or target in
    any row, raises DatasetError.
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
    features_ok, targets_ok = np.isfinite(vectors).all(axis=1), np.isfinite(targets).all(axis=1)
    bad = np.flatnonzero(~(features_ok & targets_ok))
    if bad.size:
        kind = "target" if features_ok[bad[0]] else "feature"
        raise DatasetError(f"dataset row {bad[0]} holds a non-finite {kind}")
    table = Sequences(vectors.astype(float), targets.astype(float), first, np.array(patient, dtype=str), start, m)
    names = np.array(names)
    train, validation, test = (table[names == name] for name in SPLIT_NAMES)
    return DatasetSplit(train, validation, test, ChannelStats(*moments))

"""Stage runners wiring the pipeline: ingest through tracking export.

Each stage reads the previous stage's artifact from the output directory and
writes its own atomically (write-temp-then-rename), so re-running a stage
with unchanged inputs reproduces byte-identical artifacts.  `ingest` and
`preprocess` build their whole record tree (`raw/`, `pre/`) in a temporary
sibling that replaces the old tree only on success, so a rerun leaves no
stale record and a failure no partial one; `train` builds `models/` the same
way and removes the other training mode's models.  A manifest keyed by the
resolved config hash records every stage's inputs and outputs.

`preprocess` and `segment` run two passes: one decides per window, the other
works in bounded batches: denoising stacks of up to STACK_ROWS windows of one
Q from any records, `build_sequences` over windows with up to SEGMENT_SPANS spans.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bpnet.atomic import atomic_open
from bpnet.config import PipelineConfig
from bpnet.evaluate import assemble_report, tracking_export
from bpnet.model import (
    TrainedModel,
    blas_kernel,
    load_model,
    save_model,
    train,
)
from bpnet.preprocess import denoise_window, select_q, spectrum_peak
from bpnet.recordio import read_csv_record, read_wfdb_record, select_channels
from bpnet.segmentation import (
    DatasetSplit,
    SegmentationError,
    Sequences,
    build_sequences,
    detect_ppg_peaks,
    load_dataset,
    save_dataset,
    split_and_standardize,
)
from bpnet.tqwt import FrequencyTable, build_q_lookup

STAGES = ("ingest", "preprocess", "segment", "train", "eval", "track", "report")


class DataError(ValueError):
    """Unusable input data or artifact."""


class StageDependencyError(DataError):
    """A required upstream artifact is missing; names the stage to run."""

    def __init__(self, missing: str, required_stage: str):
        super().__init__(f"missing artifact {missing!r}: run {required_stage} first")
        self.required_stage = required_stage


def _atomic_text(path: Path, payload: str) -> None:
    with atomic_open(path) as fh:
        fh.write(payload.encode())


@contextmanager
def _replaced_tree(root: Path):
    """Yield an empty temporary sibling of `root` that replaces `root` on success."""
    tmp = root.with_name(root.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(root, ignore_errors=True)
    os.replace(tmp, root)


def _tree_files(root: Path) -> list[str]:
    """Every file under `root`, in no particular order."""
    return [str(p) for p in root.rglob("*") if p.is_file()]


def _read_manifest(path: Path) -> dict | None:
    """The run manifest at `path`; None when it is absent, not JSON, not an
    object, or has no `stages` object."""
    try:
        manifest = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        return None
    if isinstance(manifest, dict) and isinstance(manifest.get("stages"), dict):
        return manifest
    return None


def _update_manifest(config: PipelineConfig, stage: str, inputs: list[str], outputs: list[str], **facts) -> None:
    """Record `stage`'s inputs, outputs and any further `facts` in the run manifest."""
    path = Path(config.out_dir) / "manifest.json"
    manifest = {"config_hash": config.config_hash(), "seed": config.seed, "stages": {}}
    previous = _read_manifest(path)
    if previous is not None and previous.get("config_hash") == manifest["config_hash"]:
        manifest["stages"] = previous["stages"]
    manifest["stages"][stage] = {"inputs": sorted(inputs), "outputs": sorted(outputs), **facts}
    _atomic_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _record_names(config: PipelineConfig, subdir: str, required_stage: str) -> list[str]:
    root = Path(config.out_dir) / subdir
    if not root.is_dir():
        raise StageDependencyError(str(root), required_stage)
    return sorted(p.name for p in root.iterdir() if p.is_dir())


def _load_record_file(path: Path, fs: float):
    if path.suffix.lower() == ".csv":
        return read_csv_record(path.read_text(), fs, record_name=path.stem)
    if path.suffix.lower() == ".hea":
        dat = path.with_suffix(".dat")
        if not dat.exists():
            raise DataError(f"header {path} has no matching .dat file")
        return read_wfdb_record(path.read_bytes(), dat.read_bytes())
    raise DataError(f"unsupported record file {path} (expected .csv or .hea)")


def stage_ingest(config: PipelineConfig) -> list[str]:
    """Parse raw records and store aligned channel arrays per patient."""
    src = Path(config.data_path)
    if not config.data_path or not src.exists():
        raise DataError(f"data.path {config.data_path!r} does not exist")
    files = [src] if src.is_file() else sorted(
        p for p in src.iterdir() if p.suffix.lower() in (".csv", ".hea")
    )
    if not files:
        raise DataError(f"no .csv or .hea records under {src}")

    out = Path(config.out_dir)
    sources: dict[str, Path] = {}
    with _replaced_tree(out / "raw") as raw:
        for path in files:
            record = _load_record_file(path, config.fs)
            name = record.name
            if name in sources:
                raise DataError(f"files {sources[name]} and {path} both hold record {name}")
            if record.fs != config.fs:
                raise DataError(f"record {name} is sampled at {record.fs:g} Hz, config fs is {config.fs:g} Hz")
            triple = select_channels(record)
            rec_dir = raw / name
            rec_dir.mkdir(exist_ok=True)
            np.save(rec_dir / "ecg.npy", triple.ecg)
            np.save(rec_dir / "ppg.npy", triple.ppg)
            if triple.abp is not None:
                np.save(rec_dir / "abp.npy", triple.abp)
            meta = {"fs": record.fs, "name": name}
            (rec_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
            sources[name] = path
    _update_manifest(config, "ingest", [str(p) for p in files], _tree_files(out / "raw"))
    return list(sources)


@functools.lru_cache(maxsize=1)
def _q_table(fs: float, levels: int, q_min: float, q_max: float, q_step: float, r: float) -> FrequencyTable:
    """The config's Q lookup, built once per process for equal settings; read-only."""
    table = build_q_lookup(fs, levels, q_min, q_max, q_step, r)
    for column in (table.qs, table.centers_hz, table.lower3db_hz):
        column.flags.writeable = False
    return table


CHANNELS = ("ecg", "ppg")
STACK_ROWS = 32  # windows per denoising stack, ~170 KB of workspace per 2000-sample row: bounds memory on any cohort
SEGMENT_SPANS = 64  # two-cycle spans per build_sequences batch: bounds its resampling temporaries


def _select_qs(config: PipelineConfig, table: FrequencyTable, raw_dir: Path, pre_dir: Path):
    """Pass 1 over one record: the Qs (windows, channels) and the raw channels' lengths.

    Q is chosen per channel window (ECG then PPG, window by window); one with
    a non-finite sample gets NaN and empty `windows.csv` cells.  The ABP
    passes through; the ECG and PPG are written all NaN for pass 2 to fill.
    """
    window = config.window_samples()
    ecg = np.load(raw_dir / "ecg.npy")
    ppg = np.load(raw_dir / "ppg.npy")
    n_windows = ecg.size // window
    if n_windows == 0:
        raise DataError(
            f"record {raw_dir.name}: {ecg.size} samples shorter than one "
            f"{window}-sample window"
        )
    windows = np.stack([x[: n_windows * window].reshape(n_windows, window) for x in (ecg, ppg)], axis=1)
    if windows.dtype != np.float64:  # pass 2 reads the windows back as float64 bytes
        raise DataError(f"record {raw_dir.name}: raw channels are not float64; run ingest again")
    qs = np.full(windows.shape[:2], np.nan)
    lines = ["window,channel,q,peak_hz,left_end_hz,prominence"]
    for w in range(n_windows):
        for c, channel in enumerate(CHANNELS):
            cells = ["", "", "", ""]
            if np.all(np.isfinite(windows[w, c])):
                peak = spectrum_peak(windows[w, c], config.fs)
                qs[w, c] = q = select_q(peak, table)
                cells[0] = f"{q:.4g}"
                if peak is not None:
                    cells[1:] = [f"{v:.6g}" for v in (peak.frequency_hz, peak.left_end_hz, peak.prominence)]
            lines.append(",".join([str(w), channel, *cells]))
    pre_dir.mkdir()
    for channel in CHANNELS:
        np.save(pre_dir / f"{channel}.npy", np.full(n_windows * window, np.nan))
    abp_path = raw_dir / "abp.npy"
    if abp_path.exists():
        np.save(pre_dir / "abp.npy", np.load(abp_path)[: n_windows * window])
    (pre_dir / "windows.csv").write_text("\n".join(lines) + "\n")
    return qs, (ecg.size, ppg.size)


def _move_row(path: Path, samples: int, w: int, row: np.ndarray, write: bool) -> None:
    """Read `row` from window w of the float64 .npy file at `path`, which ends with `samples`, or write it."""
    with open(path, "r+b" if write else "rb") as fh:
        fh.seek(fh.seek(0, os.SEEK_END) - 8 * samples + row.nbytes * w)
        (fh.write if write else fh.readinto)(row)


def _denoise_stacks(table: FrequencyTable, raw: Path, pre: Path, records: dict, window: int) -> None:
    """Pass 2: denoise the cohort's finite channel windows in stacks of at most
    STACK_ROWS that share a Q, from any records, one stack held at a time."""
    cells = [(q, name, c, w) for name, (qs, _) in records.items() for (w, c), q in np.ndenumerate(qs)]
    cells = sorted(cell for cell in cells if np.isfinite(cell[0]))
    for q, group in itertools.groupby(cells, key=lambda cell: cell[0]):
        group = list(group)
        for lo in range(0, len(group), STACK_ROWS):
            stack = group[lo : lo + STACK_ROWS]
            x = np.empty((len(stack), window))
            for row, (_, name, c, w) in zip(x, stack):
                _move_row(raw / name / f"{CHANNELS[c]}.npy", records[name][1][c], w, row, write=False)
            x = denoise_window(x, float(q), table)
            for row, (_, name, c, w) in zip(x, stack):
                _move_row(pre / name / f"{CHANNELS[c]}.npy", len(records[name][0]) * window, w, row, write=True)


def stage_preprocess(config: PipelineConfig) -> list[str]:
    """Window-wise adaptive filtering of ECG and PPG; ABP passes through."""
    names = _record_names(config, "raw", "ingest")
    table = _q_table(config.fs, config.tqwt_levels, config.q_min, config.q_max, config.q_step, config.tqwt_r)
    out = Path(config.out_dir)
    table.to_csv(out / "qtable.csv")  # an export of the table used; never read back
    with _replaced_tree(out / "pre") as pre:
        records = {name: _select_qs(config, table, out / "raw" / name, pre / name) for name in names}
        _denoise_stacks(table, out / "raw", pre, records, config.window_samples())
    written = [*_tree_files(out / "pre"), str(out / "qtable.csv")]
    _update_manifest(config, "preprocess", names, written)
    return names


def _segment_channels(pre_dir: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    abp_path = pre_dir / "abp.npy"
    if not abp_path.exists():
        raise DataError(f"record {pre_dir.name} has no ABP channel; cannot build targets")
    return np.load(pre_dir / "ecg.npy"), np.load(pre_dir / "ppg.npy"), np.load(abp_path)


def _window_peaks(config: PipelineConfig, pre: Path, names: list[str]) -> tuple[dict[str, list], int]:
    """Each record's finite windows with their PPG peaks, in batches, and the rows they bound.

    Per record: runs of [(window offset, peak indices, or None where
    detection failed)] with at most SEGMENT_SPANS spans; a window with more,
    or failed, comes alone.  A window with P peaks gives P-2 rows, and only
    one with at least M of them can give a sequence, so the sum of those
    counts bounds the row table.  One record's channels are held at a time.
    """
    window = config.window_samples()
    found: dict[str, list] = {}
    rows = 0
    for name in names:
        ecg, ppg, abp = _segment_channels(pre / name)
        found[name], spans = [], SEGMENT_SPANS  # the first window opens a batch
        for lo in range(0, ecg.size - window + 1, window):
            hi = lo + window
            if not all(np.all(np.isfinite(x[lo:hi])) for x in (ecg, ppg, abp)):
                continue  # a window preprocess dropped, or a gap in the ABP
            try:
                peaks = detect_ppg_peaks(ppg[lo:hi], config.fs)
            except SegmentationError:
                peaks, n = None, SEGMENT_SPANS + 1
            else:
                n = peaks.size - 2
                rows += n if n >= config.m else 0
            if spans + n > SEGMENT_SPANS:
                found[name].append([])
                spans = 0
            found[name][-1].append((lo, peaks))
            spans += n
    return found, rows


def _window_parts(config: PipelineConfig, pre: Path, found: dict[str, list]):
    """`build_sequences` over each batch of windows; the results that hold a sequence, in record and window order."""
    window = config.window_samples()
    for name, batches in found.items():
        ecg, ppg, abp = _segment_channels(pre / name)
        for batch in batches:
            lo, hi = batch[0][0], batch[-1][0] + window
            try:
                # A window whose detection failed comes alone and passes no peaks: detection runs again and raises.
                part = build_sequences(
                    ecg[lo:hi], ppg[lo:hi], abp[lo:hi], config.fs, config.m, patient_id=name, index_offset=lo,
                    windows=None if batch[0][1] is None else [(w - lo, peaks) for w, peaks in batch],
                )
            except SegmentationError:
                continue  # unusable window; sequences never straddle windows
            if len(part):
                yield part
        del ecg, ppg, abp  # before the next record's channels load


def stage_segment(config: PipelineConfig) -> DatasetSplit:
    """Two-cycle segmentation per window, then split and standardize.

    The row table is reserved once, at the bound `_window_peaks` finds, and
    each batch's sequences are copied in as soon as they are built, so the
    cohort's rows are never held twice.
    """
    names = _record_names(config, "pre", "preprocess")
    out = Path(config.out_dir)
    found, rows = _window_peaks(config, out / "pre", names)
    parts = _window_parts(config, out / "pre", found)
    head = next(parts, None)
    if head is None:
        raise DataError("no usable sequences in any window")
    samples = Sequences.concat(itertools.chain([head], parts), rows)
    split = split_and_standardize(
        samples, (config.split_train, config.split_validation, config.split_test)
    )
    dataset_path = out / "dataset.bpseq"
    save_dataset(split, dataset_path)
    _update_manifest(
        config, "segment", names, [str(dataset_path), str(dataset_path) + ".manifest.csv"]
    )
    return split


def _dataset(config: PipelineConfig) -> DatasetSplit:
    path = Path(config.out_dir) / "dataset.bpseq"
    if not path.exists():
        raise StageDependencyError(str(path), "segment")
    return load_dataset(path)


def _patient_subset(split: DatasetSplit, patient: str) -> DatasetSplit:
    parts = (split.train, split.validation, split.test)
    return DatasetSplit(*(part[part.patient == patient] for part in parts), split.stats)


def stage_train(config: PipelineConfig) -> list[str]:
    """Fit the sequence regressor; one pooled model or one per patient."""
    split = _dataset(config)
    out = Path(config.out_dir)
    written = []
    history_rows = ["scope,epoch,train_loss,val_loss"]
    if config.pooled:
        params, history = train(split, config)
        save_model(TrainedModel(params, config.m, split.stats), out / "model.bpnet")
        shutil.rmtree(out / "models", ignore_errors=True)  # the other mode's models
        written.append(str(out / "model.bpnet"))
        for e, (tl, vl) in enumerate(zip(history.train_loss, history.val_loss)):
            history_rows.append(f"pooled,{e},{tl:.8g},{vl:.8g}")
    else:
        patients = np.unique(split.train.patient).tolist()
        index_rows = ["patient,model_file"]
        with _replaced_tree(out / "models") as models_dir:
            for patient in patients:
                subset = _patient_subset(split, patient)
                if not subset.train or not subset.validation:
                    continue
                params, history = train(subset, config)
                save_model(TrainedModel(params, config.m, split.stats), models_dir / f"{patient}.bpnet")
                index_rows.append(f"{patient},{patient}.bpnet")
                for e, (tl, vl) in enumerate(zip(history.train_loss, history.val_loss)):
                    history_rows.append(f"{patient},{e},{tl:.8g},{vl:.8g}")
            (models_dir / "index.csv").write_text("\n".join(index_rows) + "\n")
        (out / "model.bpnet").unlink(missing_ok=True)  # the other mode's model
        written += sorted(_tree_files(out / "models"))
    _atomic_text(out / "history.csv", "\n".join(history_rows) + "\n")
    written.append(str(out / "history.csv"))
    kernel = blas_kernel()  # train runs one BLAS thread, so the kernel decides the models' bits
    _update_manifest(
        config, "train", [str(out / "dataset.bpseq")], written,
        blas_threads="unpinned" if kernel is None else 1, blas_kernel=kernel or "unknown",
    )
    return written


def _csv_columns(path: Path, columns: tuple[str, ...], parse) -> list[list]:
    """`columns` of every row of a CSV artifact, each cell through `parse`.

    A missing column or a cell `parse` rejects (a short row's missing cells
    are None) raises DataError naming `path`.
    """
    try:
        with open(path, newline="") as fh:
            return [[parse(row[c]) for c in columns] for row in csv.DictReader(fh)]
    except KeyError as exc:
        raise DataError(f"{path} has no column {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _models_for_eval(config: PipelineConfig, split: DatasetSplit) -> dict[str, TrainedModel]:
    """The trained models by patient ('' for the pooled one).

    A model whose channel statistics are not exactly the dataset's was trained
    on another dataset (re-segmented since, or a new split) and raises DataError.
    """
    out = Path(config.out_dir)
    if config.pooled:
        path = out / "model.bpnet"
        if not path.exists():
            raise StageDependencyError(str(path), "train")
        paths = {"": path}
    else:
        index = out / "models" / "index.csv"
        if not index.exists():
            raise StageDependencyError(str(index), "train")
        paths = {
            patient: out / "models" / model_file
            for patient, model_file in _csv_columns(index, ("patient", "model_file"), str)
        }
    models = {}
    for key, path in paths.items():
        models[key] = load_model(path)
        if models[key].stats != split.stats:
            raise DataError(
                f"{path} was trained on another dataset (its channel statistics differ from "
                f"{out / 'dataset.bpseq'}); run train again"
            )
    return models


def stage_eval(config: PipelineConfig) -> str:
    """Final-step predictions on the test split plus the standards report."""
    split = _dataset(config)
    models = _models_for_eval(config, split)
    out = Path(config.out_dir)

    test = split.test[np.lexsort((split.test.start, split.test.patient))]
    keys = np.full(len(test), "") if config.pooled else test.patient
    has_model = np.isin(keys, list(models))
    scored, keys = test[has_model], keys[has_model]
    if not scored:
        raise DataError("no test sequences with a matching model")
    # One batched forward pass per model.
    estimates = np.empty((len(scored), 2))
    for key, model in models.items():
        mask = keys == key
        if mask.any():
            estimates[mask] = model.predict_batch(scored[mask])
    (sbp_est, dbp_est), (sbp_true, dbp_true) = estimates.T.copy(), scored.target_array()[:, -1].T.copy()
    rows = zip(scored.patient.tolist(), scored.start.tolist(), sbp_true, sbp_est, dbp_true, dbp_est)
    # Built first: an estimate whose errors overflow raises before any artifact is written.
    report = assemble_report(sbp_est, sbp_true, dbp_est, dbp_true)

    pred_lines = ["patient,start_index,sbp_true,sbp_est,dbp_true,dbp_est"]
    pred_lines += [
        f"{p},{i},{st:.4f},{se:.4f},{dt:.4f},{de:.4f}" for p, i, st, se, dt, de in rows
    ]
    _atomic_text(out / "predictions.csv", "\n".join(pred_lines) + "\n")
    text = report.to_text()
    _atomic_text(out / "report.txt", text)
    report.to_csv(out / "report.csv")
    _update_manifest(
        config, "eval",
        [str(out / "dataset.bpseq")],
        [str(out / "predictions.csv"), str(out / "report.txt"), str(out / "report.csv")],
    )
    return text


def stage_track(config: PipelineConfig) -> tuple[str, str]:
    """Continuous-tracking export from the evaluation predictions."""
    out = Path(config.out_dir)
    pred_path = out / "predictions.csv"
    if not pred_path.exists():
        raise StageDependencyError(str(pred_path), "eval")
    rows = _csv_columns(pred_path, ("sbp_true", "dbp_true", "sbp_est", "dbp_est"), float)
    if not rows:
        raise DataError("predictions file is empty")
    table = np.array(rows)
    if not np.isfinite(table).all():
        raise DataError(f"{pred_path} holds a non-finite pressure")
    csv_path, svg_path = tracking_export(table[:, 2:], table[:, :2], out / "tracking")
    _update_manifest(config, "track", [str(pred_path)], [csv_path, svg_path])
    return csv_path, svg_path


def stage_report(config: PipelineConfig) -> str:
    """Render the evaluation report plus run provenance."""
    out = Path(config.out_dir)
    report_path = out / "report.txt"
    if not report_path.exists():
        raise StageDependencyError(str(report_path), "eval")
    manifest_path = out / "manifest.json"
    provenance = ""
    if manifest_path.exists():
        manifest = _read_manifest(manifest_path)
        if manifest is None or not {"config_hash", "seed"} <= manifest.keys():
            raise DataError(f"{manifest_path} is not a run manifest")
        provenance = (
            f"config hash {manifest['config_hash']}  seed {manifest['seed']}  "
            f"stages {', '.join(sorted(manifest['stages']))}\n"
        )
    return provenance + report_path.read_text()

"""Stage runners wiring the pipeline: ingest through tracking export.

Each stage reads the previous stage's artifact from the output directory and
writes its own atomically (write-temp-then-rename), so re-running a stage
with unchanged inputs reproduces byte-identical artifacts.  `ingest` and
`preprocess` build their whole record tree (`raw/`, `pre/`) in a temporary
sibling that replaces the old tree only on success, so a rerun leaves no
stale record and a failure no partial one.  A manifest keyed by the
resolved config hash records every stage's inputs and outputs.
"""

from __future__ import annotations

import csv
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
    TrainConfig,
    TrainedModel,
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
    load_dataset,
    save_dataset,
    split_and_standardize,
)
from bpnet.tqwt import FrequencyTable, build_q_lookup, q_grid

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


def _update_manifest(config: PipelineConfig, stage: str, inputs: list[str], outputs: list[str]) -> None:
    out = Path(config.out_dir)
    path = out / "manifest.json"
    manifest = {"config_hash": config.config_hash(), "seed": config.seed, "stages": {}}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("config_hash") == manifest["config_hash"]:
            manifest["stages"] = previous.get("stages", {})
    manifest["stages"][stage] = {"inputs": sorted(inputs), "outputs": sorted(outputs)}
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
    names = []
    with _replaced_tree(out / "raw") as raw:
        for path in files:
            record = _load_record_file(path, config.fs)
            name = record.descriptor.record_name
            if record.descriptor.sampling_rate != config.fs:
                raise DataError(
                    f"record {name} is sampled at {record.descriptor.sampling_rate:g} Hz, "
                    f"config fs is {config.fs:g} Hz"
                )
            triple = select_channels(record)
            rec_dir = raw / name
            rec_dir.mkdir(exist_ok=True)
            np.save(rec_dir / "ecg.npy", triple.ecg)
            np.save(rec_dir / "ppg.npy", triple.ppg)
            if triple.abp is not None:
                np.save(rec_dir / "abp.npy", triple.abp)
            meta = {"fs": record.descriptor.sampling_rate, "name": name}
            (rec_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
            names.append(name)
    written = [str(out / "raw" / name / f"{channel}.npy") for name in names for channel in ("ecg", "ppg")]
    _update_manifest(config, "ingest", [str(p) for p in files], written)
    return names


def _table_fits(table: FrequencyTable, config: PipelineConfig) -> bool:
    """True when `table` holds the config's Q grid and its closed-form centers."""
    qs = q_grid(config.q_min, config.q_max, config.q_step)
    if table.qs.shape != qs.shape or not np.allclose(table.qs, qs, rtol=1e-9, atol=0.0):
        return False
    beta = 2.0 / (qs + 1.0)
    alpha = 1.0 - beta / config.tqwt_r
    centers = alpha**config.tqwt_levels * (2.0 - beta) / (4.0 * alpha) * config.fs
    return bool(np.allclose(table.centers_hz, centers, rtol=1e-9, atol=0.0))


def _q_table(config: PipelineConfig) -> FrequencyTable:
    """Reuse the cached CSV export if it fits the config; else build and write it."""
    out = Path(config.out_dir)
    cache = out / "qtable.csv"
    if cache.exists():
        try:
            table = FrequencyTable.from_csv(cache, config.fs, config.tqwt_levels, config.tqwt_r)
            if _table_fits(table, config):
                return table
        except (KeyError, TypeError, ValueError):
            pass  # an unreadable cache is rebuilt like a stale one
    table = build_q_lookup(
        config.fs, config.tqwt_levels, config.q_min, config.q_max, config.q_step, config.tqwt_r
    )
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(cache)
    return table


CHANNELS = ("ecg", "ppg")
STACK_ROWS = 64  # ~250 KB of transform workspace per row: bounds memory on long records


def _preprocess_record(config: PipelineConfig, table: FrequencyTable, raw_dir: Path, pre_dir: Path) -> None:
    """Denoise one record's ECG and PPG windows into `pre_dir`, one stack per Q.

    Q is chosen per channel window (ECG then PPG, window by window); the
    windows that share a Q are then denoised together.  A channel window with
    a non-finite sample is written as NaN with empty `q` and peak cells.
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

    denoised = np.full(windows.shape, np.nan)
    for q in np.unique(qs[np.isfinite(qs)]):
        w_idx, c_idx = np.nonzero(qs == q)
        for lo in range(0, w_idx.size, STACK_ROWS):
            rows = w_idx[lo : lo + STACK_ROWS], c_idx[lo : lo + STACK_ROWS]
            denoised[rows] = denoise_window(windows[rows], float(q), table)
    pre_dir.mkdir()
    for c, channel in enumerate(CHANNELS):
        np.save(pre_dir / f"{channel}.npy", denoised[:, c].reshape(-1))
    abp_path = raw_dir / "abp.npy"
    if abp_path.exists():
        np.save(pre_dir / "abp.npy", np.load(abp_path)[: n_windows * window])
    (pre_dir / "windows.csv").write_text("\n".join(lines) + "\n")


def stage_preprocess(config: PipelineConfig) -> list[str]:
    """Window-wise adaptive filtering of ECG and PPG; ABP passes through."""
    names = _record_names(config, "raw", "ingest")
    table = _q_table(config)
    out = Path(config.out_dir)
    with _replaced_tree(out / "pre") as pre:
        for name in names:
            _preprocess_record(config, table, out / "raw" / name, pre / name)
    written = [str(out / "pre" / name / f"{channel}.npy") for name in names for channel in CHANNELS]
    _update_manifest(config, "preprocess", names, written)
    return names


def stage_segment(config: PipelineConfig) -> DatasetSplit:
    """Two-cycle segmentation per window, then split and standardize."""
    names = _record_names(config, "pre", "preprocess")
    out = Path(config.out_dir)
    window = config.window_samples()
    parts = []
    for name in names:
        pre_dir = out / "pre" / name
        abp_path = pre_dir / "abp.npy"
        if not abp_path.exists():
            raise DataError(f"record {name} has no ABP channel; cannot build targets")
        ecg = np.load(pre_dir / "ecg.npy")
        ppg = np.load(pre_dir / "ppg.npy")
        abp = np.load(abp_path)
        for lo in range(0, ecg.size - window + 1, window):
            hi = lo + window
            if not all(np.all(np.isfinite(x[lo:hi])) for x in (ecg, ppg, abp)):
                continue  # a window preprocess dropped, or a gap in the ABP
            try:
                part = build_sequences(
                    ecg[lo:hi], ppg[lo:hi], abp[lo:hi], config.fs, config.m,
                    patient_id=name, index_offset=lo,
                )
            except SegmentationError:
                continue  # unusable window; sequences never straddle windows
            if len(part):
                parts.append(part)
    if not parts:
        raise DataError("no usable sequences in any window")
    samples = Sequences.concat(parts)
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


def _train_config(config: PipelineConfig) -> TrainConfig:
    return TrainConfig(
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        grad_cap=config.grad_cap,
        max_epochs=config.max_epochs,
        patience=config.patience,
        seed=config.seed,
    )


def _patient_subset(split: DatasetSplit, patient: str) -> DatasetSplit:
    parts = (split.train, split.validation, split.test)
    return DatasetSplit(*(part[part.patient == patient] for part in parts), split.stats)


def stage_train(config: PipelineConfig) -> list[str]:
    """Fit the sequence regressor; one pooled model or one per patient."""
    split = _dataset(config)
    out = Path(config.out_dir)
    tc = _train_config(config)
    written = []
    history_rows = ["scope,epoch,train_loss,val_loss"]
    if config.pooled:
        params, history = train(split, tc)
        save_model(TrainedModel(params, config.m, split.stats), out / "model.bpnet")
        written.append(str(out / "model.bpnet"))
        for e, (tl, vl) in enumerate(zip(history.train_loss, history.val_loss)):
            history_rows.append(f"pooled,{e},{tl:.8g},{vl:.8g}")
    else:
        models_dir = out / "models"
        models_dir.mkdir(parents=True, exist_ok=True)
        patients = np.unique(split.train.patient).tolist()
        index_rows = ["patient,model_file"]
        for patient in patients:
            subset = _patient_subset(split, patient)
            if not subset.train or not subset.validation:
                continue
            params, history = train(subset, tc)
            path = models_dir / f"{patient}.bpnet"
            save_model(TrainedModel(params, config.m, split.stats), path)
            written.append(str(path))
            index_rows.append(f"{patient},{path.name}")
            for e, (tl, vl) in enumerate(zip(history.train_loss, history.val_loss)):
                history_rows.append(f"{patient},{e},{tl:.8g},{vl:.8g}")
        _atomic_text(models_dir / "index.csv", "\n".join(index_rows) + "\n")
        written.append(str(models_dir / "index.csv"))
    _atomic_text(out / "history.csv", "\n".join(history_rows) + "\n")
    written.append(str(out / "history.csv"))
    _update_manifest(config, "train", [str(out / "dataset.bpseq")], written)
    return written


def _models_for_eval(config: PipelineConfig) -> dict[str, TrainedModel]:
    out = Path(config.out_dir)
    if config.pooled:
        path = out / "model.bpnet"
        if not path.exists():
            raise StageDependencyError(str(path), "train")
        return {"": load_model(path)}
    index = out / "models" / "index.csv"
    if not index.exists():
        raise StageDependencyError(str(index), "train")
    models = {}
    with open(index, newline="") as fh:
        for row in csv.DictReader(fh):
            models[row["patient"]] = load_model(out / "models" / row["model_file"])
    return models


def stage_eval(config: PipelineConfig) -> str:
    """Final-step predictions on the test split plus the standards report."""
    split = _dataset(config)
    models = _models_for_eval(config)
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
            estimates[mask] = model.predict_batch(scored[mask].input_array())
    (sbp_est, dbp_est), (sbp_true, dbp_true) = estimates.T.copy(), scored.target_array()[:, -1].T.copy()
    rows = zip(scored.patient.tolist(), scored.start.tolist(), sbp_true, sbp_est, dbp_true, dbp_est)

    pred_lines = ["patient,start_index,sbp_true,sbp_est,dbp_true,dbp_est"]
    pred_lines += [
        f"{p},{i},{st:.4f},{se:.4f},{dt:.4f},{de:.4f}" for p, i, st, se, dt, de in rows
    ]
    _atomic_text(out / "predictions.csv", "\n".join(pred_lines) + "\n")

    report = assemble_report(sbp_est, sbp_true, dbp_est, dbp_true)
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
    columns = ("sbp_true", "dbp_true", "sbp_est", "dbp_est")
    with open(pred_path, newline="") as fh:
        rows = [[float(row[c]) for c in columns] for row in csv.DictReader(fh)]
    if not rows:
        raise DataError("predictions file is empty")
    table = np.array(rows)
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
        manifest = json.loads(manifest_path.read_text())
        provenance = (
            f"config hash {manifest['config_hash']}  seed {manifest['seed']}  "
            f"stages {', '.join(sorted(manifest['stages']))}\n"
        )
    return provenance + report_path.read_text()

"""Stage runners wiring the pipeline: ingest through tracking export.

Each stage reads the previous stage's artifact from the output directory and
writes its own atomically (write-temp-then-rename), so re-running a stage
with unchanged inputs reproduces byte-identical artifacts.  A manifest keyed
by the resolved config hash records every stage's inputs and outputs.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from bpnet.config import PipelineConfig
from bpnet.evaluate import assemble_report, tracking_export
from bpnet.model import (
    ModelError,
    TrainConfig,
    TrainedModel,
    load_model,
    save_model,
    train,
)
from bpnet.preprocess import preprocess_signal, select_q, spectrum_peak
from bpnet.recordio import read_csv_record, read_wfdb_record, select_channels
from bpnet.segmentation import (
    DatasetSplit,
    SegmentationError,
    TargetPair,
    build_sequences,
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


def _atomic_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _atomic_text(path: Path, payload: str) -> None:
    _atomic_bytes(path, payload.encode())


def _save_array(path: Path, arr: np.ndarray) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, arr)
    os.replace(tmp, path)


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
    written = []
    names = []
    for path in files:
        record = _load_record_file(path, config.fs)
        triple = select_channels(record)
        rec_dir = out / "raw" / record.descriptor.record_name
        rec_dir.mkdir(parents=True, exist_ok=True)
        _save_array(rec_dir / "ecg.npy", triple.ecg)
        _save_array(rec_dir / "ppg.npy", triple.ppg)
        if triple.abp is not None:
            _save_array(rec_dir / "abp.npy", triple.abp)
        meta = {"fs": record.descriptor.sampling_rate, "name": record.descriptor.record_name}
        _atomic_text(rec_dir / "meta.json", json.dumps(meta, sort_keys=True) + "\n")
        written += [str(rec_dir / "ecg.npy"), str(rec_dir / "ppg.npy")]
        names.append(record.descriptor.record_name)
    _update_manifest(config, "ingest", [str(p) for p in files], written)
    return names


def _q_table(config: PipelineConfig) -> FrequencyTable:
    """Build the lookup or reuse the cached CSV export."""
    out = Path(config.out_dir)
    cache = out / "qtable.csv"
    if cache.exists():
        return FrequencyTable.from_csv(cache, config.fs, config.tqwt_levels, config.tqwt_r)
    table = build_q_lookup(
        config.fs, config.tqwt_levels, config.q_min, config.q_max, config.q_step, config.tqwt_r
    )
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(cache)
    return table


def stage_preprocess(config: PipelineConfig) -> list[str]:
    """Window-wise adaptive filtering of ECG and PPG; ABP passes through."""
    names = _record_names(config, "raw", "ingest")
    table = _q_table(config)
    out = Path(config.out_dir)
    window = config.window_samples()
    written = []
    for name in names:
        raw_dir = out / "raw" / name
        ecg = np.load(raw_dir / "ecg.npy")
        ppg = np.load(raw_dir / "ppg.npy")
        n_windows = ecg.size // window
        if n_windows == 0:
            raise DataError(
                f"record {name}: {ecg.size} samples shorter than one "
                f"{window}-sample window"
            )
        pre_dir = out / "pre" / name
        pre_dir.mkdir(parents=True, exist_ok=True)
        ecg_out = np.zeros(n_windows * window)
        ppg_out = np.zeros(n_windows * window)
        rows = []
        for w in range(n_windows):
            lo, hi = w * window, (w + 1) * window
            for channel, src, dst in (("ecg", ecg, ecg_out), ("ppg", ppg, ppg_out)):
                peak = spectrum_peak(src[lo:hi], config.fs)
                q = select_q(peak, table)
                dst[lo:hi] = preprocess_signal(src[lo:hi], config.fs, table)
                rows.append(
                    [
                        w, channel, f"{q:.4g}",
                        f"{peak.frequency_hz:.6g}" if peak else "",
                        f"{peak.left_end_hz:.6g}" if peak else "",
                        f"{peak.prominence:.6g}" if peak else "",
                    ]
                )
        _save_array(pre_dir / "ecg.npy", ecg_out)
        _save_array(pre_dir / "ppg.npy", ppg_out)
        abp_path = raw_dir / "abp.npy"
        if abp_path.exists():
            _save_array(pre_dir / "abp.npy", np.load(abp_path)[: n_windows * window])
        lines = ["window,channel,q,peak_hz,left_end_hz,prominence"]
        lines += [",".join(str(c) for c in row) for row in rows]
        _atomic_text(pre_dir / "windows.csv", "\n".join(lines) + "\n")
        written += [str(pre_dir / "ecg.npy"), str(pre_dir / "ppg.npy")]
    _update_manifest(config, "preprocess", names, written)
    return names


def stage_segment(config: PipelineConfig) -> DatasetSplit:
    """Two-cycle segmentation per window, then split and standardize."""
    names = _record_names(config, "pre", "preprocess")
    out = Path(config.out_dir)
    window = config.window_samples()
    samples = []
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
            try:
                samples += build_sequences(
                    ecg[lo:hi], ppg[lo:hi], abp[lo:hi], config.fs, config.m,
                    patient_id=name, index_offset=lo,
                )
            except SegmentationError:
                continue  # unusable window; sequences never straddle windows
    if not samples:
        raise DataError("no usable sequences in any window")
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
        m=config.m,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        grad_cap=config.grad_cap,
        max_epochs=config.max_epochs,
        patience=config.patience,
        seed=config.seed,
    )


def _patient_subset(split: DatasetSplit, patient: str) -> DatasetSplit:
    return DatasetSplit(
        [s for s in split.train if s.patient_id == patient],
        [s for s in split.validation if s.patient_id == patient],
        [s for s in split.test if s.patient_id == patient],
        split.stats,
    )


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
        patients = sorted({s.patient_id for s in split.train})
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

    def model_key(sample) -> str:
        return "" if config.pooled else sample.patient_id

    ordered = sorted(split.test, key=lambda s: (s.patient_id, s.start_index))
    scored = [s for s in ordered if model_key(s) in models]
    if not scored:
        raise DataError("no test sequences with a matching model")
    # One batched forward pass per model.
    estimates = np.empty((len(scored), 2))
    for key, model in models.items():
        idx = [i for i, s in enumerate(scored) if model_key(s) == key]
        if idx:
            estimates[idx] = model.predict_batch(np.stack([scored[i].input_array() for i in idx]))
    if not np.all(np.isfinite(estimates)):
        raise ModelError("non-finite prediction")
    rows = [
        (s.patient_id, s.start_index, s.targets[-1].sbp, sbp, s.targets[-1].dbp, dbp)
        for s, (sbp, dbp) in zip(scored, estimates.tolist())
    ]

    pred_lines = ["patient,start_index,sbp_true,sbp_est,dbp_true,dbp_est"]
    pred_lines += [
        f"{p},{i},{st:.4f},{se:.4f},{dt:.4f},{de:.4f}" for p, i, st, se, dt, de in rows
    ]
    _atomic_text(out / "predictions.csv", "\n".join(pred_lines) + "\n")

    sbp_true = np.array([r[2] for r in rows])
    sbp_est = np.array([r[3] for r in rows])
    dbp_true = np.array([r[4] for r in rows])
    dbp_est = np.array([r[5] for r in rows])
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
    truth = []
    preds = []
    with open(pred_path, newline="") as fh:
        for row in csv.DictReader(fh):
            truth.append(TargetPair(float(row["sbp_true"]), float(row["dbp_true"])))
            preds.append(TargetPair(float(row["sbp_est"]), float(row["dbp_est"])))
    if not truth:
        raise DataError("predictions file is empty")
    csv_path, svg_path = tracking_export(preds, truth, out / "tracking")
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

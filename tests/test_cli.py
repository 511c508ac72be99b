import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bpnet.cli import main

FAST_TRAIN = "train.max_epochs = 3\ntrain.patience = 3\n"


def _write_config(tmp_path, data_path, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data.path = {data_path}\ntrain.m = 10\nout.dir = {tmp_path / 'out'}\n"
        + FAST_TRAIN
        + extra
    )
    return cfg


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "rec0.csv"
    assert main(["synth", "--out", str(path), "--duration", "70", "--seed", "4"]) == 0
    return path


def test_full_pipeline_smoke(tmp_path, synth_csv, capsys):
    cfg = _write_config(tmp_path, synth_csv)
    for stage in ("ingest", "preprocess", "segment", "train", "eval", "track", "report"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    out = tmp_path / "out"
    for artifact in (
        "qtable.csv", "dataset.bpseq", "dataset.bpseq.manifest.csv",
        "model.bpnet", "history.csv", "predictions.csv",
        "report.txt", "report.csv", "tracking.csv", "tracking.svg", "manifest.json",
    ):
        assert (out / artifact).exists(), artifact
    report = capsys.readouterr().out
    assert "SBP" in report and "grade" in report


def test_eval_without_model_names_train_stage(tmp_path, synth_csv, capsys):
    cfg = _write_config(tmp_path, synth_csv)
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert main(["preprocess", "--config", str(cfg)]) == 0
    assert main(["segment", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg)]) == 2
    assert "run train first" in capsys.readouterr().err


def test_segment_without_preprocess_exits_2(tmp_path, synth_csv, capsys):
    cfg = _write_config(tmp_path, synth_csv)
    assert main(["segment", "--config", str(cfg)]) == 2
    assert "run preprocess first" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, synth_csv, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("train.banana = 1\n")
    assert main(["ingest", "--config", str(cfg)]) == 1
    assert "train.banana" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--duration", "-5"), ("--heart-rate", "0"), ("--fs", "0"), ("--fs", "0.001")]
)
def test_bad_synth_flag_exits_1(tmp_path, capsys, flag, value):
    out = tmp_path / "r.csv"
    assert main(["synth", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


def test_missing_data_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, tmp_path / "nope.csv")
    assert main(["ingest", "--config", str(cfg)]) == 2


def test_usage_error_exits_1(capsys):
    assert main(["unknown-command"]) == 1
    assert main(["ingest"]) == 1  # missing --config


def test_env_var_overrides_out_dir(tmp_path, synth_csv, monkeypatch, capsys):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("BPNET_OUT_DIR", str(override))
    cfg = _write_config(tmp_path, synth_csv)
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert (override / "raw" / "rec0" / "ecg.npy").exists()
    assert not (tmp_path / "out" / "raw").exists()


def test_manifest_records_config_hash_and_seed(tmp_path, synth_csv):
    cfg = _write_config(tmp_path, synth_csv, extra="train.seed = 9\n")
    assert main(["ingest", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert len(manifest["config_hash"]) == 16
    assert "ingest" in manifest["stages"]


def test_manifest_lists_every_ingest_and_preprocess_output(tmp_path, synth_csv):
    cfg = _write_config(tmp_path, synth_csv)
    for stage in ("ingest", "preprocess"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    out = tmp_path / "out"
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    files = {tree: {str(p) for p in (out / tree).rglob("*") if p.is_file()} for tree in ("raw", "pre")}
    assert set(stages["ingest"]["outputs"]) == files["raw"]
    assert set(stages["preprocess"]["outputs"]) == files["pre"] | {str(out / "qtable.csv")}


def test_manifest_records_training_blas_threads(tmp_path, synth_csv, monkeypatch):
    from bpnet import model

    cfg = _write_config(tmp_path, synth_csv)
    for stage in ("ingest", "preprocess", "segment", "train"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    path = tmp_path / "out" / "manifest.json"
    kernel = model.blas_kernel()
    facts = json.loads(path.read_text())["stages"]["train"]
    # train pins one thread whatever the process's count, so the kernel decides the bits.
    assert (facts["blas_threads"], facts["blas_kernel"]) == (("unpinned", "unknown") if kernel is None else (1, kernel))
    monkeypatch.setattr(model, "_openblas_num_threads", lambda: None)  # a numpy without OpenBLAS
    monkeypatch.setattr(model._one_blas_thread, "warned", False)
    with pytest.warns(RuntimeWarning, match="unpinned"):
        assert main(["train", "--config", str(cfg)]) == 0
    facts = json.loads(path.read_text())["stages"]["train"]
    assert (facts["blas_threads"], facts["blas_kernel"]) == ("unpinned", "unknown")


def test_switching_train_mode_leaves_only_this_modes_models(tmp_path):
    data = tmp_path / "data"
    for name, seed in (("pa", 4), ("pb", 5)):
        assert main(["synth", "--out", str(data / f"{name}.csv"), "--duration", "70", "--seed", str(seed)]) == 0
    cfg = _write_config(tmp_path, data)
    for stage in ("ingest", "preprocess", "segment"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    out = tmp_path / "out"
    for pooled, models in (("true", {"model.bpnet"}),
                           ("false", {"models/index.csv", "models/pa.bpnet", "models/pb.bpnet"}),
                           ("true", {"model.bpnet"})):
        cfg = _write_config(tmp_path, data, extra=f"train.pooled = {pooled}\n")
        assert main(["train", "--config", str(cfg)]) == 0, pooled
        present = {str(p.relative_to(out)) for p in (*out.glob("model.bpnet"), *out.glob("models*/*"))}
        assert present == models, pooled
        outputs = json.loads((out / "manifest.json").read_text())["stages"]["train"]["outputs"]
        assert outputs == sorted(str(out / f) for f in models | {"history.csv"}), pooled


def test_repeat_runs_byte_identical_artifacts(tmp_path, synth_csv):
    cfg = _write_config(tmp_path, synth_csv)
    stages = ("ingest", "preprocess", "segment", "train")
    for stage in stages:
        assert main([stage, "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    first = {
        name: (out / name).read_bytes()
        for name in ("dataset.bpseq", "model.bpnet", "history.csv")
    }
    for stage in stages:
        assert main([stage, "--config", str(cfg)]) == 0
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload, name


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    root = Path(__file__).resolve().parents[1]
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    trees = {}
    for threads in ("unset", "1", "2"):
        work = tmp_path / threads
        subprocess.run(
            [sys.executable, str(root / "scripts" / "run_synthetic_e2e.py"),
             "--duration", "120", "--epochs", "2", "--workdir", str(work)],
            env=env if threads == "unset" else {**env, "OPENBLAS_NUM_THREADS": threads},
            check=True, capture_output=True, timeout=600,
        )
        out = work / "out"
        # manifest.json records absolute paths, so it differs between workdirs.
        trees[threads] = {str(p.relative_to(out)): p.read_bytes()
                          for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}
    first = trees.pop("1")
    assert "model.bpnet" in first
    for threads, tree in trees.items():
        assert tree.keys() == first.keys(), threads
        assert sorted(name for name in first if tree[name] != first[name]) == [], threads


def test_training_divergence_exits_3(tmp_path, synth_csv, monkeypatch, capsys):
    from bpnet import cli
    from bpnet.model import TrainingDiverged

    def explode(config):
        raise TrainingDiverged(epoch=2, batch=1)

    monkeypatch.setattr(cli, "stage_train", explode)
    cfg = _write_config(tmp_path, synth_csv)
    assert main(["train", "--config", str(cfg)]) == 3
    assert "epoch 2" in capsys.readouterr().err


def test_config_echoed_to_run_log(tmp_path, synth_csv, capsys):
    cfg = _write_config(tmp_path, synth_csv)
    assert main(["ingest", "--config", str(cfg)]) == 0
    log = capsys.readouterr().out
    assert "resolved config" in log
    assert "train.m = 10" in log
    assert "train.cap = 3.0" in log


def _trained_run(tmp_path, synth_csv):
    cfg = _write_config(tmp_path, synth_csv)
    for stage in ("ingest", "preprocess", "segment", "train"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    return cfg, tmp_path / "out" / "model.bpnet"


def test_eval_on_truncated_model_exits_2(tmp_path, synth_csv, capsys):
    cfg, model_path = _trained_run(tmp_path, synth_csv)
    model_path.write_bytes(model_path.read_bytes()[:-100])
    assert main(["eval", "--config", str(cfg)]) == 2
    assert "payload" in capsys.readouterr().err


@pytest.mark.parametrize("pooled, model_file", [("true", "model.bpnet"), ("false", "models/rec0.bpnet")])
def test_eval_refuses_model_trained_on_another_dataset(tmp_path, synth_csv, capsys, pooled, model_file):
    cfg = _write_config(tmp_path, synth_csv, extra=f"train.pooled = {pooled}\n")
    for stage in ("ingest", "preprocess", "segment", "train"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    # A new split re-segments the data; the trained model no longer fits it.
    cfg.write_text(cfg.read_text() + "split.train = 0.6\nsplit.validation = 0.2\nsplit.test = 0.2\n")
    for stage in ("ingest", "preprocess", "segment"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "out" / model_file) in err and "run train again" in err
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_eval_non_finite_estimate_exits_2(tmp_path, synth_csv, capsys):
    from bpnet.model import load_model, save_model

    cfg, model_path = _trained_run(tmp_path, synth_csv)
    trained = load_model(model_path)
    trained.params.head_b[0] = np.inf
    save_model(trained, model_path)
    assert main(["eval", "--config", str(cfg)]) == 2
    assert "non-finite prediction" in capsys.readouterr().err


def test_eval_model_of_another_input_width_exits_2(tmp_path, synth_csv, capsys):
    from bpnet.model import TrainedModel, init_params, load_model, save_model

    cfg, model_path = _trained_run(tmp_path, synth_csv)
    trained = load_model(model_path)
    save_model(TrainedModel(init_params(0, input_dim=512), trained.m, trained.stats), model_path)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "expected (B, M, 512) input" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_eval_overflowing_estimate_exits_2_and_keeps_artifacts(tmp_path, synth_csv, capsys):
    from bpnet.model import load_model, save_model

    cfg, model_path = _trained_run(tmp_path, synth_csv)
    assert main(["eval", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    before = {name: (out / name).read_bytes() for name in ("predictions.csv", "report.txt", "report.csv")}
    trained = load_model(model_path)
    trained.params.head_b[0] = 1e200  # finite, but its squared errors overflow
    save_model(trained, model_path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "RMSE" in err and "not finite" in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert {name: (out / name).read_bytes() for name in before} == before


def _segmented_run(tmp_path, synth_csv):
    cfg = _write_config(tmp_path, synth_csv)
    for stage in ("ingest", "preprocess", "segment"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    return cfg, tmp_path / "out" / "dataset.bpseq"


def test_train_on_garbage_dataset_exits_2(tmp_path, synth_csv, capsys):
    cfg, path = _segmented_run(tmp_path, synth_csv)
    path.write_bytes(b"not a dataset" * 10)
    assert main(["train", "--config", str(cfg)]) == 2
    assert "bad dataset magic" in capsys.readouterr().err


def test_train_on_truncated_dataset_header_exits_2(tmp_path, synth_csv, capsys):
    cfg, path = _segmented_run(tmp_path, synth_csv)
    path.write_bytes(path.read_bytes()[:30])
    assert main(["train", "--config", str(cfg)]) == 2
    assert "truncated dataset header" in capsys.readouterr().err


def test_train_on_unknown_split_name_exits_2(tmp_path, synth_csv, capsys):
    cfg, path = _segmented_run(tmp_path, synth_csv)
    manifest = path.with_name(path.name + ".manifest.csv")
    manifest.write_text(manifest.read_text().replace(",train\n", ",bogus\n", 1))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_train_on_dataset_with_trailing_bytes_exits_2(tmp_path, synth_csv, capsys):
    cfg, path = _segmented_run(tmp_path, synth_csv)
    path.write_bytes(path.read_bytes() + bytes(100))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "payload" in capsys.readouterr().err


def test_train_on_non_finite_test_feature_exits_2(tmp_path, synth_csv, capsys):
    from bpnet.segmentation import FEATURE_DIM, load_dataset

    cfg, path = _segmented_run(tmp_path, synth_csv)
    split = load_dataset(path)
    held = np.setdiff1d(split.test.rows(), np.concatenate([split.train.rows(), split.validation.rows()]))
    row = int(held[0])  # read only by test sequences, so training never touches it
    column = int(np.flatnonzero((split.test.vectors[row] >= 1.0) & (split.test.vectors[row] < 2.0))[0])
    data = bytearray(path.read_bytes())
    at = struct.calcsize("<6s4I4d") + (row * FEATURE_DIM + column) * 4
    (word,) = struct.unpack_from("<I", data, at)
    struct.pack_into("<I", data, at, word | 1 << 30)  # exponent all ones: NaN or inf
    path.write_bytes(bytes(data))
    assert main(["train", "--config", str(cfg)]) == 2
    assert f"dataset row {row} holds a non-finite feature" in capsys.readouterr().err


def test_train_on_bpseq1_dataset_exits_2(tmp_path, synth_csv, capsys):
    from bpnet.segmentation import load_dataset

    cfg, path = _segmented_run(tmp_path, synth_csv)
    split = load_dataset(path)
    # The retired BPSEQ1 layout: header, then M x 513 features and M x 2 targets per sequence.
    parts = (split.train, split.validation, split.test)
    count, s = sum(len(part) for part in parts), split.stats
    old = [b"BPSEQ1", struct.pack("<3I4d", count, 10, 513, s.ecg_mean, s.ecg_std, s.ppg_mean, s.ppg_std)]
    for seq in (seq for part in parts for seq in part):
        old += [seq.input_array().astype("<f4").tobytes(), seq.target_array().astype("<f4").tobytes()]
    path.write_bytes(b"".join(old))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "bad dataset magic b'BPSEQ1'" in capsys.readouterr().err


def test_reingest_drops_stale_records(tmp_path, capsys):
    from bpnet.segmentation import load_dataset

    data = tmp_path / "data"
    for name, seed in (("pa", 4), ("pb", 5)):
        assert main(["synth", "--out", str(data / f"{name}.csv"), "--duration", "70", "--seed", str(seed)]) == 0
    cfg = _write_config(tmp_path, data)
    assert main(["ingest", "--config", str(cfg)]) == 0
    cfg = _write_config(tmp_path, data / "pa.csv")
    assert main(["ingest", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["preprocess", "--config", str(cfg)]) == 0
    assert "preprocessed 1 record(s)" in capsys.readouterr().out
    assert main(["segment", "--config", str(cfg)]) == 0
    split = load_dataset(tmp_path / "out" / "dataset.bpseq")
    patients = np.concatenate([split.train.patient, split.validation.patient, split.test.patient])
    assert set(patients) == {"pa"}
    assert sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_dir()) == ["pre", "raw"]


def test_failed_preprocess_leaves_no_partial_record(tmp_path, synth_csv, capsys):
    # rec0 is written first; "short" (8 s) is shorter than one window.
    data = tmp_path / "data"
    data.mkdir()
    lines = synth_csv.read_text().splitlines(keepends=True)
    (data / "rec0.csv").write_text("".join(lines))
    (data / "short.csv").write_text("".join(lines[:1001]))
    cfg = _write_config(tmp_path, data)
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert main(["preprocess", "--config", str(cfg)]) == 2
    assert "record short" in capsys.readouterr().err
    out = tmp_path / "out"
    assert not (out / "pre" / "rec0").exists() and not (out / "pre.tmp").exists()
    assert main(["segment", "--config", str(cfg)]) == 2
    assert "run preprocess first" in capsys.readouterr().err


def _window_starts(split) -> np.ndarray:
    return np.concatenate([part.start for part in (split.train, split.validation, split.test)])


@pytest.mark.parametrize("column, channel", [(1, "ecg"), (2, "ppg"), (3, "abp")])
def test_non_finite_sample_drops_only_its_window(tmp_path, synth_csv, column, channel):
    from bpnet.segmentation import load_dataset

    window = 2000  # 16 s at 125 Hz
    clean_text = synth_csv.read_text()
    lines = clean_text.splitlines(keepends=True)
    cells = lines[500].split(",")  # sample 499, in window 0
    cells[column] = "nan"
    lines[500] = ",".join(cells) + ("\n" if column == 3 else "")
    outs = {}
    for name, text in (("clean", clean_text), ("nan", "".join(lines))):
        record = tmp_path / name / "rec0.csv"
        record.parent.mkdir()
        record.write_text(text)
        cfg = _write_config(tmp_path / name, record)
        for stage in ("ingest", "preprocess", "segment"):
            assert main([stage, "--config", str(cfg)]) == 0, (name, stage)
        outs[name] = tmp_path / name / "out"

    clean, dropped = (outs[k] / "pre" / "rec0" for k in ("clean", "nan"))
    for ch in ("ecg", "ppg", "abp"):
        got, want = np.load(dropped / f"{ch}.npy"), np.load(clean / f"{ch}.npy")
        if ch != channel:
            assert got.tobytes() == want.tobytes()
        else:  # a dropped ECG / PPG window is all NaN; ABP passes through as read
            assert np.isnan(got[:window]).all() if ch != "abp" else np.isnan(got[499])
            assert got[window:].tobytes() == want[window:].tobytes()
    rows = (dropped / "windows.csv").read_text().splitlines()
    clean_rows = (clean / "windows.csv").read_text().splitlines()
    if channel == "abp":
        assert rows == clean_rows
    else:
        index = 1 if channel == "ecg" else 2
        assert rows[index] == f"0,{channel},,,,"
        assert rows[:index] + rows[index + 1 :] == clean_rows[:index] + clean_rows[index + 1 :]

    clean_starts = _window_starts(load_dataset(outs["clean"] / "dataset.bpseq"))
    starts = _window_starts(load_dataset(outs["nan"] / "dataset.bpseq"))
    assert np.any(clean_starts < window)
    assert starts.size and np.all(starts >= window)
    assert np.array_equal(np.sort(starts), np.sort(clean_starts[clean_starts >= window]))


@pytest.fixture(scope="module")
def synth_cohort(tmp_path_factory):
    """Three 70 s records whose windows' Q sets overlap, so denoising stacks span records."""
    data = tmp_path_factory.mktemp("cohort")
    for i, (seed, rate) in enumerate(((4, "72"), (5, "72"), (6, "84"))):
        args = ["synth", "--out", str(data / f"rec{i}.csv"), "--duration", "70", "--seed", str(seed)]
        assert main([*args, "--heart-rate", rate]) == 0
    return data


@pytest.mark.parametrize("stack_rows", [None, 1])
def test_preprocess_equals_per_window_denoise(tmp_path, synth_cohort, q_table, stack_rows, monkeypatch):
    from bpnet import pipeline
    from bpnet.preprocess import denoise_window, select_q, spectrum_peak

    if stack_rows is not None:  # split every Q's stack into one-window passes
        monkeypatch.setattr(pipeline, "STACK_ROWS", stack_rows)
    cfg = _write_config(tmp_path, synth_cohort)
    for stage in ("ingest", "preprocess"):
        assert main([stage, "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    window = 2000
    qs = {}
    for name in ("rec0", "rec1", "rec2"):
        qs[name] = set()
        for channel in ("ecg", "ppg"):
            raw = np.load(out / "raw" / name / f"{channel}.npy")
            expected = []
            for lo in range(0, raw.size - window + 1, window):
                x = raw[lo : lo + window]
                q = select_q(spectrum_peak(x, 125.0), q_table)
                qs[name].add(q)
                expected.append(denoise_window(x, q, q_table))
            got = np.load(out / "pre" / name / f"{channel}.npy")
            assert got.tobytes() == np.concatenate(expected).tobytes(), (name, channel)
    assert len(set.union(*qs.values())) >= 3
    assert qs["rec0"] & qs["rec1"] and qs["rec1"] & qs["rec2"] and qs["rec0"] & qs["rec2"]


def test_preprocess_peak_memory_does_not_grow_with_the_cohort(tmp_path, monkeypatch):
    """One record plus one stack: four equal records peak as one does.

    Stacks are capped at 4 rows, which one 240 s record fills too, so every
    run holds the same largest stack.
    """
    import tracemalloc

    from bpnet import pipeline
    from bpnet.config import parse_config

    monkeypatch.setattr(pipeline, "STACK_ROWS", 4)
    peaks = {}
    for count in (1, 4):
        data = tmp_path / f"data{count}"
        for i in range(count):
            args = ["synth", "--out", str(data / f"rec{i}.csv"), "--duration", "240", "--seed", "4"]
            assert main(args) == 0
        config = parse_config(f"data.path = {data}\ntrain.m = 10\nout.dir = {tmp_path / f'out{count}'}\n")
        pipeline.stage_ingest(config)
        pipeline.stage_preprocess(config)  # builds the Q table once, outside the measurement
        tracemalloc.start()
        try:
            pipeline.stage_preprocess(config)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] <= 1.2 * peaks[1], peaks


def test_per_patient_models_route_test_sequences(tmp_path):
    from bpnet.model import load_model
    from bpnet.segmentation import load_dataset

    data = tmp_path / "data"
    for name, seed, rate in (("pa", 4, "70"), ("pb", 5, "84")):
        assert main(["synth", "--out", str(data / f"{name}.csv"), "--duration", "70",
                     "--seed", str(seed), "--heart-rate", rate]) == 0
    cfg = _write_config(tmp_path, data, extra="train.pooled = false\n")
    for stage in ("ingest", "preprocess", "segment", "train", "eval", "track"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    out = tmp_path / "out"
    assert not (out / "model.bpnet").exists()
    index = (out / "models" / "index.csv").read_text().splitlines()
    assert index == ["patient,model_file", "pa,pa.bpnet", "pb,pb.bpnet"]

    split = load_dataset(out / "dataset.bpseq")

    def expected_lines(patient):
        test = split.test[split.test.patient == patient]
        test = test[np.argsort(test.start)]
        est = load_model(out / "models" / f"{patient}.bpnet").predict_batch(test.input_array())
        truth = test.target_array()[:, -1]
        return [
            f"{patient},{i},{t[0]:.4f},{e[0]:.4f},{t[1]:.4f},{e[1]:.4f}"
            for i, t, e in zip(test.start.tolist(), truth, est)
        ]

    both = expected_lines("pa") + expected_lines("pb")
    predictions = (out / "predictions.csv").read_text().splitlines()
    assert predictions[1:] == both and len(both) == len(split.test)

    # A patient without a model is left out of the evaluation.
    (out / "models" / "index.csv").write_text("patient,model_file\npb,pb.bpnet\n")
    assert main(["eval", "--config", str(cfg)]) == 0
    assert (out / "predictions.csv").read_text().splitlines()[1:] == expected_lines("pb")


def test_preprocess_rebuilds_q_table_for_new_grid(tmp_path, synth_csv):
    cfg = _write_config(tmp_path, synth_csv)
    for stage in ("ingest", "preprocess"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    table = tmp_path / "out" / "qtable.csv"
    assert len(table.read_text().splitlines()) == 1 + 41
    cfg = _write_config(tmp_path, synth_csv, extra="tqwt.q_max = 1.2\n")
    assert main(["preprocess", "--config", str(cfg)]) == 0
    assert len(table.read_text().splitlines()) == 1 + 21
    windows = (tmp_path / "out" / "pre" / "rec0" / "windows.csv").read_text().splitlines()[1:]
    qs = [float(line.split(",")[2]) for line in windows]
    assert qs and max(qs) <= 1.2


def test_track_on_header_only_predictions_exits_2(tmp_path, synth_csv, capsys):
    cfg = _write_config(tmp_path, synth_csv)
    out = tmp_path / "out"
    out.mkdir()
    (out / "predictions.csv").write_text("patient,start_index,sbp_true,sbp_est,dbp_true,dbp_est\n")
    assert main(["track", "--config", str(cfg)]) == 2
    assert "predictions file is empty" in capsys.readouterr().err
    assert not (out / "tracking.csv").exists()


@pytest.mark.parametrize(
    "text, named",
    [
        ("patient,start_index,sbp,sbp_est,dbp_true,dbp_est\np,0,120,121,80,81\n", "no column 'sbp_true'"),
        ("patient,start_index,sbp_true,sbp_est,dbp_true,dbp_est\np,0,120,high,80,81\n", "could not convert"),
        ("patient,start_index,sbp_true,sbp_est,dbp_true,dbp_est\np,0,120,nan,80,81\n", "non-finite pressure"),
    ],
    ids=["wrong-columns", "non-numeric", "non-finite"],
)
def test_track_on_malformed_predictions_exits_2(tmp_path, synth_csv, capsys, text, named):
    cfg = _write_config(tmp_path, synth_csv)
    out = tmp_path / "out"
    out.mkdir()
    (out / "predictions.csv").write_text(text)
    assert main(["track", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(out / "predictions.csv") in err and named in err and "Traceback" not in err
    assert not (out / "tracking.csv").exists()


def test_per_patient_eval_on_malformed_model_index_exits_2(tmp_path, synth_csv, capsys):
    cfg = _write_config(tmp_path, synth_csv, extra="train.pooled = false\n")
    for stage in ("ingest", "preprocess", "segment"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    index = tmp_path / "out" / "models" / "index.csv"
    index.parent.mkdir()
    index.write_text("patient,file\nrec0,rec0.bpnet\n")
    assert main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(index) in err and "no column 'model_file'" in err


@pytest.mark.parametrize("text", ["{", "[1, 2]", '{"x": 1}', '{"config_hash": "HASH", "stages": []}'])
def test_unreadable_manifest_is_replaced(tmp_path, synth_csv, text):
    from bpnet.config import parse_config

    cfg = _write_config(tmp_path, synth_csv)
    path = tmp_path / "out" / "manifest.json"
    path.parent.mkdir()
    path.write_text(text.replace("HASH", parse_config(cfg.read_text()).config_hash()))
    assert main(["ingest", "--config", str(cfg)]) == 0
    manifest = json.loads(path.read_text())
    assert list(manifest["stages"]) == ["ingest"] and len(manifest["config_hash"]) == 16


@pytest.mark.parametrize("text", ["{", "[1, 2]", '{"x": 1}', '{"stages": {}}'])
def test_report_on_unreadable_manifest_exits_2(tmp_path, synth_csv, capsys, text):
    cfg = _write_config(tmp_path, synth_csv)
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.txt").write_text("== SBP (n=2) ==\n")
    (out / "manifest.json").write_text(text)
    assert main(["report", "--config", str(cfg)]) == 2
    assert f"{out / 'manifest.json'} is not a run manifest" in capsys.readouterr().err


def test_eval_constant_estimate_reports_r_as_na(tmp_path, synth_csv, capsys):
    from bpnet.model import load_model, save_model

    cfg, model_path = _trained_run(tmp_path, synth_csv)
    trained = load_model(model_path)
    trained.params.head_w[:, 0] = 0.0  # every SBP estimate is head_b[0]
    save_model(trained, model_path)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 0
    sbp = capsys.readouterr().out.split("== DBP")[0]
    assert "MAE" in sbp and "grade" in sbp and "r n/a" in sbp
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert rows[1].startswith("SBP,") and rows[1].endswith(",") and not rows[2].endswith(",")


def test_q_table_memoized_per_settings(tmp_path, monkeypatch):
    from bpnet import pipeline
    from bpnet.config import parse_config

    def settings(config):
        return config.fs, config.tqwt_levels, config.q_min, config.q_max, config.q_step, config.tqwt_r

    default = settings(parse_config(""))
    built = pipeline._q_table(*default)
    monkeypatch.setattr(pipeline, "build_q_lookup", lambda *args: pytest.fail("equal settings rebuilt"))
    assert pipeline._q_table(*default) is built
    monkeypatch.undo()
    for column in (built.qs, built.centers_hz, built.lower3db_hz):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0

    record = tmp_path / "fast.csv"
    assert main(["synth", "--out", str(record), "--duration", "40", "--fs", "250"]) == 0
    cfg = _write_config(tmp_path, record, extra="fs = 250\ntqwt.q_max = 1.2\n")
    table = pipeline._q_table(*settings(parse_config(cfg.read_text())))
    assert len(table) == 21 and table.centers_hz[0] == pytest.approx(1.626, abs=1e-3)
    for stage in ("ingest", "preprocess"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    assert len((tmp_path / "out" / "qtable.csv").read_text().splitlines()) == 1 + 21


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_preprocess_ignores_an_existing_q_table(tmp_path, synth_csv):
    cfgs, outs = {}, {}
    for name in ("fresh", "planted"):
        (tmp_path / name).mkdir()
        cfgs[name] = _write_config(tmp_path / name, synth_csv)
        outs[name] = tmp_path / name / "out"
        assert main(["ingest", "--config", str(cfgs[name])]) == 0
    assert main(["preprocess", "--config", str(cfgs["fresh"])]) == 0
    exported = (outs["fresh"] / "qtable.csv").read_text()
    # Same grid and centres, cutoffs scaled by 1.5: a table only a full rebuild tells apart.
    lines = exported.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    planted = [lines[0]] + [f"{q},{c},{float(lo) * 1.5:.10g}" for q, c, lo in rows]
    (outs["planted"] / "qtable.csv").write_text("\n".join(planted) + "\n")
    assert main(["preprocess", "--config", str(cfgs["planted"])]) == 0
    assert _tree_bytes(outs["planted"] / "pre") == _tree_bytes(outs["fresh"] / "pre")
    assert (outs["planted"] / "qtable.csv").read_text() == exported


def test_eval_nan_lstm_weight_exits_2(tmp_path, synth_csv, capsys):
    from bpnet.model import load_model, save_model

    cfg, model_path = _trained_run(tmp_path, synth_csv)
    trained = load_model(model_path)
    trained.params.fw.wx[0, 0] = np.nan
    save_model(trained, model_path)
    assert main(["eval", "--config", str(cfg)]) == 2
    assert "non-finite activation at step 0 in forward lstm" in capsys.readouterr().err


def test_ingest_rejects_record_at_other_rate(tmp_path, capsys):
    from bpnet.recordio import write_wfdb_record

    adc = np.arange(250 * 20) % 100
    header, payload = write_wfdb_record("fast", 250.0, ["II", "PLETH"], [adc, adc], fmt=16)
    (tmp_path / "fast.hea").write_bytes(header)
    (tmp_path / "fast.dat").write_bytes(payload)
    cfg = _write_config(tmp_path, tmp_path / "fast.hea")
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "record fast" in err and "250 Hz" in err and "125 Hz" in err
    cfg = _write_config(tmp_path, tmp_path / "fast.hea", extra="fs = 250\n")
    assert main(["ingest", "--config", str(cfg)]) == 0


def test_ingest_writes_the_same_raw_files_without_dropped_signals(tmp_path):
    from bpnet.recordio import write_wfdb_record

    rng = np.random.default_rng(8)
    ecg, resp, ppg, ecg2 = rng.integers(-2000, 2000, size=(4, 125 * 20))
    trees = []
    for extra, labels, arrays in (
        (False, ["II", "PLETH"], [ecg, ppg]),
        (True, ["II", "RESP", "PLETH", "II"], [ecg, resp, ppg, ecg2]),
    ):
        run = tmp_path / ("extra" if extra else "plain")
        run.mkdir()
        header, payload = write_wfdb_record("p0", 125.0, labels, arrays, gains=[100.0] * len(labels))
        (run / "p0.hea").write_bytes(header)
        (run / "p0.dat").write_bytes(payload)
        assert main(["ingest", "--config", str(_write_config(run, run / "p0.hea"))]) == 0
        raw = run / "out" / "raw"
        trees.append({str(p.relative_to(raw)): p.read_bytes() for p in sorted(raw.rglob("*")) if p.is_file()})
    assert sorted(trees[0]) == ["p0/ecg.npy", "p0/meta.json", "p0/ppg.npy"]
    assert trees[0] == trees[1]


def test_ingest_rejects_two_files_of_one_record(tmp_path, synth_csv, capsys):
    from bpnet.recordio import write_wfdb_record

    data = tmp_path / "data"
    data.mkdir()
    (data / "p1.csv").write_text(synth_csv.read_text())
    adc = np.arange(125 * 20) % 100
    header, payload = write_wfdb_record("p1", 125.0, ["II", "PLETH"], [adc, adc], fmt=16)
    (data / "p1.hea").write_bytes(header)
    (data / "p1.dat").write_bytes(payload)
    cfg = _write_config(tmp_path, data)
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(data / "p1.csv") in err and str(data / "p1.hea") in err and "record p1" in err
    out = tmp_path / "out"
    assert not (out / "raw").exists() and not (out / "raw.tmp").exists()


@pytest.mark.parametrize(
    "cached",
    [
        "a,b\n1,2\n",
        "q,center_hz,lower3db_hz\n1.0,x,0.5\n",
        "q,center_hz,lower3db_hz\n",
        "q,center_hz,lower3db_hz\n1.0\n",
    ],
    ids=["wrong-header", "non-numeric", "header-only", "short-row"],
)
def test_preprocess_rebuilds_unreadable_q_table(tmp_path, synth_csv, cached):
    cfg = _write_config(tmp_path, synth_csv)
    assert main(["ingest", "--config", str(cfg)]) == 0
    table = tmp_path / "out" / "qtable.csv"
    table.write_text(cached)
    assert main(["preprocess", "--config", str(cfg)]) == 0
    assert len(table.read_text().splitlines()) == 1 + 41


@pytest.mark.parametrize(
    "setting, code, named",
    [
        ("train.seed = -1", 1, "train.seed"),
        ("train.lr = 0", 1, "train.lr"),
        ("train.patience = 0", 1, "train.patience"),
        ("tqwt.levels = 40", 1, "tqwt.levels"),
        ("tqwt.r = 1", 1, "tqwt.r"),
        ("tqwt.q_step = 1e-300", 2, "Q grid from 1.0 to 1.4 in steps of 1e-300"),
    ],
)
def test_crashing_config_value_gets_typed_error(tmp_path, synth_csv, capsys, setting, code, named):
    cfg = _write_config(tmp_path, synth_csv, extra=setting + "\n")
    # A config error stops ingest; a Q grid numpy cannot build stops preprocess.
    # main() returning at all means no exception escaped, so no traceback.
    codes = [main([stage, "--config", str(cfg)]) for stage in ("ingest", "preprocess")]
    assert codes == ([1, 1] if code == 1 else [0, code])
    assert named in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, synth_csv):
    root = tmp_path_factory.mktemp("flips")
    cfg = _write_config(root, synth_csv)
    for stage in ("ingest", "preprocess", "segment", "train"):
        assert main([stage, "--config", str(cfg)]) == 0, stage
    return cfg, root / "out"


@pytest.mark.parametrize("artifact, stage", [("dataset.bpseq", "train"), ("model.bpnet", "eval")])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_bit_flip_exits_0_or_2(trained_run, capsys, artifact, stage, data):
    cfg, out = trained_run
    pristine = {path: path.read_bytes() for path in (out / "dataset.bpseq", out / "model.bpnet")}
    flipped = bytearray(pristine[out / artifact])
    bit = data.draw(st.integers(0, 8 * len(flipped) - 1), label="bit")
    flipped[bit // 8] ^= 1 << (bit % 8)
    (out / artifact).write_bytes(bytes(flipped))
    try:
        code = main([stage, "--config", str(cfg)])  # an exception escaping main() fails the test
    finally:
        for path, payload in pristine.items():
            path.write_bytes(payload)
    assert code in (0, 2), capsys.readouterr().err

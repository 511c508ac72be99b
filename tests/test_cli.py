import json
import struct

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


def test_eval_non_finite_estimate_exits_2(tmp_path, synth_csv, capsys):
    from bpnet.model import load_model, save_model

    cfg, model_path = _trained_run(tmp_path, synth_csv)
    trained = load_model(model_path)
    trained.params.head_b[0] = np.inf
    save_model(trained, model_path)
    assert main(["eval", "--config", str(cfg)]) == 2
    assert "non-finite prediction" in capsys.readouterr().err


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


@pytest.mark.parametrize("stack_rows", [None, 1])
def test_preprocess_equals_per_window_denoise(tmp_path, synth_csv, q_table, stack_rows, monkeypatch):
    from bpnet import pipeline
    from bpnet.preprocess import denoise_window, select_q, spectrum_peak

    if stack_rows is not None:  # split every Q's stack into one-window passes
        monkeypatch.setattr(pipeline, "STACK_ROWS", stack_rows)
    cfg = _write_config(tmp_path, synth_csv)
    for stage in ("ingest", "preprocess"):
        assert main([stage, "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    window = 2000
    qs = set()
    for channel in ("ecg", "ppg"):
        raw = np.load(out / "raw" / "rec0" / f"{channel}.npy")
        expected = []
        for lo in range(0, raw.size - window + 1, window):
            x = raw[lo : lo + window]
            q = select_q(spectrum_peak(x, 125.0), q_table)
            qs.add(q)
            expected.append(denoise_window(x, q, q_table))
        assert np.load(out / "pre" / "rec0" / f"{channel}.npy").tobytes() == np.concatenate(expected).tobytes()
    assert len(qs) >= 3


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


def test_q_table_reused_only_when_it_fits(tmp_path, monkeypatch):
    from bpnet import pipeline
    from bpnet.config import parse_config

    config = parse_config(f"out.dir = {tmp_path / 'out'}\n")
    built = pipeline._q_table(config)
    monkeypatch.setattr(pipeline, "build_q_lookup", lambda *args: pytest.fail("fitting table rebuilt"))
    assert np.allclose(pipeline._q_table(config).centers_hz, built.centers_hz, rtol=1e-9)
    monkeypatch.undo()
    stale = parse_config(f"fs = 250\ntqwt.q_max = 1.2\nout.dir = {tmp_path / 'out'}\n")
    table = pipeline._q_table(stale)
    assert len(table) == 21 and table.centers_hz[0] == pytest.approx(1.626, abs=1e-3)
    assert len((tmp_path / "out" / "qtable.csv").read_text().splitlines()) == 1 + 21


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

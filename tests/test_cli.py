import json
from pathlib import Path

import numpy as np
import pytest

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

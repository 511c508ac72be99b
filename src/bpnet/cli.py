"""Command-line surface: pipeline stages plus the synthetic-record generator.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 training
divergence.  The only environment override honored is BPNET_OUT_DIR for the
output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from bpnet.config import ConfigError, PipelineConfig, parse_config
from bpnet.evaluate import EvaluateError
from bpnet.model import ModelError, TrainingDiverged
from bpnet.pipeline import (
    STAGES,
    DataError,
    stage_eval,
    stage_ingest,
    stage_preprocess,
    stage_report,
    stage_segment,
    stage_track,
    stage_train,
)
from bpnet.preprocess import PreprocessError
from bpnet.recordio import RecordIOError
from bpnet.segmentation import DatasetError, SegmentationError
from bpnet.synthetic import SyntheticConfig, generate
from bpnet.tqwt import TqwtError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bpnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        p.add_argument("--config", required=True, help="path to the key = value config file")

    synth = sub.add_parser("synth", help="write a synthetic ECG/PPG/ABP record as CSV")
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.add_argument("--duration", type=float, default=120.0, help="seconds of signal")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--fs", type=float, default=125.0)
    synth.add_argument("--heart-rate", type=float, default=75.0, help="mean bpm")
    synth.add_argument("--hr-swing", type=float, default=12.0, help="bpm modulation depth")
    synth.add_argument("--noise", type=float, default=0.02, help="additive noise std")
    return parser


def _load_config(path: str) -> PipelineConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"bpnet: cannot read config: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    config = parse_config(text)
    env_out = os.environ.get("BPNET_OUT_DIR")
    return dataclasses.replace(config, out_dir=env_out) if env_out else config


def _run_stage(command: str, config: PipelineConfig) -> None:
    # Echo the fully resolved config so every run log is reproducible.
    print(f"bpnet {command}: resolved config")
    for line in config.to_canonical_text().rstrip().splitlines():
        print(f"  {line}")
    if command == "ingest":
        names = stage_ingest(config)
        print(f"ingested {len(names)} record(s): {', '.join(names)}")
    elif command == "preprocess":
        names = stage_preprocess(config)
        print(f"preprocessed {len(names)} record(s)")
    elif command == "segment":
        split = stage_segment(config)
        print(
            f"dataset: {len(split.train)} train / {len(split.validation)} validation / "
            f"{len(split.test)} test sequences"
        )
    elif command == "train":
        written = stage_train(config)
        print("wrote " + ", ".join(written))
    elif command == "eval":
        print(stage_eval(config), end="")
    elif command == "track":
        csv_path, svg_path = stage_track(config)
        print(f"wrote {csv_path} and {svg_path}")
    elif command == "report":
        print(stage_report(config), end="")
    else:  # pragma: no cover - parser restricts commands
        raise SystemExit(EXIT_USAGE)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "synth":
            cfg = SyntheticConfig(
                fs=args.fs,
                duration_s=args.duration,
                heart_rate_bpm=args.heart_rate,
                hr_swing_bpm=args.hr_swing,
                noise_std=args.noise,
                seed=args.seed,
            )
            record = generate(cfg)
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(record.to_csv())
            print(f"wrote {out} ({record.t.size} samples at {cfg.fs:g} Hz)")
            return EXIT_OK
        config = _load_config(args.config)
        _run_stage(args.command, config)
        return EXIT_OK
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"bpnet: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as exc:
        print(f"bpnet: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (
        DataError, DatasetError, RecordIOError, SegmentationError, PreprocessError,
        TqwtError, ModelError, EvaluateError, OSError,
    ) as exc:
        print(f"bpnet: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload and print its result: environment, checks, metrics, JSON.

Imported only after run.py has limited the BLAS threads and put bpnet's
sources on the path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import layers
import workloads as wl
from spans import Tracer


def environment(nproc: int, blas_threads: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "cores": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "unmeasured_modules": ["physio (no caller in the pipeline)"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def run_one(script: Path, root: Path, name: str, seed: int, seconds: float, trace: bool, blas_threads: int) -> int:
    """Make inputs, set up, measure (and trace); print the result; return the exit status."""
    work_root = root / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root))
    try:
        subprocess.run(
            [sys.executable, str(script), "--make-inputs", str(workdir),
             "--workload", name, "--seed", str(seed)],
            check=True,
        )
        run = wl.Run(name, seed, workdir)
        setup_samples: list[float] = []
        table = wl.setup(run, setup_samples)
        untraced = wl.guarded(run, wl.measure, run, table, seconds)
        traced = tracer = None
        if trace and untraced is not None:
            tracer = Tracer()
            tracer.install()
            try:
                traced = wl.guarded(run, wl.measure, run, table, seconds, tracer)
            finally:
                tracer.restore()
        layer_metrics, breakdown = ({}, {})
        if traced is not None:
            layer_metrics, breakdown = layers.per_layer(tracer)
            run.info["traced_sequences_kept"] = layer_metrics["segmentation.sequences_kept"]
        rss = peak_rss_mb()  # before the final checks load the dataset again
        wl.guarded(run, wl.final_checks, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(len(os.sched_getaffinity(0)), blas_threads)
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("# env " + json.dumps(env, sort_keys=True))
    grouped: dict[str, list[tuple[bool, str]]] = {}
    for label, ok, detail in run.checks:
        grouped.setdefault(label, []).append((ok, detail))
    for label, outcomes in grouped.items():
        failed = [d for ok, d in outcomes if not ok]
        detail = failed[0] if failed else outcomes[-1][1]
        print(f"# check {'FAIL' if failed else 'ok  '} {label} x{len(outcomes)}" + (f" ({detail})" if detail else ""))

    e2e: dict[str, tuple[float, str]] = {}
    if untraced is not None:
        ops_ms = [1e3 * t for t in untraced.op_s]
        e2e = {
            "setup_s": (float(np.median(setup_samples + untraced.setup_s)), "s"),
            "pipeline_s": (float(np.median(untraced.pass_s)), "s"),
            "op_latency_ms_p90": (percentile(ops_ms, 90), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        print(f"# samples: setup {1 + len(untraced.setup_s)}, passes {len(untraced.pass_s)}, ops {len(ops_ms)}")
        for stage, times in untraced.stage_s.items():
            print(f"# stage {stage:<10} median {np.median(times):9.4f} s  (n={len(times)})")
        derived = derived_metrics(name, untraced, run)
        for key, value in derived.items():
            print(f"# {key} = {value:.6g}")

    if trace:
        if traced is None:
            metrics = {}
        else:
            metrics = per_layer_metrics(name, untraced, traced, run, layer_metrics)
            path = work_root / f"trace-{name}-{seed}.json"
            path.write_text(json.dumps({"workload": name, "seed": seed, "env": env,
                                        "breakdown": breakdown, "trace": tracer.to_json()}))
            print(f"# spans: {len(tracer.spans)} written to {path.relative_to(root)}")
            for mod, secs in breakdown["self_s_by_module"].items():
                print(f"# self time {mod:<13} {secs:9.4f} s  {100 * secs / breakdown['traced_s']:5.1f} %")
        units = PER_LAYER_UNITS
    else:
        metrics = {k: v for k, (v, _) in e2e.items()}
        units = {k: u for k, (_, u) in e2e.items()}
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    result = {
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


def derived_metrics(name: str, phase: wl.Phase, run: wl.Run) -> dict[str, float]:
    """Workload-specific throughputs, each from the untraced stage times."""
    med = {stage: float(np.median(t)) for stage, t in phase.stage_s.items()}
    out = {}
    if "train" in med:
        out["train_seq_per_s"] = run.info["n_train"] * wl.EPOCHS / med["train"]
        out["val_mse_final"] = run.info["val_mse_final"][-1]
    if "segment" in med:
        out["frontend_signal_s_per_s"] = wl.signal_seconds(name) / sum(med[s] for s in wl.FRONT_END)
    if "eval" in med:
        out["score_seq_per_s"] = run.info["n_test"] / med["eval"]
    ops_ms = [1e3 * t for t in phase.op_s]
    out["op_latency_ms_p50"] = percentile(ops_ms, 50)
    if len(ops_ms) >= 1000:
        out["op_latency_ms_p99"] = percentile(ops_ms, 99)
    return out


PER_LAYER_UNITS = {
    "pipeline.ingest_s": "s", "pipeline.preprocess_s": "s", "pipeline.segment_s": "s",
    "pipeline.train_s": "s", "pipeline.eval_s": "s", "pipeline.track_s": "s",
    "recordio.read_csv_s": "s", "recordio.read_wfdb_s": "s", "recordio.samples_read": "count",
    "tqwt.decompose_ms": "ms", "tqwt.reconstruct_ms": "ms", "tqwt.calls": "count",
    "preprocess.spectrum_peak_ms": "ms", "preprocess.denoise_ms": "ms",
    "preprocess.spectrum_peak_calls_per_window": "count",
    "preprocess.q_fallback_ratio.ecg": "ratio", "preprocess.q_fallback_ratio.ppg": "ratio",
    "segmentation.build_sequences_s": "s", "segmentation.split_s": "s",
    "segmentation.save_dataset_s": "s", "segmentation.load_dataset_s": "s",
    "segmentation.sequences_kept": "count", "segmentation.windows_dropped": "count",
    "model.forward_ms": "ms", "model.backward_ms": "ms",
    "model.lstm_forward_ms.fw": "ms", "model.lstm_forward_ms.bw": "ms", "model.lstm_forward_ms.lstm2": "ms",
    "model.lstm_backward_ms.fw": "ms", "model.lstm_backward_ms.bw": "ms", "model.lstm_backward_ms.lstm2": "ms",
    "model.dense_head_self_ms": "ms", "model.clip_ms": "ms", "model.adam_ms": "ms",
    "model.validation_s": "s", "model.clip_fraction": "ratio",
    "model.step_gflop": "GFLOP", "model.lstm_gflop.fw": "GFLOP", "model.lstm_gflop.bw": "GFLOP",
    "model.lstm_gflop.lstm2": "GFLOP", "model.achieved_gflops": "GFLOP/s", "model.matmul_probe_gflops": "GFLOP/s",
    "model.val_mse_final": "mmHg2",
    "evaluate.assemble_report_ms": "ms", "evaluate.tracking_export_ms": "ms",
    "bench.train_seq_per_s": "1/s", "bench.frontend_signal_s_per_s": "s/s", "bench.score_seq_per_s": "1/s",
    "bench.op_latency_ms_p50": "ms", "bench.op_latency_ms_p99": "ms", "bench.op_samples": "count", "bench.pass_samples": "count",
    "bench.error_rate": "ratio",
    "trace.overhead_pass": "ratio", "trace.overhead_op": "ratio",
    "trace.coverage_pass": "ratio", "trace.coverage_op": "ratio", "trace.overhead_estimate": "ratio",
}


def per_layer_metrics(name: str, untraced: wl.Phase, traced: wl.Phase, run: wl.Run, layer_metrics: dict) -> dict[str, float]:
    m = dict(layer_metrics)
    # The train_m10 op is a B=32 training step; the frontend_bulk op runs no model.
    flops = layers.step_flops(wl.BATCH, wl.M) if name == "train_m10" else {}
    m["model.step_gflop"] = flops.get("total", 0.0) / 1e9
    for layer in ("fw", "bw", "lstm2"):
        m[f"model.lstm_gflop.{layer}"] = flops.get(f"lstm.{layer}", 0.0) / 1e9
    m["model.achieved_gflops"] = m["model.step_gflop"] / float(np.median(untraced.op_s))
    m["model.matmul_probe_gflops"] = layers.matmul_probe(wl.BATCH, wl.M)
    derived = derived_metrics(name, untraced, run)
    m["model.val_mse_final"] = derived.get("val_mse_final", 0.0)
    for key in ("train_seq_per_s", "frontend_signal_s_per_s", "score_seq_per_s", "op_latency_ms_p50", "op_latency_ms_p99"):
        m[f"bench.{key}"] = derived.get(key, 0.0)
    m["bench.op_samples"] = float(len(untraced.op_s))
    m["bench.pass_samples"] = float(len(untraced.pass_s))
    m["bench.error_rate"] = run.failed / max(run.attempted, 1)
    m["trace.overhead_pass"] = float(np.median(traced.pass_s) / np.median(untraced.pass_s) - 1.0)
    m["trace.overhead_op"] = float(np.median(traced.op_s) / np.median(untraced.op_s) - 1.0)
    return {k: float(m[k]) for k in PER_LAYER_UNITS}

"""The benchmark workloads: input generation, set-up, closed loops, checks.

Every workload drives bpnet only through public functions, one call after
another (a closed loop with one client), and times:

* passes: one run of the workload's chain of pipeline stages;
* ops: the workload's unit operation, repeated back to back.

| workload      | pass (stage chain)              | op                                        |
|---------------|---------------------------------|-------------------------------------------|
| train_m10     | ingest -> report, EPOCHS epochs | training step, B=32: fwd, bwd, clip, Adam |
| frontend_bulk | ingest -> preprocess -> segment | preprocess_signal on one 16 s window      |

Module references (``pipeline.stage_ingest``, ``model.forward_batch``) are
looked up at call time so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import csv
import itertools
import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bpnet import config as bconfig
from bpnet import model, pipeline, preprocess, recordio, segmentation, synthetic, tqwt

M = 10
EPOCHS = 5           # train_m10: fixed epoch count; early stopping is off
BATCH = 32
LR = 0.003
MIN_PASSES = 3
MIN_OPS = 110        # >= 10 samples beyond p90
PREDICT_AGREEMENT = 1e-9

# (heart rate bpm, duration s, file format) per patient.
COHORTS = {
    "train_m10": [(75.0, 240.0, "csv"), (88.0, 240.0, "csv")],
    "frontend_bulk": [
        (hr, 600.0, "csv" if i % 2 == 0 else "212")
        for i, hr in enumerate((64.0, 72.0, 80.0, 88.0, 96.0, 104.0))
    ],
}
# Share of --seconds spent on passes; the rest goes to ops.
PASS_SHARE = {"train_m10": 0.5, "frontend_bulk": 0.8}
STAGES = {
    "train_m10": ("ingest", "preprocess", "segment", "train", "eval", "track", "report"),
    "frontend_bulk": ("ingest", "preprocess", "segment"),
}
FRONT_END = ("ingest", "preprocess", "segment")

# WFDB format 212 stores 12-bit samples; gains keep each channel in range.
WFDB_LABELS = ["II", "PLETH", "ABP"]
WFDB_GAINS = [1000.0, 1000.0, 10.0]
WFDB_UNITS = ["mV", "NU", "mmHg"]


@dataclass
class Phase:
    """Raw samples from one measured phase (untraced or traced)."""

    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    stage_s: dict[str, list[float]] = field(default_factory=dict)
    op_s: list[float] = field(default_factory=list)


@dataclass
class Run:
    name: str
    seed: int
    workdir: Path
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def config(self) -> bconfig.PipelineConfig:
        return bconfig.parse_config(config_text(self.seed, self.workdir))

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks.append((label, bool(ok), detail))
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0


def config_text(seed: int, workdir: Path) -> str:
    return (
        f"data.path = {workdir / 'data'}\n"
        f"train.m = {M}\n"
        f"train.batch = {BATCH}\n"
        f"train.lr = {LR}\n"
        f"train.max_epochs = {EPOCHS}\n"
        f"train.patience = {EPOCHS + 1}\n"
        f"train.seed = {seed}\n"
        f"out.dir = {workdir / 'out'}\n"
    )


# -- inputs (made in a child process; excluded from every metric) ----------
def _write_patient(data: Path, index: int, hr: float, duration: float, fmt: str, seed: int) -> None:
    cfg = synthetic.SyntheticConfig(duration_s=duration, heart_rate_bpm=hr, seed=1000 * seed + 11 * (index + 1))
    rec = synthetic.generate(cfg)
    stem = f"p{index}"
    if fmt == "csv":
        (data / f"{stem}.csv").write_text(rec.to_csv())
        return
    adc = []
    for signal, gain in zip((rec.ecg, rec.ppg, rec.abp), WFDB_GAINS):
        q = np.round(signal * gain).astype(np.int64)
        if q.min() < recordio.ADC_MIN_212 or q.max() > recordio.ADC_MAX_212:
            raise ValueError(f"{stem}: signal exceeds the 12-bit range at gain {gain}")
        adc.append(q)
    header, payload = recordio.write_wfdb_record(
        stem, cfg.fs, WFDB_LABELS, adc, fmt=212, gains=WFDB_GAINS, units=WFDB_UNITS
    )
    (data / f"{stem}.hea").write_bytes(header)
    (data / f"{stem}.dat").write_bytes(payload)


def make_inputs(name: str, seed: int, workdir: Path, workers: int) -> None:
    data = workdir / "data"
    data.mkdir(parents=True, exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        jobs = [pool.submit(_write_patient, data, i, hr, duration, fmt, seed)
                for i, (hr, duration, fmt) in enumerate(COHORTS[name])]
        for job in jobs:
            job.result()


def signal_seconds(name: str) -> float:
    return sum(duration for _, duration, _ in COHORTS[name])


# -- set-up ---------------------------------------------------------------
def setup_once(run: Run):
    """Build the Q table the stages reuse, then warm up the workload's op."""
    cfg = run.config
    table = tqwt.build_q_lookup(cfg.fs, cfg.tqwt_levels, cfg.q_min, cfg.q_max, cfg.q_step, cfg.tqwt_r)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "qtable.csv")
    rng = np.random.default_rng(run.seed)
    if run.name == "train_m10":
        x = rng.standard_normal((BATCH, M, segmentation.FEATURE_DIM))
        y = rng.standard_normal((BATCH, M, model.OUTPUT_DIM))
        params = model.init_params(run.seed)
        _, cache = model.forward_batch(params, x)
        model.backward_batch(params, cache, y)
    else:
        t = np.arange(cfg.window_samples()) / cfg.fs
        preprocess.preprocess_signal(np.sin(2 * np.pi * 1.2 * t) + 0.1 * rng.standard_normal(t.size), cfg.fs, table)
    return table


def setup(run: Run, samples: list[float]):
    """Set up once, append the time taken to `samples`; return the Q table.

    The first set-up runs before any timing; `measure` repeats it after every
    pass, so the reported median samples the same stretch of machine load as
    the passes and ops.
    """
    t0 = time.perf_counter()
    table = setup_once(run)
    samples.append(time.perf_counter() - t0)
    return table


# -- closed loops ---------------------------------------------------------
def _run_pass(run: Run, cfg, phase: Phase, tracer) -> dict:
    results = {}
    root = tracer.open("bench.pass") if tracer else None
    t_pass = time.perf_counter()
    try:
        for stage in STAGES[run.name]:
            fn = getattr(pipeline, f"stage_{stage}")
            run.attempted += 1
            t0 = time.perf_counter()
            results[stage] = fn(cfg)
            phase.stage_s.setdefault(stage, []).append(time.perf_counter() - t0)
    finally:
        phase.pass_s.append(time.perf_counter() - t_pass)
        if tracer:
            tracer.close(root)
    return results


def _csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(path.read_text().splitlines()))


def _check_pass(run: Run, cfg, results: dict) -> None:
    out = Path(cfg.out_dir)
    split = results["segment"]
    run.info["n_train"], run.info["n_test"] = len(split.train), len(split.test)
    run.info.setdefault("sequence_counts", []).append(len(split.train) + len(split.validation) + len(split.test))
    if run.name != "train_m10":
        return
    rows = _csv_rows(out / "history.csv")
    losses = [float(r["train_loss"]) for r in rows] + [float(r["val_loss"]) for r in rows]
    run.check("train: history has the fixed epoch count", len(rows) == EPOCHS, f"{len(rows)} epochs")
    run.check("train: losses finite", bool(np.all(np.isfinite(losses))))
    run.info.setdefault("val_mse_final", []).append(float(rows[-1]["val_loss"]))
    preds = _csv_rows(out / "predictions.csv")
    run.check("eval: prediction count equals test split", len(preds) == len(split.test),
              f"{len(preds)} vs {len(split.test)}")
    report = _csv_rows(out / "report.csv")
    ok = len(report) == 2 and all(np.isfinite(float(r["mae"])) for r in report)
    run.check("eval: report.csv parses", ok)


def _op_factory(run: Run, cfg, table):
    """Return (op, ok): the unit operation and a check of one result, which
    runs outside the timed call."""
    out = Path(cfg.out_dir)
    if run.name == "train_m10":
        split = segmentation.load_dataset(out / "dataset.bpseq")
        x = np.stack([s.input_array() for s in split.train])
        y = np.stack([s.target_array() for s in split.train])
        rng = np.random.default_rng(run.seed)
        params = model.init_params(run.seed)
        adam = model.AdamState.for_params(params)
        batches: list[np.ndarray] = []

        def step():
            nonlocal params, adam
            if not batches:  # a new epoch: reshuffle; full batches only
                order = rng.permutation(x.shape[0])
                batches.extend(order[lo : lo + BATCH] for lo in range(0, order.size - BATCH + 1, BATCH))
            idx = batches.pop()
            _, cache = model.forward_batch(params, x[idx])
            grads, loss = model.backward_batch(params, cache, y[idx])
            grads = model.clip_gradient_norm(grads, cfg.grad_cap)
            params, adam = model.adam_step(params, grads, adam, cfg.learning_rate)
            return loss

        return step, np.isfinite

    w = cfg.window_samples()
    windows = []
    for rec_dir in sorted((out / "raw").iterdir()):
        for ch in ("ecg", "ppg"):
            sig = np.load(rec_dir / f"{ch}.npy")
            windows += [sig[lo : lo + w] for lo in range(0, sig.size - w + 1, w)]
    order = itertools.cycle(np.random.default_rng(run.seed).permutation(len(windows)).tolist())

    def window_op():
        return preprocess.preprocess_signal(windows[next(order)], cfg.fs, table)

    return window_op, lambda o: o.shape == (w,) and bool(np.all(np.isfinite(o)))


def measure(run: Run, table, seconds: float, tracer=None) -> Phase:
    """One measured phase of about `seconds`: passes alternate with op slices.

    Alternating lets passes and ops sample the same stretch of machine load;
    PASS_SHARE of the time goes to passes.
    """
    cfg = run.config
    phase = Phase()
    share = PASS_SHARE[run.name]
    end = time.perf_counter() + seconds
    op = None

    def one_op():
        root = tracer.open("bench.op") if tracer else None
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op()
        finally:
            phase.op_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(root)
        if not ok(result):
            run.failed += 1

    while len(phase.pass_s) < MIN_PASSES or time.perf_counter() < end:
        # No reference to a pass's results outlives its check, so the peak RSS
        # holds one pass's data, not two.
        _check_pass(run, cfg, _run_pass(run, cfg, phase, tracer))
        setup(run, phase.setup_s)
        if op is None:
            op, ok = _op_factory(run, cfg, table)
        slice_end = time.perf_counter() + phase.pass_s[-1] * (1.0 - share) / share
        while time.perf_counter() < slice_end:
            one_op()
    while len(phase.op_s) < MIN_OPS:
        one_op()
    return phase


def final_checks(run: Run) -> None:
    """Checks on the artifacts the last pass left behind."""
    out = Path(run.config.out_dir)
    counts = run.info.get("sequence_counts", [])
    run.check("segment: same sequence count every pass", len(set(counts)) == 1, str(sorted(set(counts))))
    if "traced_sequences_kept" in run.info:
        kept = run.info["traced_sequences_kept"]
        run.check("segment: count equals the traced run's build_sequences total",
                  bool(counts) and all(c == kept for c in counts), f"{counts[0]} vs {kept}")
    split = segmentation.load_dataset(out / "dataset.bpseq")
    if run.name == "frontend_bulk":
        parts = (split.train, split.validation, split.test)
        dims = {s.input_array().shape[1] for part in parts for s in part}
        run.check("dataset: feature dimension 513", dims == {segmentation.FEATURE_DIM}, str(dims))
        finite = all(
            np.all(np.isfinite(s.input_array())) and np.all(np.isfinite(s.target_array()))
            for part in parts for s in part
        )
        run.check("dataset: all values finite", finite)
        return
    vals = run.info.get("val_mse_final", [])
    run.check("train: val MSE identical across passes", len(set(vals)) == 1, str(sorted(set(vals))))
    trained = model.load_model(out / "model.bpnet")
    x_test = np.stack([s.input_array() for s in split.test])
    batch = trained.predict_batch(x_test)
    single = np.array([[p.sbp, p.dbp] for p in map(trained.predict, x_test)])
    diff = float(np.max(np.abs(batch - single)))
    run.check("predict_batch agrees with single predict", diff <= PREDICT_AGREEMENT, f"max |diff| {diff:.3g}")


def guarded(run: Run, fn, *args):
    """Run a loop; an exception counts one failed operation and fails the run."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - report, count and fail the run
        traceback.print_exc()
        run.failed += 1
        run.checks.append((f"{getattr(fn, '__name__', fn)} raised", False, repr(exc)))
        return None

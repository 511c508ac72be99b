"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or on failure).
Criterion 7 needs a real patient record with simultaneous ECG/PPG/ABP and is
skipped unless BPNET_PATIENT_RECORD points at one.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bpnet.config import parse_config
from bpnet.evaluate import (
    ErrorSeries,
    aami_check,
    bhs_grade,
    bhs_grade_from_percentages,
    bland_altman,
    mae_rmse,
    pearson_r,
)
from bpnet.model import (
    AdamState,
    adam_step,
    backward_batch,
    clip_gradient_norm,
    forward_batch,
    init_params,
)
from bpnet.pipeline import (
    stage_eval,
    stage_ingest,
    stage_preprocess,
    stage_segment,
    stage_train,
)
from bpnet.synthetic import SyntheticConfig, generate
from bpnet.tqwt import TqwtParams, decompose, reconstruct, subband_frequencies


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -------------------------------------------------------------------------
# 1. Perfect reconstruction and throughput
# -------------------------------------------------------------------------


def test_criterion_1_perfect_reconstruction_and_speed():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        length = int(rng.integers(512, 8193))
        q = float(rng.choice([1.0, 1.08, 1.4]))
        levels = int(rng.choice([4, 10]))
        params = TqwtParams(q=q, r=3.0, levels=levels)
        x = rng.standard_normal(length)
        err = float(np.max(np.abs(reconstruct(decompose(x, params), params) - x)))
        worst = max(worst, err)

    x = rng.standard_normal(5000)
    params = TqwtParams(q=1.08, r=3.0, levels=10)
    decompose(x, params)  # warm caches
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        decompose(x, params)
        times.append(time.perf_counter() - t0)
    median_ms = sorted(times)[len(times) // 2] * 1e3

    _report(
        1, "200 random reconstructions <= 1e-8; 5000-sample J=10 decompose < 100 ms",
        worst <= 1e-8 and median_ms < 100.0,
        f"max err {worst:.2e}, median {median_ms:.1f} ms",
    )


# -------------------------------------------------------------------------
# 2. Frequency-table fidelity
# -------------------------------------------------------------------------


def test_criterion_2_frequency_table_fidelity():
    references = {1.0: (0.8129, 0.4309), 1.08: (1.0020, 0.5735), 1.4: (1.9491, 1.3397)}
    center_ok = True
    cutoff_rows = []
    for q, (center_ref, lower_ref) in references.items():
        center, lower = subband_frequencies(TqwtParams(q=q, r=3.0, levels=10), 125.0, 10)
        center_ok &= abs(center - center_ref) / center_ref <= 0.01
        cutoff_rows.append((q, lower, lower_ref, abs(lower - lower_ref) / lower_ref))
    cutoff_ok = all(dev <= 0.10 for _, _, _, dev in cutoff_rows)
    detail = "; ".join(f"Q={q}: cutoff {lo:.4f} vs {ref} ({dev * 100:.1f}%)" for q, lo, ref, dev in cutoff_rows)
    _report(2, "level-10 centers within 1%, cutoffs within 10% of reference values",
            center_ok and cutoff_ok, detail)


# -------------------------------------------------------------------------
# 3. Gradient correctness
# -------------------------------------------------------------------------


def test_criterion_3_gradient_check():
    t0 = time.perf_counter()
    h = 1e-5
    rng = np.random.default_rng(3003)
    worst = 0.0
    checked = 0
    for hidden in (2, 4, 8):
        for m in (1, 2, 4):
            params = init_params(hidden * 10 + m, input_dim=6, dense_units=hidden,
                                 hidden=hidden, output_dim=2)
            seq = rng.standard_normal((m, 6))
            tgt = 3.0 * rng.standard_normal((m, 2))
            _, cache = forward_batch(params, seq[None])
            grads, _ = backward_batch(params, cache, tgt[None])
            gmax = max(np.max(np.abs(a)) for _, a in grads.arrays())

            def loss_of():
                out, _ = forward_batch(params, seq[None])
                return float(np.mean((out - tgt) ** 2))

            for (_, garr), (_, parr) in zip(grads.arrays(), params.arrays()):
                flat_g, flat_p = garr.ravel(), parr.ravel()
                take = min(3, flat_p.size)
                for i in rng.choice(flat_p.size, size=take, replace=False):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    lp = loss_of()
                    flat_p[i] = orig - h
                    lm = loss_of()
                    flat_p[i] = orig
                    fd = (lp - lm) / (2 * h)
                    worst = max(worst, abs(flat_g[i] - fd) / max(abs(fd), abs(flat_g[i]), 1e-4 * gmax))
                    checked += 1
    elapsed = time.perf_counter() - t0
    _report(3, "BPTT matches central differences to 1e-5 on >= 100 coordinates in < 10 s",
            checked >= 100 and worst <= 1e-5 and elapsed < 10.0,
            f"{checked} coords, worst {worst:.2e}, {elapsed:.1f} s")


# -------------------------------------------------------------------------
# 4. Capacity / overfit probe
# -------------------------------------------------------------------------


def _probe_data(count=32, m=10):
    rng = np.random.default_rng(4004)
    x = rng.standard_normal((count, m, 513))
    x[:, :, -1] = rng.uniform(0.7, 1.3, size=(count, m))
    y = np.stack(
        [rng.uniform(95, 145, size=(count, m)), rng.uniform(60, 90, size=(count, m))], axis=2
    )
    return x, y


def _probe_losses(steps: int):
    x, y = _probe_data()
    params = init_params(0)
    state = AdamState.for_params(params)
    losses = []
    for _ in range(steps):
        _, cache = forward_batch(params, x)
        grads, loss = backward_batch(params, cache, y)
        grads = clip_gradient_norm(grads, 3.0)
        params, state = adam_step(params, grads, state, 0.001)
        losses.append(loss)
    return losses


@pytest.mark.slow
def test_criterion_4_overfit_probe():
    losses = _probe_losses(2000)
    reached = min(losses) < 0.5
    # Determinism: an independent rerun reproduces the loss trajectory.
    prefix = _probe_losses(40)
    deterministic = prefix == losses[:40]
    _report(4, "32 synthetic sequences reach train MSE < 0.5 within 2000 steps, deterministic",
            reached and deterministic, f"final loss {losses[-1]:.4f}")


# -------------------------------------------------------------------------
# 5. Metric oracle equivalence
# -------------------------------------------------------------------------


def _oracle_stats(est, truth):
    n = len(est)
    errors = [e - t for e, t in zip(est, truth)]
    mae = sum(abs(e) for e in errors) / n
    rmse = math.sqrt(sum(e * e for e in errors) / n)
    me = sum(errors) / n
    sde = math.sqrt(sum((e - me) ** 2 for e in errors) / (n - 1))
    pcts = tuple(
        sum(1 for e in errors if abs(e) < thr) / n * 100 for thr in (5.0, 10.0, 15.0)
    )
    mz = sum(est) / n
    my = sum(truth) / n
    num = sum((z - mz) * (y - my) for z, y in zip(est, truth))
    dz = math.sqrt(sum((z - mz) ** 2 for z in est))
    dy = math.sqrt(sum((y - my) ** 2 for y in truth))
    r = num / (dz * dy) if dz > 0 and dy > 0 else None
    return mae, rmse, me, sde, pcts, r, (me - 1.96 * sde, me + 1.96 * sde)


def test_criterion_5_metric_oracle_equivalence():
    rng = np.random.default_rng(5005)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        truth = rng.uniform(50, 200, n)
        est = truth + rng.normal(0, rng.uniform(0.1, 10.0), n)
        series = ErrorSeries(est, truth)
        o = _oracle_stats(est.tolist(), truth.tolist())
        mae, rmse = mae_rmse(series)
        me, sde, _ = aami_check(series)
        p5, p10, p15, _ = bhs_grade(series)
        ba = bland_altman(series)
        values = [
            (mae, o[0]), (rmse, o[1]), (me, o[2]), (sde, o[3]),
            (p5, o[4][0]), (p10, o[4][1]), (p15, o[4][2]),
            (ba.loa_low, o[6][0]), (ba.loa_high, o[6][1]),
        ]
        if o[5] is not None:
            values.append((pearson_r(series), o[5]))
        worst = max(worst, max(abs(a - b) for a, b in values))
    _report(5, "metrics match brute-force recomputation to 1e-12 on 1000 series",
            worst <= 1e-12, f"worst abs diff {worst:.2e}")


# -------------------------------------------------------------------------
# 6. Published standards rows
# -------------------------------------------------------------------------


def test_criterion_6_reference_rows():
    grade = bhs_grade_from_percentages(98.98, 99.92, 99.98)

    me_ref, sde_ref = 0.0249, 1.5602
    d = sde_ref / math.sqrt(2.0)
    series = ErrorSeries([100 + me_ref + d, 100 + me_ref - d], [100.0, 100.0])
    me, sde, aami_ok = aami_check(series)

    ba = bland_altman(ErrorSeries([me_ref + d, me_ref - d], [0.0, 0.0]))
    width = ba.loa_high - ba.loa_low
    width_ok = abs(width - 2 * 1.96 * sde_ref) <= 1e-9 and abs(width - (3.033 + 3.083)) <= 2e-3

    _report(6, "reference rows reproduce: BHS grade A, device-standard pass, agreement width",
            grade == "A" and aami_ok and width_ok,
            f"grade {grade}, ME {me:.4f}, SDE {sde:.4f}, width {width:.4f}")


# -------------------------------------------------------------------------
# 7. Real-record desk-scale run (conditional)
# -------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.skipif(
    "BPNET_PATIENT_RECORD" not in os.environ,
    reason="no real patient record supplied (set BPNET_PATIENT_RECORD to a .csv or .hea path)",
)
def test_criterion_7_real_record_run(tmp_path):
    record_path = Path(os.environ["BPNET_PATIENT_RECORD"])
    cfg = parse_config(
        f"data.path = {record_path}\n"
        f"train.m = 10\n"
        f"train.batch = 32\n"
        f"train.max_epochs = 400\n"
        f"train.patience = 40\n"
        f"out.dir = {tmp_path / 'out'}\n"
    )
    stage_ingest(cfg)
    stage_preprocess(cfg)
    stage_segment(cfg)
    stage_train(cfg)
    stage_eval(cfg)
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
    sbp_mae = float(rows[1].split(",")[2])
    dbp_mae = float(rows[2].split(",")[2])
    _report(7, "single real record: test MAE <= 6 (SBP) and <= 4 (DBP) mmHg",
            sbp_mae <= 6.0 and dbp_mae <= 4.0, f"SBP {sbp_mae:.3f}, DBP {dbp_mae:.3f}")


# -------------------------------------------------------------------------
# 8. Synthetic end-to-end run
# -------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_synthetic_end_to_end(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for i, (hr, seed) in enumerate([(75.0, 11), (88.0, 22)]):
        rec = generate(SyntheticConfig(duration_s=240.0, heart_rate_bpm=hr, seed=seed))
        (data_dir / f"p{i}.csv").write_text(rec.to_csv())
    cfg = parse_config(
        f"data.path = {data_dir}\n"
        f"train.m = 10\n"
        f"train.batch = 32\n"
        f"train.lr = 0.003\n"
        f"train.max_epochs = 300\n"
        f"train.patience = 40\n"
        f"train.seed = 0\n"
        f"out.dir = {tmp_path / 'out'}\n"
    )
    stage_ingest(cfg)
    stage_preprocess(cfg)
    stage_segment(cfg)
    stage_train(cfg)
    stage_eval(cfg)
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
    sbp_mae = float(rows[1].split(",")[2])
    dbp_mae = float(rows[2].split(",")[2])
    _report(8, "synthetic pipeline learns the embedded timing map: test MAE <= 2 mmHg",
            sbp_mae <= 2.0 and dbp_mae <= 2.0, f"SBP {sbp_mae:.3f}, DBP {dbp_mae:.3f}")


# -------------------------------------------------------------------------
# 9. Agreement-limits Monte-Carlo
# -------------------------------------------------------------------------


def test_criterion_9_bland_altman_monte_carlo():
    rng = np.random.default_rng(9009)
    n = 100_000
    truth = rng.uniform(80, 160, n)
    est = truth + rng.normal(0.5, 1.0, n)
    ba = bland_altman(ErrorSeries(est, truth))
    width = ba.loa_high - ba.loa_low
    mean_ok = abs(ba.mean_diff - 0.5) <= 0.05
    width_ok = abs(width - 3.92) / 3.92 <= 0.05
    _report(9, "Normal(0.5, 1) differences: mean 0.5 +/- 0.05, width 3.92 +/- 5%",
            mean_ok and width_ok, f"mean {ba.mean_diff:.4f}, width {width:.4f}")

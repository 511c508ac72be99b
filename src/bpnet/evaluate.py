"""Clinical-grade evaluation: error metrics, device standards, agreement plots.

All statistics operate on paired (estimated, ground-truth) pressure series in
mmHg.  The device standards implemented are the mean-error / error-SD
criterion (pass below 5 and 8 mmHg) and the cumulative-percentage letter
grading with inclusive minima at the 5/10/15 mmHg thresholds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from bpnet.atomic import atomic_open

AAMI_ME_LIMIT = 5.0
AAMI_SDE_LIMIT = 8.0

# grade -> minimum cumulative percentages under 5 / 10 / 15 mmHg
BHS_THRESHOLDS = {
    "A": (60.0, 85.0, 95.0),
    "B": (50.0, 75.0, 90.0),
    "C": (40.0, 65.0, 85.0),
}


class EvaluateError(ValueError):
    pass


@dataclass
class ErrorSeries:
    estimated: np.ndarray
    truth: np.ndarray

    def __post_init__(self) -> None:
        self.estimated = np.asarray(self.estimated, dtype=float)
        self.truth = np.asarray(self.truth, dtype=float)
        if self.estimated.size != self.truth.size:
            raise EvaluateError("estimated and truth series must have equal length")
        if self.estimated.size == 0:
            raise EvaluateError("empty series")

    @property
    def n(self) -> int:
        return int(self.estimated.size)

    @property
    def errors(self) -> np.ndarray:
        return self.estimated - self.truth


def mae_rmse(series: ErrorSeries) -> tuple[float, float]:
    """Mean absolute error and root-mean-square error."""
    err = series.errors
    return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err * err)))


def aami_check(series: ErrorSeries) -> tuple[float, float, bool]:
    """(mean error, error SD, pass); pass iff |ME| < 5 and SDE < 8 mmHg."""
    if series.n < 2:
        raise EvaluateError("need at least 2 points for a standard deviation")
    err = series.errors
    me = float(np.mean(err))
    sde = float(np.std(err, ddof=1))
    return me, sde, (abs(me) < AAMI_ME_LIMIT and sde < AAMI_SDE_LIMIT)


def bhs_percentages(series: ErrorSeries) -> tuple[float, float, float]:
    abs_err = np.abs(series.errors)
    n = series.n
    return (
        float(np.sum(abs_err < 5.0) / n * 100.0),
        float(np.sum(abs_err < 10.0) / n * 100.0),
        float(np.sum(abs_err < 15.0) / n * 100.0),
    )


def bhs_grade_from_percentages(p5: float, p10: float, p15: float) -> str:
    """Letter grade; thresholds are inclusive minima, all three must hold."""
    for grade, (t5, t10, t15) in BHS_THRESHOLDS.items():
        if p5 >= t5 and p10 >= t10 and p15 >= t15:
            return grade
    return "fail"


def bhs_grade(series: ErrorSeries) -> tuple[float, float, float, str]:
    p5, p10, p15 = bhs_percentages(series)
    return p5, p10, p15, bhs_grade_from_percentages(p5, p10, p15)


@dataclass
class BlandAltman:
    mean_diff: float
    loa_low: float
    loa_high: float
    means: np.ndarray       # per-point (estimate + truth) / 2
    differences: np.ndarray


def bland_altman(series: ErrorSeries) -> BlandAltman:
    """Agreement limits mean +/- 1.96 * sample SD of the differences."""
    if series.n < 2:
        raise EvaluateError("need at least 2 points for agreement limits")
    diff = series.errors
    mu = float(np.mean(diff))
    sd = float(np.std(diff, ddof=1))
    return BlandAltman(
        mu, mu - 1.96 * sd, mu + 1.96 * sd,
        (series.estimated + series.truth) / 2.0, diff.copy(),
    )


def pearson_r(series: ErrorSeries) -> float:
    """Product-moment correlation between estimate and truth."""
    if series.n < 2:
        raise EvaluateError("need at least 2 points for a correlation")
    z = series.estimated - np.mean(series.estimated)
    y = series.truth - np.mean(series.truth)
    vz = float(np.sum(z * z))
    vy = float(np.sum(y * y))
    if vz == 0.0 or vy == 0.0:
        raise EvaluateError("correlation undefined for zero-variance series")
    return float(np.sum(z * y) / math.sqrt(vz * vy))


@dataclass
class BoxStats:
    q1: float
    median: float
    q3: float
    outliers: np.ndarray


def box_stats(values: np.ndarray) -> BoxStats:
    """Quartiles by linear interpolation; outliers beyond 1.5 IQR listed."""
    x = np.asarray(values, dtype=float)
    if x.size < 4:
        raise EvaluateError(f"need at least 4 values, got {x.size}")
    q1, med, q3 = (float(v) for v in np.percentile(x, [25, 50, 75]))
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    return BoxStats(q1, med, q3, np.sort(x[(x < lo_fence) | (x > hi_fence)]))


@dataclass
class BpReport:
    label: str
    n: int
    mae: float
    rmse: float
    me: float
    sde: float
    aami_pass: bool
    bhs_p5: float
    bhs_p10: float
    bhs_p15: float
    bhs_grade: str
    loa_low: float
    loa_high: float
    pearson: float | None  # None when either series is constant
    box_truth: BoxStats
    box_estimate: BoxStats


@dataclass
class EvalReport:
    sbp: BpReport
    dbp: BpReport

    def to_text(self) -> str:
        lines = []
        for rep in (self.sbp, self.dbp):
            lines += [
                f"== {rep.label} (n={rep.n}) ==",
                f"  MAE  {rep.mae:8.4f} mmHg    RMSE {rep.rmse:8.4f} mmHg",
                f"  ME   {rep.me:8.4f} mmHg    SDE  {rep.sde:8.4f} mmHg    "
                f"AAMI {'pass' if rep.aami_pass else 'FAIL'}",
                f"  BHS  <5: {rep.bhs_p5:6.2f}%  <10: {rep.bhs_p10:6.2f}%  "
                f"<15: {rep.bhs_p15:6.2f}%   grade {rep.bhs_grade}",
                f"  LOA  [{rep.loa_low:.4f}, {rep.loa_high:.4f}] mmHg    "
                f"r {'n/a' if rep.pearson is None else f'{rep.pearson:.4f}'}",
                f"  box truth    q1 {rep.box_truth.q1:.2f}  med {rep.box_truth.median:.2f}  "
                f"q3 {rep.box_truth.q3:.2f}  outliers {rep.box_truth.outliers.size}",
                f"  box estimate q1 {rep.box_estimate.q1:.2f}  med {rep.box_estimate.median:.2f}  "
                f"q3 {rep.box_estimate.q3:.2f}  outliers {rep.box_estimate.outliers.size}",
            ]
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        fields = [
            "label", "n", "mae", "rmse", "me", "sde", "aami_pass",
            "bhs_p5", "bhs_p10", "bhs_p15", "bhs_grade",
            "loa_low", "loa_high", "pearson",
        ]
        with atomic_open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for rep in (self.sbp, self.dbp):
                writer.writerow(
                    [
                        rep.label, rep.n,
                        f"{rep.mae:.6f}", f"{rep.rmse:.6f}", f"{rep.me:.6f}", f"{rep.sde:.6f}",
                        int(rep.aami_pass),
                        f"{rep.bhs_p5:.4f}", f"{rep.bhs_p10:.4f}", f"{rep.bhs_p15:.4f}",
                        rep.bhs_grade,
                        f"{rep.loa_low:.6f}", f"{rep.loa_high:.6f}",
                        "" if rep.pearson is None else f"{rep.pearson:.6f}",
                    ]
                )


def _bp_report(label: str, estimated: np.ndarray, truth: np.ndarray) -> BpReport:
    """One pressure's report; EvaluateError when an error statistic overflows.

    Pearson r is left out (None) unless both series vary.
    """
    series = ErrorSeries(estimated, truth)
    with np.errstate(over="ignore", invalid="ignore"):
        mae, rmse = mae_rmse(series)
        me, sde, ok = aami_check(series)
        ba = bland_altman(series)
    limits = {"MAE": mae, "RMSE": rmse, "ME": me, "SDE": sde, "LOA low": ba.loa_low, "LOA high": ba.loa_high}
    overflowed = [name for name, value in limits.items() if not math.isfinite(value)]
    if overflowed:
        raise EvaluateError(f"{label} {', '.join(overflowed)} not finite: the estimates are out of range")
    p5, p10, p15, grade = bhs_grade(series)
    varies = np.ptp(series.estimated) > 0 and np.ptp(series.truth) > 0
    return BpReport(
        label, series.n, mae, rmse, me, sde, ok, p5, p10, p15, grade,
        ba.loa_low, ba.loa_high, pearson_r(series) if varies else None,
        box_stats(truth), box_stats(estimated),
    )


def assemble_report(
    sbp_est: np.ndarray, sbp_true: np.ndarray, dbp_est: np.ndarray, dbp_true: np.ndarray
) -> EvalReport:
    return EvalReport(
        _bp_report("SBP", sbp_est, sbp_true),
        _bp_report("DBP", dbp_est, dbp_true),
    )


def _svg_polyline(xs: np.ndarray, ys: np.ndarray, color: str) -> str:
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>'


def _chart(
    panel_y: float, title: str, traces: list[tuple[str, np.ndarray, str]],
    width: float, height: float,
) -> str:
    all_vals = np.concatenate([t[1] for t in traces])
    lo, hi = float(np.min(all_vals)), float(np.max(all_vals))
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span
    margin = 45.0
    plot_w, plot_h = width - 2 * margin, height - 2 * margin

    def ymap(v):
        return panel_y + margin + (hi - v) / (hi - lo) * plot_h

    parts = [
        f'<text x="{width / 2:.0f}" y="{panel_y + 18:.0f}" text-anchor="middle" '
        f'font-size="13">{title}</text>'
    ]
    n = traces[0][1].size
    xs = margin + np.arange(n) / max(n - 1, 1) * plot_w
    for label, values, color in traces:
        parts.append(_svg_polyline(xs, ymap(values), color))
    legend_x = margin
    for i, (label, _, color) in enumerate(traces):
        parts.append(
            f'<text x="{legend_x + i * 110:.0f}" y="{panel_y + 32:.0f}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append(
        f'<rect x="{margin:.0f}" y="{panel_y + margin:.0f}" width="{plot_w:.0f}" '
        f'height="{plot_h:.0f}" fill="none" stroke="#999"/>'
    )
    parts.append(
        f'<text x="{margin - 5:.0f}" y="{ymap(hi) + 10:.0f}" text-anchor="end" font-size="10">{hi:.0f}</text>'
    )
    parts.append(
        f'<text x="{margin - 5:.0f}" y="{ymap(lo):.0f}" text-anchor="end" font-size="10">{lo:.0f}</text>'
    )
    return "\n".join(parts)


def tracking_export(preds: np.ndarray, truth: np.ndarray, path_base) -> tuple[str, str]:
    """Continuous-measurement export: CSV plus a two-panel line chart SVG.

    `preds` and `truth` are aligned (N, 2) arrays of (SBP, DBP) rows.  Writes
    `<path_base>.csv` and `<path_base>.svg`, returning both paths.
    """
    if preds.shape != truth.shape or truth.ndim != 2 or truth.shape[1] != 2:
        raise EvaluateError(f"preds {preds.shape} and truth {truth.shape} must be aligned (N, 2) arrays")
    if not truth.size:
        raise EvaluateError("empty series")

    csv_path = f"{path_base}.csv"
    svg_path = f"{path_base}.svg"
    width, panel_h = 860.0, 240.0
    panels = [
        _chart(
            i * panel_h, f"{name} pressure tracking (mmHg)",
            [(f"{label} truth", truth[:, i], "#1f77b4"), (f"{label} estimate", preds[:, i], "#d62728")],
            width, panel_h,
        )
        for i, (name, label) in enumerate((("Systolic", "SBP"), ("Diastolic", "DBP")))
    ]
    body = "\n".join(panels)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{2 * panel_h:.0f}" viewBox="0 0 {width:.0f} {2 * panel_h:.0f}">\n'
        f"{body}\n</svg>\n"
    )
    # Both files are renamed into place only after both are fully written.
    with atomic_open(csv_path, "w", newline="") as fh, atomic_open(svg_path, "w") as svg_fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "sbp_true", "sbp_est", "dbp_true", "dbp_est"])
        for i, ((st, dt), (se, de)) in enumerate(zip(truth.tolist(), preds.tolist())):
            writer.writerow([i, f"{st:.4f}", f"{se:.4f}", f"{dt:.4f}", f"{de:.4f}"])
        svg_fh.write(svg)
    return csv_path, svg_path

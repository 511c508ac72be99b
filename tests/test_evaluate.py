import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnet.evaluate import (
    ErrorSeries,
    EvaluateError,
    aami_check,
    assemble_report,
    bhs_grade,
    bhs_grade_from_percentages,
    bland_altman,
    box_stats,
    mae_rmse,
    pearson_r,
    tracking_export,
)

# ---------------------------------------------------------------------------
# Brute-force oracles: plain-loop recomputation, no numpy vector tricks.
# ---------------------------------------------------------------------------


def _oracle_stats(est, truth):
    n = len(est)
    errors = [e - t for e, t in zip(est, truth)]
    mae = sum(abs(e) for e in errors) / n
    rmse = math.sqrt(sum(e * e for e in errors) / n)
    me = sum(errors) / n
    sde = math.sqrt(sum((e - me) ** 2 for e in errors) / (n - 1)) if n > 1 else 0.0
    p5 = sum(1 for e in errors if abs(e) < 5) / n * 100
    p10 = sum(1 for e in errors if abs(e) < 10) / n * 100
    p15 = sum(1 for e in errors if abs(e) < 15) / n * 100
    mz = sum(est) / n
    my = sum(truth) / n
    num = sum((z - mz) * (y - my) for z, y in zip(est, truth))
    dz = math.sqrt(sum((z - mz) ** 2 for z in est))
    dy = math.sqrt(sum((y - my) ** 2 for y in truth))
    r = num / (dz * dy) if dz > 0 and dy > 0 else None
    loa = (me - 1.96 * sde, me + 1.96 * sde)
    return mae, rmse, me, sde, (p5, p10, p15), r, loa


def _random_series(rng, n=None):
    n = n or int(rng.integers(2, 60))
    truth = rng.uniform(60, 180, n)
    est = truth + rng.normal(0, rng.uniform(0.5, 8.0), n)
    return est, truth


class TestMaeRmse:
    def test_identity_series(self):
        s = ErrorSeries([100.0, 110.0], [100.0, 110.0])
        assert mae_rmse(s) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        s = ErrorSeries([101.0, 102.0, 103.0], [100.0, 100.0, 100.0])
        mae, rmse = mae_rmse(s)
        assert mae == pytest.approx(2.0)
        assert rmse == pytest.approx(math.sqrt(14.0 / 3.0))

    def test_rmse_at_least_mae(self, rng):
        for _ in range(30):
            est, truth = _random_series(rng)
            mae, rmse = mae_rmse(ErrorSeries(est, truth))
            assert rmse >= mae >= 0.0

    def test_rmse_equals_mae_iff_constant_magnitude(self):
        s = ErrorSeries([103.0, 97.0], [100.0, 100.0])
        mae, rmse = mae_rmse(s)
        assert rmse == pytest.approx(mae)

    def test_empty_rejected(self):
        with pytest.raises(EvaluateError):
            ErrorSeries([], [])


class TestAami:
    def test_reference_row_passes(self):
        # Construct two points with exact sample moments ME=0.0249, SDE=1.5602.
        me, sde = 0.0249, 1.5602
        d = sde / math.sqrt(2.0)
        s = ErrorSeries([100 + me + d, 100 + me - d], [100.0, 100.0])
        got_me, got_sde, ok = aami_check(s)
        assert got_me == pytest.approx(me)
        assert got_sde == pytest.approx(sde)
        assert ok

    def test_zero_errors_pass(self):
        me, sde, ok = aami_check(ErrorSeries([1.0, 2.0], [1.0, 2.0]))
        assert (me, sde, ok) == (0.0, 0.0, True)

    def test_bias_six_fails(self):
        _, _, ok = aami_check(ErrorSeries([106.0, 106.0, 106.0], [100.0, 100.0, 100.0]))
        assert not ok


class TestBhs:
    def test_reference_percentages_grade_a(self):
        assert bhs_grade_from_percentages(98.98, 99.92, 99.98) == "A"

    def test_zero_errors_grade_a(self):
        p5, p10, p15, grade = bhs_grade(ErrorSeries([1.0] * 10, [1.0] * 10))
        assert (p5, p10, p15, grade) == (100.0, 100.0, 100.0, "A")

    def test_boundary_is_inclusive(self):
        assert bhs_grade_from_percentages(50.0, 75.0, 90.0) == "B"
        assert bhs_grade_from_percentages(60.0, 85.0, 95.0) == "A"
        assert bhs_grade_from_percentages(40.0, 65.0, 85.0) == "C"
        assert bhs_grade_from_percentages(39.9, 65.0, 85.0) == "fail"

    def test_constructed_series_hits_reference_row(self):
        # N=5000 errors: 4949 below 5, 47 in [5,10), 3 in [10,15), 1 above.
        errors = [1.0] * 4949 + [7.0] * 47 + [12.0] * 3 + [20.0]
        s = ErrorSeries([100 + e for e in errors], [100.0] * len(errors))
        p5, p10, p15, grade = bhs_grade(s)
        assert p5 == pytest.approx(98.98)
        assert p10 == pytest.approx(99.92)
        assert p15 == pytest.approx(99.98)
        assert grade == "A"

    def test_percentages_nondecreasing_and_permutation_invariant(self, rng):
        est, truth = _random_series(rng, 50)
        s1 = bhs_grade(ErrorSeries(est, truth))
        perm = rng.permutation(50)
        s2 = bhs_grade(ErrorSeries(est[perm], truth[perm]))
        assert s1 == s2
        assert s1[0] <= s1[1] <= s1[2]


class TestBlandAltman:
    def test_constant_difference(self):
        ba = bland_altman(ErrorSeries([102.0, 112.0, 122.0], [100.0, 110.0, 120.0]))
        assert ba.mean_diff == pytest.approx(2.0)
        assert ba.loa_low == pytest.approx(2.0)
        assert ba.loa_high == pytest.approx(2.0)

    def test_monte_carlo_normal(self):
        rng = np.random.default_rng(99)
        n = 100_000
        truth = rng.uniform(80, 160, n)
        est = truth + rng.normal(0.5, 1.0, n)
        ba = bland_altman(ErrorSeries(est, truth))
        assert ba.mean_diff == pytest.approx(0.5, abs=0.05)
        width = ba.loa_high - ba.loa_low
        assert width == pytest.approx(2 * 1.96 * 1.0, rel=0.05)

    def test_reference_context_interval_width(self):
        # Sample moments mu=0.0249, sigma=1.5602 reproduce an interval of
        # width 2 * 1.96 * sigma = 6.116, matching [-3.083, 3.033] to the
        # rounding in the reported pair.
        me, sde = 0.0249, 1.5602
        d = sde / math.sqrt(2.0)
        ba = bland_altman(ErrorSeries([me + d, me - d], [0.0, 0.0]))
        assert ba.loa_high - ba.loa_low == pytest.approx(2 * 1.96 * sde, rel=1e-12)
        assert ba.loa_high - ba.loa_low == pytest.approx(3.033 + 3.083, abs=2e-3)

    def test_per_point_pairs_exported(self, rng):
        est, truth = _random_series(rng, 20)
        ba = bland_altman(ErrorSeries(est, truth))
        assert ba.means.size == 20
        assert np.allclose(ba.differences, est - truth)


class TestPearson:
    def test_perfect_correlation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_r(ErrorSeries(x, x)) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        y = np.array([-1.0, 0.0, 1.0])
        assert pearson_r(ErrorSeries(-y, y)) == pytest.approx(-1.0)

    def test_zero_variance_is_error_not_nan(self):
        with pytest.raises(EvaluateError, match="zero-variance"):
            pearson_r(ErrorSeries([1.0, 1.0], [2.0, 3.0]))

    @given(a=st.floats(0.01, 50.0), b=st.floats(-100.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, a, b):
        rng = np.random.default_rng(7)
        est, truth = _random_series(rng, 30)
        r1 = pearson_r(ErrorSeries(est, truth))
        r2 = pearson_r(ErrorSeries(a * est + b, truth))
        assert r2 == pytest.approx(r1, abs=1e-9)


class TestBoxStats:
    def test_median_of_four(self):
        bs = box_stats(np.array([1.0, 2.0, 3.0, 4.0]))
        assert bs.median == pytest.approx(2.5)

    def test_single_outlier(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        q1, q3 = np.percentile(x, [25, 75])
        outlier = q3 + 2 * (q3 - q1)
        bs = box_stats(np.append(x, outlier))
        assert bs.outliers.size == 1
        assert bs.outliers[0] == pytest.approx(outlier)

    def test_too_few_values(self):
        with pytest.raises(EvaluateError):
            box_stats(np.array([1.0, 2.0, 3.0]))


class TestOracleEquivalence:
    def test_random_series_match_brute_force(self, rng):
        for _ in range(60):
            est, truth = _random_series(rng)
            s = ErrorSeries(est, truth)
            o_mae, o_rmse, o_me, o_sde, o_pcts, o_r, o_loa = _oracle_stats(
                est.tolist(), truth.tolist()
            )
            mae, rmse = mae_rmse(s)
            assert mae == pytest.approx(o_mae, abs=1e-12)
            assert rmse == pytest.approx(o_rmse, abs=1e-12)
            me, sde, _ = aami_check(s)
            assert me == pytest.approx(o_me, abs=1e-12)
            assert sde == pytest.approx(o_sde, abs=1e-12)
            p5, p10, p15, _ = bhs_grade(s)
            assert (p5, p10, p15) == pytest.approx(o_pcts, abs=1e-12)
            if o_r is not None:
                assert pearson_r(s) == pytest.approx(o_r, abs=1e-12)
            ba = bland_altman(s)
            assert ba.loa_low == pytest.approx(o_loa[0], abs=1e-12)
            assert ba.loa_high == pytest.approx(o_loa[1], abs=1e-12)


class TestReportAndTracking:
    def _series(self, rng, n=120):
        sbp_true = rng.uniform(95, 165, n)
        dbp_true = rng.uniform(55, 95, n)
        sbp_est = sbp_true + rng.normal(0, 2.0, n)
        dbp_est = dbp_true + rng.normal(0, 1.0, n)
        return sbp_est, sbp_true, dbp_est, dbp_true

    def test_report_text_and_csv(self, rng, tmp_path):
        report = assemble_report(*self._series(rng))
        text = report.to_text()
        assert "SBP" in text and "DBP" in text and "grade" in text
        csv_path = tmp_path / "report.csv"
        report.to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("label,")

    def test_tracking_csv_line_count(self, rng, tmp_path):
        truth = np.column_stack([120 + np.arange(100) * 0.01, np.full(100, 80.0)])
        preds = np.column_stack([119 + np.arange(100) * 0.01, np.full(100, 79.5)])
        csv_path, svg_path = tracking_export(preds, truth, tmp_path / "track")
        lines = open(csv_path).read().splitlines()
        assert len(lines) == 101

    def test_tracking_svg_four_polylines(self, rng, tmp_path):
        truth = np.array([[120.0, 80.0], [125.0, 82.0], [118.0, 78.0]])
        preds = np.array([[121.0, 81.0], [124.0, 81.0], [119.0, 77.0]])
        _, svg_path = tracking_export(preds, truth, tmp_path / "track")
        svg = open(svg_path).read()
        assert svg.count("<polyline") == 4

    @pytest.mark.parametrize("fails_in", ["report.csv", "tracking.csv", "tracking.svg"])
    def test_failed_write_keeps_previous_files(self, rng, tmp_path, full_disk, fails_in):
        old, new = self._series(rng), self._series(rng)
        assemble_report(*old).to_csv(tmp_path / "report.csv")
        tracking_export(np.column_stack(old[::2]), np.column_stack(old[1::2]), tmp_path / "tracking")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # Each file takes this many characters before the disk is full.
        full_disk(len(before["tracking.csv"]) + 100 if fails_in == "tracking.svg" else 100)
        with pytest.raises(OSError, match="no space"):
            if fails_in == "report.csv":
                assemble_report(*new).to_csv(tmp_path / "report.csv")
            else:
                tracking_export(np.column_stack(new[::2]), np.column_stack(new[1::2]), tmp_path / "tracking")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_overflowing_estimates_rejected(self, rng):
        sbp_est, sbp_true, dbp_est, dbp_true = self._series(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluateError, match="SBP RMSE, SDE, LOA low, LOA high not finite"):
                assemble_report(sbp_est * 1e200, sbp_true, dbp_est, dbp_true)

    def test_tracking_rejects_misaligned_arrays(self, tmp_path):
        with pytest.raises(EvaluateError, match="aligned"):
            tracking_export(np.zeros((3, 2)), np.zeros((4, 2)), tmp_path / "track")

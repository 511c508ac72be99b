import csv
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnet.tqwt import (
    FrequencyTable,
    SubbandSet,
    TqwtError,
    TqwtParams,
    _layout,
    _next_pow2,
    _theta,
    build_q_lookup,
    decompose,
    reconstruct,
    subband_frequencies,
)

# The preprocessing grid's Qs plus the fallback Q (preprocess.FALLBACK_Q).
STACK_QS = [float(q) for q in np.linspace(1.0, 1.4, 41)] + [1.08]


def _assert_rows_bitwise(stacked: np.ndarray, rows: list[np.ndarray]) -> None:
    assert stacked.shape == (len(rows), *rows[0].shape)
    for got, want in zip(stacked, rows):
        assert got.tobytes() == want.tobytes()


def test_impulse_perfect_reconstruction():
    x = np.zeros(256)
    x[100] = 1.0
    params = TqwtParams(q=1.0, r=3.0, levels=3)
    sb = decompose(x, params)
    assert sb.levels == 3
    assert len(sb.highpass) + 1 == 4
    y = reconstruct(sb, params)
    assert np.max(np.abs(y - x)) <= 1e-10


def test_dc_signal_energy_in_lowpass_only():
    x = np.full(1024, 3.7)
    params = TqwtParams(q=1.2, r=3.0, levels=6)
    sb = decompose(x, params)
    for hi in sb.highpass:
        assert np.max(np.abs(hi)) <= 1e-10
    y = reconstruct(sb, params)
    assert np.max(np.abs(y - x)) <= 1e-10


def test_random_5000_sample_reconstruction(rng):
    # The second geometry's one level has no transition band (t = 0).
    for params, n in ((TqwtParams(q=1.08, r=3.0, levels=10), 5000), (TqwtParams(q=2.0, r=1.5, levels=1), 16)):
        x = rng.standard_normal(n)
        y = reconstruct(decompose(x, params), params)
        assert np.max(np.abs(y - x)) <= 1e-8


@pytest.mark.parametrize("q", [1.0, 1.08, 1.2, 1.4])
@pytest.mark.parametrize("levels", [4, 10])
@pytest.mark.parametrize("length", [512, 2000, 8192])
def test_perfect_reconstruction_grid(q, levels, length, rng):
    x = rng.standard_normal(length)
    params = TqwtParams(q=q, r=3.0, levels=levels)
    y = reconstruct(decompose(x, params), params)
    assert np.max(np.abs(y - x)) <= 1e-8


def test_linearity(rng):
    params = TqwtParams(q=1.1, r=3.0, levels=5)
    x = rng.standard_normal(1000)
    y = rng.standard_normal(1000)
    a, b = 2.5, -0.7
    sb_mix = decompose(a * x + b * y, params)
    sb_x = decompose(x, params)
    sb_y = decompose(y, params)
    for mixed, hx, hy in zip(sb_mix.highpass, sb_x.highpass, sb_y.highpass):
        assert np.max(np.abs(mixed - (a * hx + b * hy))) <= 1e-10
    assert np.max(np.abs(sb_mix.lowpass - (a * sb_x.lowpass + b * sb_y.lowpass))) <= 1e-10


def test_parameter_sanity_over_grid():
    for q in np.arange(1.0, 1.4001, 0.01):
        params = TqwtParams(q=float(q), r=3.0)
        assert params.beta == pytest.approx(2.0 / (q + 1.0))
        assert params.alpha == pytest.approx(1.0 - params.beta / 3.0)
        assert 0.0 < params.beta <= 1.0
        assert 0.0 < params.alpha < 1.0
        assert params.alpha + params.beta > 1.0


@pytest.mark.parametrize(
    "q, center_ref, lower_ref",
    [
        (1.0, 0.8129, 0.4309),
        (1.08, 1.0020, 0.5735),
        (1.4, 1.9491, 1.3397),
    ],
)
def test_level10_reference_frequencies(q, center_ref, lower_ref):
    params = TqwtParams(q=q, r=3.0, levels=10)
    center, lower = subband_frequencies(params, fs=125.0, level=10)
    assert abs(center - center_ref) / center_ref <= 0.01
    # Cutoff convention: numerically located -3 dB crossing of the cascaded
    # response; agreement within 10% of the reference values.
    assert abs(lower - lower_ref) / lower_ref <= 0.10


def test_cutoff_below_center_everywhere(q_table):
    assert np.all(q_table.lower3db_hz < q_table.centers_hz)


def test_center_monotone_in_q(q_table):
    # Oracle: evaluate the closed-form center over the grid directly.
    qs = q_table.qs
    beta = 2.0 / (qs + 1.0)
    alpha = 1.0 - beta / 3.0
    expected = alpha**10 * (2.0 - beta) / (4.0 * alpha) * 125.0
    assert np.allclose(q_table.centers_hz, expected, rtol=1e-12)
    assert np.all(np.diff(expected) > 0)
    assert np.all(np.diff(q_table.centers_hz) > 0)


def test_lookup_grid_shape_and_consistency(q_table):
    assert len(q_table) == 41
    assert q_table.qs[0] == pytest.approx(1.0)
    assert q_table.qs[-1] == pytest.approx(1.4)
    center, lower = subband_frequencies(TqwtParams(q=1.0, r=3.0, levels=10), 125.0, 10)
    assert q_table.centers_hz[0] == pytest.approx(center)
    assert q_table.lower3db_hz[0] == pytest.approx(lower)


def test_lookup_csv_roundtrip(q_table, tmp_path):
    path = tmp_path / "lookup.csv"
    q_table.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["q", "center_hz", "lower3db_hz"]
    qs, centers, lows = (np.array([float(row[c]) for row in rows]) for c in rows[0])
    assert np.allclose(qs, q_table.qs)
    assert np.allclose(centers, q_table.centers_hz, rtol=1e-9)
    assert np.allclose(lows, q_table.lower3db_hz, rtol=1e-9)


def test_failed_csv_write_keeps_previous_table(q_table, tmp_path, full_disk):
    path = tmp_path / "qtable.csv"
    q_table.to_csv(path)
    before = path.read_bytes()
    head = FrequencyTable(q_table.qs[:5], q_table.centers_hz[:5], q_table.lower3db_hz[:5], 125.0, 10)
    full_disk(60)  # the header and part of the first row
    with pytest.raises(OSError, match="no space"):
        head.to_csv(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["qtable.csv"]


def test_signal_too_short_rejected():
    params = TqwtParams(q=1.08, r=3.0, levels=10)
    with pytest.raises(TqwtError, match="too short"):
        decompose(np.ones(16), params)


def test_non_finite_signal_rejected():
    x = np.ones(4096)
    x[5] = np.nan
    with pytest.raises(TqwtError, match="non-finite"):
        decompose(x, TqwtParams(q=1.0))


def test_geometry_mismatch_rejected(rng):
    params = TqwtParams(q=1.1, r=3.0, levels=4)
    sb = decompose(rng.standard_normal(512), params)
    with pytest.raises(TqwtError):
        reconstruct(sb, TqwtParams(q=1.1, r=3.0, levels=5))
    bad = SubbandSet([h[:-2] for h in sb.highpass], sb.lowpass, sb.n_signal, sb.n_padded)
    with pytest.raises(TqwtError):
        reconstruct(bad, params)


# Reference: the mask-based cascade the sliced evaluator replaced.  Each stage
# is evaluated over the whole grid with boolean masks, in the same float64
# operations and order.
def _ref_theta(v):
    return 0.5 * (1.0 + np.cos(v)) * np.sqrt(2.0 - np.cos(v))


def _ref_h0_magnitude(w, alpha, beta):
    out = np.zeros_like(w)
    lo_edge = (1.0 - beta) * np.pi
    hi_edge = alpha * np.pi
    out[w <= lo_edge] = 1.0
    band = (w > lo_edge) & (w < hi_edge)
    out[band] = _ref_theta((w[band] + (beta - 1.0) * np.pi) / (alpha + beta - 1.0))
    return out


def _ref_h1_magnitude(w, alpha, beta):
    out = np.zeros_like(w)
    lo_edge = (1.0 - beta) * np.pi
    hi_edge = alpha * np.pi
    band = (w > lo_edge) & (w < hi_edge)
    out[band] = _ref_theta((hi_edge - w[band]) / (alpha + beta - 1.0))
    out[(w >= hi_edge) & (w <= np.pi)] = 1.0
    return out


def _ref_level_response(freq_hz, fs, params, level):
    w = 2.0 * np.pi * np.asarray(freq_hz, dtype=float) / fs
    mag = _ref_h1_magnitude(w / params.alpha ** (level - 1), params.alpha, params.beta)
    for m in range(level - 1):
        mag *= _ref_h0_magnitude(w / params.alpha**m, params.alpha, params.beta)
    return mag


def _ref_subband_frequencies(params, fs, level):
    center = params.alpha**level * (2.0 - params.beta) / (4.0 * params.alpha) * fs
    f_top = params.alpha ** (level - 1) * fs / 2.0 * 1.05
    grid = np.arange(0.0, min(f_top, fs / 2.0), fs / 2**18)
    mag = _ref_level_response(grid, fs, params, level)
    k = int(np.argmax(mag))
    target = mag[k] / math.sqrt(2.0)
    i = int(np.nonzero(mag[: k + 1] <= target)[0][-1])
    f_lo = grid[i] + (target - mag[i]) * (grid[i + 1] - grid[i]) / (mag[i + 1] - mag[i])
    return center, float(f_lo)


@pytest.mark.parametrize("fs", [125.0, 250.0, 360.0])
@pytest.mark.parametrize("level", [6, 8, 10])
@pytest.mark.parametrize("r", [3.0, 4.0])
@pytest.mark.parametrize("q_max, step", [(1.4, 0.01), (3.0, 0.1)])
def test_q_lookup_bit_equal_to_masked_reference(fs, level, r, q_max, step):
    table = build_q_lookup(fs, level, 1.0, q_max, step, r)
    qs = np.linspace(1.0, q_max, int(round((q_max - 1.0) / step)) + 1)
    want = np.array([_ref_subband_frequencies(TqwtParams(q=float(q), r=r, levels=level), fs, level) for q in qs])
    assert table.qs.tobytes() == qs.tobytes()
    assert table.centers_hz.tobytes() == want[:, 0].tobytes()
    assert table.lower3db_hz.tobytes() == want[:, 1].tobytes()


def test_one_cosine_theta_bit_equal_to_two_cosine_form():
    v = np.concatenate([np.linspace(0.0, np.pi, 100_001), np.random.default_rng(5).uniform(0.0, np.pi, 100_000)])
    assert _theta(v).tobytes() == _ref_theta(v).tobytes()
    for part in (v[:1], v[3:10], v[::7]):  # short, offset and strided inputs too
        assert _theta(part).tobytes() == _ref_theta(part).tobytes()


# From level 31 the subband lies below the first grid step; at 27-30 its
# cut-off lies inside it, where interpolating from 0 Hz estimates nothing
# (at 30 the estimate would sit above the centre).
@pytest.mark.parametrize("level", [27, 28, 29, 30, 31, 40])
def test_subband_below_grid_rejected_naming_level(level):
    with pytest.raises(TqwtError, match=f"level {level} .*cannot be bracketed"):
        subband_frequencies(TqwtParams(q=1.0, levels=level), 125.0, level)
    with pytest.raises(TqwtError, match=f"level {level} "):
        build_q_lookup(125.0, level)


def _q_table_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "build_q_table.py"
    spec = importlib.util.spec_from_file_location("build_q_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_q_table_script_exits_2_on_unbracketable_level(tmp_path, monkeypatch, capsys):
    out = tmp_path / "q.csv"
    monkeypatch.setattr(sys, "argv", ["build_q_table.py", "--level", "40", "--out", str(out)])
    assert _q_table_script().main() == 2
    err = capsys.readouterr().err
    assert "level 40" in err and "Traceback" not in err
    assert not out.exists()


def test_q_table_script_exits_2_on_cutoff_inside_first_grid_step(tmp_path, monkeypatch, capsys):
    out = tmp_path / "q.csv"
    monkeypatch.setattr(sys, "argv", ["build_q_table.py", "--level", "30", "--out", str(out)])
    assert _q_table_script().main() == 2
    assert "level 30" in capsys.readouterr().err
    assert not out.exists()


def test_q_table_script_defaults_are_the_pipeline_table(tmp_path, monkeypatch, q_table):
    out = tmp_path / "q.csv"
    monkeypatch.setattr(sys, "argv", ["build_q_table.py", "--out", str(out)])
    assert _q_table_script().main() == 0
    q_table.to_csv(tmp_path / "want.csv")
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_level_out_of_range():
    with pytest.raises(TqwtError, match="out of range"):
        subband_frequencies(TqwtParams(q=1.0, levels=10), 125.0, 11)


def _scanned_min_signal_length(params):
    """Reference: step n one at a time until decompose's checks pass at its padded length."""
    n = 1
    while True:
        n_padded = _next_pow2(max(n, 2))
        if 2 * round(params.alpha**params.levels * n_padded / 2) >= 8:
            try:
                _layout(n_padded, params)
                return n
            except TqwtError:
                pass
        n += 1


@pytest.mark.parametrize("q", [1.0, 1.08, 1.4, 2.0, 4.0])
@pytest.mark.parametrize("r", [3.0, 5.0])
def test_min_signal_length_matches_linear_scan(q, r):
    for levels in range(1, 16):
        params = TqwtParams(q=q, r=r, levels=levels)
        assert params.min_signal_length() == _scanned_min_signal_length(params), levels


@pytest.mark.parametrize("q", [1.0, 1.08, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("levels", [1, 2, 3, 6, 10])  # 14 levels at r 1.5 need over 8 million samples
def test_decompose_accepts_min_signal_length_and_not_one_less(q, r, levels):
    # Q 3, r 1.5, 10 levels: the final lowpass keeps 8 samples at 512, but one
    # level's rounded lengths there (n 14, n_lo 8, n_hi 6) leave no transition band.
    params = TqwtParams(q=q, r=r, levels=levels)
    n = params.min_signal_length()
    sb = decompose(np.ones(n), params)
    assert np.allclose(reconstruct(sb, params), 1.0, rtol=0.0, atol=1e-9)
    # One sample less pads one power of two lower.
    assert _next_pow2(n - 1) == _next_pow2(n) // 2
    with pytest.raises(TqwtError):
        decompose(np.ones(n - 1), params)


def test_min_signal_length_with_no_lowpass_band_rejected():
    with pytest.raises(TqwtError, match="no lowpass band"):
        TqwtParams(q=1.0, levels=100_000).min_signal_length()


@pytest.mark.parametrize("step", [1e-300, 1e-18])  # past numpy's size limit; past any address space
def test_unbuildable_q_grid_rejected(step):
    with pytest.raises(TqwtError, match="cannot build a Q grid"):
        build_q_lookup(125.0, 10, 1.0, 1.4, step)


def test_invalid_params_rejected():
    with pytest.raises(TqwtError):
        TqwtParams(q=0.5)
    with pytest.raises(TqwtError):
        TqwtParams(q=1.0, r=1.0)
    with pytest.raises(TqwtError):
        TqwtParams(q=1.0, levels=0)
    with pytest.raises(TqwtError):
        build_q_lookup(125.0, q_min=1.4, q_max=1.0)


@pytest.mark.parametrize("q", [1.0, 1.08, STACK_QS[8], 1.23, 1.4])  # STACK_QS[8]: the grid's 1.08
@pytest.mark.parametrize("k", [1, 4])
def test_stack_equals_row_by_row_bit_for_bit(q, k, rng):
    # Row 0 is all zero; the rest are random windows of the pipeline's length.
    x = rng.standard_normal((k, 2000)) * 3.0
    x[0] = 0.0
    params = TqwtParams(q=q, r=3.0, levels=10)
    stacked = decompose(x, params)
    single = [decompose(row, params) for row in x]
    for level in range(params.levels):
        _assert_rows_bitwise(stacked.highpass[level], [sb.highpass[level] for sb in single])
    _assert_rows_bitwise(stacked.lowpass, [sb.lowpass for sb in single])
    _assert_rows_bitwise(reconstruct(stacked, params), [reconstruct(sb, params) for sb in single])


@pytest.mark.parametrize("shape", [(2000,), (8, 2000)])
def test_subbands_own_contiguous_buffers(shape, rng):
    # Each band holds its own real values, not a view into a complex buffer.
    sb = decompose(rng.standard_normal(shape), TqwtParams(q=1.08, r=3.0, levels=10))
    for band in [*sb.highpass, sb.lowpass]:
        assert band.flags.c_contiguous and band.flags.owndata and band.dtype == np.float64


def test_stack_rejects_bad_rank_and_lowpass_length(rng):
    params = TqwtParams(q=1.1, r=3.0, levels=4)
    with pytest.raises(TqwtError, match="stack"):
        decompose(rng.standard_normal((2, 2, 512)), params)
    sb = decompose(rng.standard_normal((2, 512)), params)
    sb.lowpass = sb.lowpass[:, :-2]
    with pytest.raises(TqwtError, match="lowpass length"):
        reconstruct(sb, params)


@given(data=st.data(), k=st.integers(1, 5), q=st.sampled_from(STACK_QS))
@settings(max_examples=40, deadline=None)
def test_stacked_reconstruction_property(data, k, q):
    params = TqwtParams(q=q, r=3.0, levels=10)
    n = data.draw(st.integers(params.min_signal_length(), 3000), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    x = np.random.default_rng(seed).standard_normal((k, n))
    y = reconstruct(decompose(x, params), params)
    assert np.max(np.abs(y - x)) <= 1e-8
    _assert_rows_bitwise(y, [reconstruct(decompose(row, params), params) for row in x])


# Reference: the full-spectrum filter bank the one-sided one replaced.  Each
# level keeps all n bins of the unitary DFT and copies the negative half
# beside the positive one.
def _ref_afb(X, s):
    n, n_lo, n_hi, p, t, h = s.n_in, s.n_lo, s.n_hi, s.p, s.t, s.n_hi // 2
    lo = np.zeros((*X.shape[:-1], n_lo), dtype=complex)
    lo[..., 0] = X[..., 0]
    lo[..., 1 : p + 1] = X[..., 1 : p + 1]
    lo[..., n_lo - p :] = X[..., n - p :]
    lo[..., p + 1 : p + t + 1] = X[..., p + 1 : p + t + 1] * s.trans
    lo[..., n_lo - p - t : n_lo - p] = X[..., n - p - t : n - p] * s.rev
    hi = np.zeros((*X.shape[:-1], n_hi), dtype=complex)
    hi[..., 1 : t + 1] = X[..., p + 1 : p + t + 1] * s.rev
    hi[..., n_hi - t :] = X[..., n - p - t : n - p] * s.trans
    hi[..., t + 1 : h] = X[..., p + t + 1 : p + h]
    hi[..., h + 1 : n_hi - t] = X[..., n - p - h + 1 : n - p - t]
    hi[..., h] = X[..., n // 2]
    return lo, hi


def _ref_sfb(lo, hi, s):
    n, n_lo, n_hi, p, t, h = s.n_in, s.n_lo, s.n_hi, s.p, s.t, s.n_hi // 2
    X = np.zeros((*lo.shape[:-1], n), dtype=complex)
    X[..., 0] = lo[..., 0]
    X[..., 1 : p + 1] = lo[..., 1 : p + 1]
    X[..., n - p :] = lo[..., n_lo - p :]
    X[..., p + 1 : p + t + 1] = lo[..., p + 1 : p + t + 1] * s.trans + hi[..., 1 : t + 1] * s.rev
    X[..., n - p - t : n - p] = lo[..., n_lo - p - t : n_lo - p] * s.rev + hi[..., n_hi - t :] * s.trans
    X[..., p + t + 1 : p + h] = hi[..., t + 1 : h]
    X[..., n - p - h + 1 : n - p - t] = hi[..., h + 1 : n_hi - t]
    X[..., n // 2] = hi[..., h]
    return X


def _ref_udft(x):
    return np.fft.fft(x) / math.sqrt(x.shape[-1])


def _ref_iudft(X):
    return np.real(np.fft.ifft(X) * math.sqrt(X.shape[-1])).copy()


def _ref_decompose(x, params):
    n_padded = _next_pow2(x.shape[-1])
    padded = np.zeros((*x.shape[:-1], n_padded))
    padded[..., : x.shape[-1]] = x
    X, highpass = _ref_udft(padded), []
    for stage in _layout(n_padded, params):
        X, hi = _ref_afb(X, stage)
        highpass.append(_ref_iudft(hi))
    return SubbandSet(highpass, _ref_iudft(X), x.shape[-1], n_padded)


def _ref_reconstruct(sb, params):
    X = _ref_udft(sb.lowpass)
    for stage, band in zip(reversed(_layout(sb.n_padded, params)), reversed(sb.highpass)):
        X = _ref_sfb(X, _ref_udft(band), stage)
    return _ref_iudft(X)[..., : sb.n_signal]


def _assert_rows_close(got, want, peaks):
    assert got.shape == want.shape
    assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-12 * peaks)


@pytest.mark.parametrize("q", [1.0, 1.08, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("r", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("levels", [1, 3, 10])
def test_one_sided_bank_matches_full_spectrum_reference(q, r, levels, rng):
    params = TqwtParams(q=q, r=r, levels=levels)
    n_min = params.min_signal_length()
    # The minimum and one past it, odd lengths and lengths that are not a power of two.
    for n in sorted({n_min, n_min + 1, max(n_min, 777), max(n_min, 1000), max(n_min, 2000) + 1}):
        x = rng.standard_normal((3, n)) * np.array([[1.0], [1e3], [1e-3]])
        peaks = np.max(np.abs(x), axis=-1)
        sb, ref = decompose(x, params), _ref_decompose(x, params)
        assert sb.n_padded == ref.n_padded and sb.levels == ref.levels
        for got, want in zip([*sb.highpass, sb.lowpass], [*ref.highpass, ref.lowpass]):
            _assert_rows_close(got, want, peaks)
        _assert_rows_close(reconstruct(sb, params), _ref_reconstruct(ref, params), peaks)
        _assert_rows_close(reconstruct(sb, params), x, peaks)
        # Synthesis alone, from subbands no analysis produced.
        free = SubbandSet([rng.standard_normal(h.shape) for h in sb.highpass], rng.standard_normal(sb.lowpass.shape),
                          n, sb.n_padded)
        want = _ref_reconstruct(free, params)
        _assert_rows_close(reconstruct(free, params), want, np.max(np.abs(want), axis=-1))
        # Parseval, row by row: the subbands hold exactly the signal's energy.
        energy = sum(np.sum(band**2, axis=-1) for band in [*sb.highpass, sb.lowpass])
        assert np.allclose(energy, np.sum(x**2, axis=-1), rtol=1e-12, atol=0.0)

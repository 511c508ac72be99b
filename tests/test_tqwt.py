import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnet.tqwt import (
    FrequencyTable,
    SubbandSet,
    TqwtError,
    TqwtParams,
    _next_pow2,
    build_q_lookup,
    decompose,
    q_grid,
    reconstruct,
    subband_frequencies,
)

# The preprocessing grid's Qs plus the fallback Q (preprocess.FALLBACK_Q).
STACK_QS = [float(q) for q in q_grid(1.0, 1.4, 0.01)] + [1.08]


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
    x = rng.standard_normal(5000)
    params = TqwtParams(q=1.08, r=3.0, levels=10)
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
    loaded = FrequencyTable.from_csv(path, fs=125.0, level=10)
    assert np.allclose(loaded.qs, q_table.qs)
    assert np.allclose(loaded.centers_hz, q_table.centers_hz, rtol=1e-9)
    assert np.allclose(loaded.lower3db_hz, q_table.lower3db_hz, rtol=1e-9)


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


def test_level_out_of_range():
    with pytest.raises(TqwtError, match="out of range"):
        subband_frequencies(TqwtParams(q=1.0, levels=10), 125.0, 11)


def _scanned_min_signal_length(params):
    """Reference: step n one at a time until the final lowpass keeps 8 samples."""
    n = 8
    while 2 * round(params.alpha**params.levels * _next_pow2(n) / 2) < 8:
        n += 1
    return n


@pytest.mark.parametrize("q", [1.0, 1.08, 1.4, 2.0, 4.0])
@pytest.mark.parametrize("r", [3.0, 5.0])
def test_min_signal_length_matches_linear_scan(q, r):
    for levels in range(1, 16):
        params = TqwtParams(q=q, r=r, levels=levels)
        assert params.min_signal_length() == _scanned_min_signal_length(params), levels


def test_min_signal_length_with_no_lowpass_band_rejected():
    with pytest.raises(TqwtError, match="no lowpass band"):
        TqwtParams(q=1.0, levels=100_000).min_signal_length()


@pytest.mark.parametrize("step", [1e-300, 1e-18])  # past numpy's size limit; past any address space
def test_unbuildable_q_grid_rejected(step):
    with pytest.raises(TqwtError, match="cannot build a Q grid"):
        q_grid(1.0, 1.4, step)


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

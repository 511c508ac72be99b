import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnet.recordio import (
    ChannelError,
    HeaderError,
    PatientRecord,
    RecordIOError,
    TruncatedSignalError,
    decode_format_212,
    encode_format_212,
    read_csv_record,
    read_wfdb_record,
    select_channels,
    write_wfdb_record,
)


def _decode_212_reference(data: bytes, count: int) -> list[int]:
    # Independent bit-level oracle: walk byte triplets one pair at a time.
    out = []
    i = 0
    while len(out) < count:
        if len(out) + 1 == count and len(data) - i == 2:
            s1 = data[i] | ((data[i + 1] & 0x0F) << 8)
            out.append(s1 - 4096 if s1 > 2047 else s1)
            break
        b0, b1, b2 = data[i], data[i + 1], data[i + 2]
        s1 = b0 | ((b1 & 0x0F) << 8)
        s2 = b2 | (((b1 >> 4) & 0x0F) << 8)
        for s in (s1, s2):
            if len(out) < count:
                out.append(s - 4096 if s > 2047 else s)
        i += 3
    return out


def test_format_212_triplet_example():
    data = bytes([0xE8, 0x03, 0x00])
    assert _decode_212_reference(data, 2) == [1000, 0]
    assert decode_format_212(data, 2).tolist() == [1000, 0]


def test_format_16_identity_conversion():
    header = b"r 1 125 1\nr.dat 16 1 0 mV II\n"
    record = read_wfdb_record(header, bytes([0x01, 0x00]))
    assert record.channels["ecg_ii"].tolist() == [1.0]


def test_format_212_roundtrip_four_samples():
    adc = np.array([-2048, 2047, 0, 123])
    assert decode_format_212(encode_format_212(adc), 4).tolist() == adc.tolist()


def test_format_212_roundtrip_exhaustive():
    values = np.arange(-2048, 2048)
    assert np.array_equal(decode_format_212(encode_format_212(values), values.size), values)


def test_format_212_odd_sample_count():
    adc = np.array([5, -7, 2047])
    encoded = encode_format_212(adc)
    assert len(encoded) == 5
    assert decode_format_212(encoded, 3).tolist() == adc.tolist()
    assert _decode_212_reference(encoded, 3) == adc.tolist()


@given(
    adc=st.lists(st.integers(-2048, 2047), min_size=1, max_size=64),
    gain=st.floats(0.5, 500.0),
    baseline=st.integers(-1000, 1000),
)
@settings(max_examples=60, deadline=None)
def test_physical_conversion_affine_invertible(adc, gain, baseline):
    adc_arr = np.array(adc)
    physical = (adc_arr - baseline) / gain
    recovered = np.round(physical * gain + baseline).astype(np.int64)
    assert np.all(np.abs(recovered - adc_arr) <= 0.5 / gain + 1)


@given(adc=st.lists(st.integers(-2048, 2047), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_format_212_roundtrip_property(adc):
    arr = np.array(adc)
    decoded = decode_format_212(encode_format_212(arr), arr.size)
    assert np.array_equal(decoded, arr)
    assert _decode_212_reference(encode_format_212(arr), arr.size) == adc


def test_wfdb_record_with_gain_and_baseline():
    header, payload = write_wfdb_record(
        "r0", 125.0, ["II", "PLETH"], [np.array([100, 200]), np.array([50, 60])],
        fmt=212, gains=[100.0, 10.0], baselines=[0, 50], units=["mV", "NU"],
    )
    record = read_wfdb_record(header, payload)
    assert record.name == "r0" and record.fs == 125.0
    assert np.allclose(record.channels["ecg_ii"], [1.0, 2.0])
    assert np.allclose(record.channels["ppg"], [0.0, 1.0])


def test_wfdb_signals_without_a_free_role_are_dropped():
    rng = np.random.default_rng(3)
    ecg, resp, ppg, ecg2 = rng.integers(-2000, 2000, size=(4, 50))
    header, payload = write_wfdb_record(
        "r0", 125.0, ["II", "RESP", "PLETH", "II"], [ecg, resp, ppg, ecg2],
        gains=[200.0, 5.0, 50.0, 100.0], baselines=[10, 0, -4, 3],
    )
    record = read_wfdb_record(header, payload)
    header, payload = write_wfdb_record("r0", 125.0, ["II", "PLETH"], [ecg, ppg], gains=[200.0, 50.0], baselines=[10, -4])
    plain = read_wfdb_record(header, payload)
    assert list(record.channels) == ["ecg_ii", "ppg"]  # the first II keeps the role; RESP has none
    for role in ("ecg_ii", "ppg"):
        assert record.channels[role].tobytes() == plain.channels[role].tobytes()
    assert np.array_equal(record.channels["ecg_ii"], (ecg - 10) / 200.0)


def test_malformed_header_line_reports_offset():
    with pytest.raises(HeaderError, match="byte offset"):
        read_wfdb_record(b"rec one_signal 125\n", b"")


def test_negative_sample_count_rejected_at_record_line():
    header = b"# two signals\nw 2 125 -4\nw.dat 16 1 0 mV II\nw.dat 16 1 0 adu PLETH\n"
    with pytest.raises(HeaderError, match="negative sample count -4") as exc:
        read_wfdb_record(header, b"")
    assert "byte offset 14" in str(exc.value) and exc.value.byte_offset == 14


def test_unsupported_format_rejected():
    header = b"r 1 125 2\nr.dat 310 1 0 mV II\n"
    with pytest.raises(HeaderError, match="unsupported storage format 310"):
        read_wfdb_record(header, b"\x00" * 8)


def test_truncated_stream_reports_offset():
    header = b"r 1 125 4\nr.dat 16 1 0 mV II\n"
    with pytest.raises(TruncatedSignalError) as exc:
        read_wfdb_record(header, b"\x01\x00\x02")
    assert exc.value.byte_offset == 3


def test_zero_gain_rejected():
    header = b"r 1 125 1\nr.dat 16 0 0 mV II\n"
    with pytest.raises(HeaderError, match="zero gain"):
        read_wfdb_record(header, b"\x01\x00")


def test_csv_basic_three_rows():
    text = "ecg_ii,ppg,abp\n0.1,0.5,100\n0.2,0.6,101\n0.3,0.7,102\n"
    record = read_csv_record(text, fs=125.0)
    assert set(record.channels) == {"ecg_ii", "ppg", "abp"}
    assert all(arr.size == 3 for arr in record.channels.values())


def test_csv_without_ecg_rejected():
    with pytest.raises(ChannelError, match="no ECG channel"):
        read_csv_record("ppg,abp\n0.5,100\n", fs=125.0)


def test_csv_without_ppg_rejected():
    with pytest.raises(ChannelError, match="no PPG channel"):
        read_csv_record("ecg_ii,abp\n0.5,100\n", fs=125.0)


def test_csv_unknown_column_warns_and_is_ignored():
    text = "ecg_ii,ppg,banana\n0.1,0.5,9\n"
    with pytest.warns(UserWarning, match="banana"):
        record = read_csv_record(text, fs=125.0)
    assert set(record.channels) == {"ecg_ii", "ppg"}


def test_csv_non_numeric_cell_reports_position():
    text = "ecg_ii,ppg\n0.1,0.5\n0.2,oops\n"
    with pytest.raises(RecordIOError, match="row 2.*ppg"):
        read_csv_record(text, fs=125.0)


def test_csv_skips_blank_whitespace_and_crlf_lines():
    text = "ecg_ii,ppg,abp\r\n\r\n0.1,0.5,100\r\n   \r\n\t\n0.2,0.6,101\r\n\n"
    record = read_csv_record(text, fs=125.0)
    assert record.channels["ecg_ii"].tolist() == [0.1, 0.2]
    assert record.channels["abp"].tolist() == [100.0, 101.0]


@pytest.mark.parametrize(
    "header, row, cells",
    [
        ("time,ecg_ii,ppg", "0.008,0.2,0.6,7", 4),  # extra cell after the time row
        ("time,ecg_ii,ppg", "0.2,0.6", 2),  # the time cell is the missing one
        ("ecg_ii,ppg,banana", "0.2,0.6", 2),  # only the unknown column is short
        ("ecg_ii,ppg,banana", "0.2,0.6,1,2", 4),
    ],
)
def test_csv_row_width_checked_on_every_column(header, row, cells):
    # Blank lines do not count: the bad row is the second data row.
    first = ",".join("0.1" for _ in header.split(","))
    text = f"{header}\n{first}\n\n{row}\n{first}\n"
    with pytest.raises(RecordIOError, match=rf"^row 2 has {cells} cells, expected 3$"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            read_csv_record(text, fs=125.0)


def test_csv_non_numeric_cell_names_row_column_and_cell():
    text = "time,ecg_ii,ppg\n0,0.1,0.5\n\n0.008,0.2,oops\n"
    with pytest.raises(RecordIOError, match=r"^non-numeric cell at row 2, column 'ppg': 'oops'$"):
        read_csv_record(text, fs=125.0)


def test_csv_first_fault_in_row_order_is_reported():
    # A bad cell before a bad width, and a bad width before a bad cell.
    with pytest.raises(RecordIOError, match="^non-numeric cell at row 1, column 'ecg_ii'"):
        read_csv_record("ecg_ii,ppg\nx,0.5\n0.2,0.6,9\n", fs=125.0)
    with pytest.raises(RecordIOError, match="^row 1 has 3 cells"):
        read_csv_record("ecg_ii,ppg\n0.1,0.5,9\n0.2,x\n", fs=125.0)


def test_csv_time_and_unknown_columns_are_never_parsed():
    text = "time,ecg_ii,ppg,banana\n00:00.000,0.1,0.5,yellow\nnot-a-time,0.2,0.6,\n"
    with pytest.warns(UserWarning, match="banana"):
        record = read_csv_record(text, fs=125.0)
    assert record.channels["ppg"].tolist() == [0.5, 0.6]
    assert set(record.channels) == {"ecg_ii", "ppg"}


def test_csv_nan_and_float_syntax_cells():
    text = "ecg_ii,ppg,abp\nnan,0.5,NaN\n 1_000 ,-inf,1e2\n"
    record = read_csv_record(text, fs=125.0)
    assert np.isnan(record.channels["ecg_ii"][0]) and np.isnan(record.channels["abp"][0])
    # Every cell float() accepts is read, underscores and padding included.
    assert record.channels["ecg_ii"][1] == 1000.0
    assert record.channels["ppg"].tolist() == [0.5, -np.inf]
    assert record.channels["abp"][1] == 100.0


def test_csv_header_only_gives_empty_channels():
    record = read_csv_record("time,ecg_ii,ppg\n", fs=125.0)
    assert record.channels["ecg_ii"].size == record.channels["ppg"].size == 0


@given(
    values=st.lists(st.floats(width=64), min_size=3, max_size=60),
    fmt=st.sampled_from(["repr", ".6f"]),
)
@settings(max_examples=120, deadline=None)
def test_csv_cells_read_bit_equal_to_float(values, fmt):
    cells = [repr(v) if fmt == "repr" else format(v, ".6f") for v in values]
    rows = [cells[i : i + 3] for i in range(0, len(cells) - 2, 3)]
    text = "ecg_ii,ppg,abp\n" + "".join(",".join(r) + "\n" for r in rows)
    record = read_csv_record(text, fs=125.0)
    for k, name in enumerate(("ecg_ii", "ppg", "abp")):
        expected = np.array([float(r[k]) for r in rows])
        assert record.channels[name].tobytes() == expected.tobytes()


def _record_with(channels):
    return PatientRecord("r", 125.0, {k: np.asarray(v, dtype=float) for k, v in channels.items()})


def test_select_channels_lead_priority():
    record = _record_with({"ecg_ii": [1.0], "ecg_v": [2.0], "ppg": [3.0]})
    triple = select_channels(record)
    assert triple.ecg[0] == 1.0
    # Deterministic: repeated selection yields the same lead.
    assert select_channels(record).ecg[0] == triple.ecg[0]


def test_select_channels_lead_iii_fallback():
    record = _record_with({"ecg_iii": [4.0], "ppg": [3.0]})
    assert select_channels(record).ecg[0] == 4.0


def test_select_channels_requires_ecg_and_ppg():
    with pytest.raises(ChannelError, match="no ECG"):
        select_channels(_record_with({"ppg": [1.0], "abp": [100.0]}))
    with pytest.raises(ChannelError, match="no PPG"):
        select_channels(_record_with({"ecg_ii": [1.0]}))


def test_select_channels_abp_optional():
    triple = select_channels(_record_with({"ecg_ii": [1.0], "ppg": [2.0]}))
    assert triple.abp is None


def test_select_channels_reports_abp_gaps_apart_from_range():
    record = read_csv_record("ecg_ii,ppg,abp\n0.1,0.5,nan\n0.2,0.6,400\n0.3,0.7,90\n", fs=125.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        select_channels(record)
    assert sorted(str(w.message) for w in caught) == [
        "1 ABP samples outside (0, 300) mmHg",
        "1 non-finite ABP samples",
    ]


def test_unequal_channel_lengths_rejected():
    with pytest.raises(RecordIOError, match="unequal"):
        _record_with({"ecg_ii": [1.0, 2.0], "ppg": [3.0]})

"""Parsing of raw physiological records into aligned physical-unit channels.

Two interchange forms are supported:

* WFDB-style binary: a line-oriented text header (first line
  ``name num_signals fs num_samples``, then one line per signal
  ``file format gain baseline units label``) plus an interleaved sample
  stream in format 212 (two 12-bit samples packed into 3 bytes) or format 16
  (little-endian int16).
* CSV: UTF-8, header row naming columns from
  {time, ecg_ii, ecg_iii, ecg_v, ppg, abp}, one sample per row.

Samples are converted to physical units via (adc - baseline) / gain and
mapped to channel roles by case-insensitive label matching.  A record keeps
only its name, sampling rate and role-keyed channels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

ECG_II = "ecg_ii"
ECG_III = "ecg_iii"
ECG_V = "ecg_v"
PPG = "ppg"
ABP = "abp"

# Case-insensitive label -> channel role; a signal with another label is dropped.
_LABEL_ROLES = {"II": ECG_II, "III": ECG_III, "V": ECG_V, "PLETH": PPG, "ABP": ABP}

_CSV_COLUMNS = {"time", "ecg_ii", "ecg_iii", "ecg_v", "ppg", "abp"}

_ECG_PRIORITY = (ECG_II, ECG_III, ECG_V)

ADC_MIN_212, ADC_MAX_212 = -2048, 2047


class RecordIOError(ValueError):
    """Base error for record parsing failures."""


class HeaderError(RecordIOError):
    """Malformed or unsupported header content; carries the byte offset."""

    def __init__(self, message: str, byte_offset: int = 0):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class TruncatedSignalError(RecordIOError):
    """Signal stream ends before the declared sample count."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class ChannelError(RecordIOError):
    """Required channel missing from a record."""


@dataclass
class PatientRecord:
    name: str
    fs: float
    channels: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise RecordIOError(f"sampling rate must be positive, got {self.fs}")
        lengths = {arr.size for arr in self.channels.values()}
        if len(lengths) > 1:
            raise RecordIOError(f"channel arrays have unequal lengths: {sorted(lengths)}")


class AlignedTriple(NamedTuple):
    ecg: np.ndarray
    ppg: np.ndarray
    abp: Optional[np.ndarray]


def decode_format_212(data: bytes, count: int) -> np.ndarray:
    """Unpack `count` signed 12-bit samples from 3-byte pairs.

    Layout per pair: byte 0 = low 8 bits of s1; low nibble of byte 1 = high
    4 bits of s1; high nibble of byte 1 = high 4 bits of s2; byte 2 = low
    8 bits of s2.  A trailing odd sample occupies 2 bytes.
    """
    pairs, odd = divmod(count, 2)
    needed = pairs * 3 + (2 if odd else 0)
    if len(data) < needed:
        raise TruncatedSignalError(
            f"signal stream holds {len(data)} bytes, need {needed} for {count} samples", len(data)
        )
    buf = np.frombuffer(data[:needed], dtype=np.uint8)
    out = np.empty(count, dtype=np.int64)
    block = buf[: pairs * 3].astype(np.int64)
    out[0 : 2 * pairs : 2] = block[0::3] + 256 * (block[1::3] & 0x0F)
    out[1 : 2 * pairs : 2] = block[2::3] + 256 * ((block[1::3] >> 4) & 0x0F)
    if odd:
        out[-1] = int(buf[pairs * 3]) + 256 * (int(buf[pairs * 3 + 1]) & 0x0F)
    out[out > ADC_MAX_212] -= 4096  # two's complement for 12-bit values
    return out


def encode_format_212(samples: np.ndarray) -> bytes:
    """Inverse of :func:`decode_format_212` for values in [-2048, 2047]."""
    vals = np.asarray(samples, dtype=np.int64)
    if np.any(vals < ADC_MIN_212) or np.any(vals > ADC_MAX_212):
        raise RecordIOError("format 212 sample out of 12-bit signed range")
    u = np.where(vals < 0, vals + 4096, vals)
    pairs, odd = divmod(u.size, 2)
    out = np.zeros(pairs * 3 + (2 if odd else 0), dtype=np.uint8)
    s1 = u[0 : 2 * pairs : 2]
    s2 = u[1 : 2 * pairs : 2]
    out[0 : pairs * 3 : 3] = s1 & 0xFF
    out[1 : pairs * 3 : 3] = ((s1 >> 8) & 0x0F) | (((s2 >> 8) & 0x0F) << 4)
    out[2 : pairs * 3 : 3] = s2 & 0xFF
    if odd:
        out[-2] = u[-1] & 0xFF
        out[-1] = (u[-1] >> 8) & 0x0F
    return out.tobytes()


def decode_format_16(data: bytes, count: int) -> np.ndarray:
    needed = count * 2
    if len(data) < needed:
        raise TruncatedSignalError(
            f"signal stream holds {len(data)} bytes, need {needed} for {count} samples", len(data)
        )
    return np.frombuffer(data[:needed], dtype="<i2").astype(np.int64)


def encode_format_16(samples: np.ndarray) -> bytes:
    return np.asarray(samples, dtype="<i2").tobytes()


def _parse_header(header_bytes: bytes) -> tuple[str, float, int, list[tuple[int, float, int, str]]]:
    """(name, fs, num_samples, [(fmt, gain, baseline, label)] per signal)."""
    text = header_bytes.decode("utf-8", errors="replace")
    offsets: list[int] = []
    lines: list[str] = []
    pos = 0
    for raw in text.splitlines(keepends=True):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            offsets.append(pos)
            lines.append(stripped)
        pos += len(raw.encode("utf-8"))
    if not lines:
        raise HeaderError("empty header", 0)

    first = lines[0].split()
    if len(first) != 4:
        raise HeaderError(f"malformed record line {lines[0]!r}: expected 4 fields", offsets[0])
    try:
        name = first[0]
        num_signals = int(first[1])
        fs = float(first[2])
        num_samples = int(first[3])
    except ValueError as exc:
        raise HeaderError(f"malformed record line {lines[0]!r}: {exc}", offsets[0]) from None
    if num_samples < 0:
        raise HeaderError(f"negative sample count {num_samples} in record line {lines[0]!r}", offsets[0])
    if num_signals < 1:
        raise HeaderError(f"need at least one signal, got {num_signals}", offsets[0])

    if len(lines) - 1 < num_signals:
        raise HeaderError(
            f"header declares {num_signals} signals but has {len(lines) - 1} signal lines",
            offsets[-1],
        )

    signals = []
    for line, offset in zip(lines[1 : num_signals + 1], offsets[1 : num_signals + 1]):
        parts = line.split()
        if len(parts) != 6:
            raise HeaderError(f"malformed signal line {line!r}: expected 6 fields", offset)
        try:
            fmt = int(parts[1])
            gain = float(parts[2])
            baseline = int(parts[3])
        except ValueError as exc:
            raise HeaderError(f"malformed signal line {line!r}: {exc}", offset) from None
        if fmt not in (212, 16):
            raise HeaderError(f"unsupported storage format {fmt}", offset)
        if gain == 0:
            raise HeaderError(f"signal {parts[5]!r} has zero gain", offset)
        signals.append((fmt, gain, baseline, parts[5]))
    return name, fs, num_samples, signals


def read_wfdb_record(header_bytes: bytes, signal_bytes: bytes) -> PatientRecord:
    """Parse a WFDB-style header plus interleaved sample stream.

    A signal with no role, or with a role an earlier signal took, is dropped.
    """
    name, fs, num_samples, signals = _parse_header(header_bytes)

    fmts = {fmt for fmt, _, _, _ in signals}
    if len(fmts) > 1:
        raise HeaderError(f"mixed storage formats {sorted(fmts)} unsupported", 0)
    fmt = fmts.pop()

    total = num_samples * len(signals)
    if fmt == 212:
        flat = decode_format_212(signal_bytes, total)
    else:
        flat = decode_format_16(signal_bytes, total)
    # Interleaved frames: sample k of signal s sits at flat[k * nsig + s].
    frames = flat.reshape(num_samples, len(signals))

    channels: dict[str, np.ndarray] = {}
    for s, (_, gain, baseline, label) in enumerate(signals):
        role = _LABEL_ROLES.get(label.upper())
        if role is not None and role not in channels:
            channels[role] = (frames[:, s] - baseline) / gain
    return PatientRecord(name, fs, channels)


def write_wfdb_record(
    record_name: str,
    fs: float,
    labels: list[str],
    adc_arrays: list[np.ndarray],
    fmt: int = 212,
    gains: Optional[list[float]] = None,
    baselines: Optional[list[int]] = None,
    units: Optional[list[str]] = None,
) -> tuple[bytes, bytes]:
    """Build (header_bytes, signal_bytes) for fixtures and synthetic exports."""
    n = len(labels)
    num_samples = int(adc_arrays[0].size)
    gains = gains or [1.0] * n
    baselines = baselines or [0] * n
    units = units or ["adu"] * n
    lines = [f"{record_name} {n} {fs:g} {num_samples}"]
    for i, label in enumerate(labels):
        lines.append(f"{record_name}.dat {fmt} {gains[i]:g} {baselines[i]} {units[i]} {label}")
    header = ("\n".join(lines) + "\n").encode()

    frames = np.stack([np.asarray(a, dtype=np.int64) for a in adc_arrays], axis=1).ravel()
    payload = encode_format_212(frames) if fmt == 212 else encode_format_16(frames)
    return header, payload


def read_csv_record(text: str, fs: float, record_name: str = "csv") -> PatientRecord:
    """Parse a CSV record; requires at least one ECG column and a PPG column."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RecordIOError("empty CSV")
    header = [c.strip().lower() for c in lines[0].split(",")]
    known = [c for c in header if c in _CSV_COLUMNS]
    unknown = [c for c in header if c not in _CSV_COLUMNS]
    if unknown:
        warnings.warn(f"ignoring unknown CSV columns: {unknown}", stacklevel=2)
    if not any(c.startswith("ecg_") for c in known):
        raise ChannelError("no ECG channel in CSV header")
    if "ppg" not in known:
        raise ChannelError("no PPG channel in CSV header")

    body = lines[1:]
    widths = np.fromiter(map(str.count, body, repeat(",")), np.intp, len(body)) + 1
    bad_width = np.flatnonzero(widths != len(header))
    usecols = [i for i, c in enumerate(header) if c in _CSV_COLUMNS and c != "time"]
    # Rows before the first bad width are parsed first, so a bad cell there
    # is reported ahead of the width.
    values = _read_cells(body[: bad_width[0]] if bad_width.size else body, header, usecols)
    if bad_width.size:
        r = bad_width[0]
        raise RecordIOError(f"row {r + 1} has {widths[r]} cells, expected {len(header)}")

    last = {header[i]: k for k, i in enumerate(usecols)}  # a name given twice keeps its last column
    data = dict(zip(last, np.ascontiguousarray(values.T[list(last.values())])))
    return PatientRecord(record_name, fs, data)


def _read_cells(lines: list[str], header: list[str], usecols: list[int]) -> np.ndarray:
    """(rows, len(usecols)) float64 cells of equal-width CSV lines.

    numpy's C parser reads the columns in one pass.  It names no column and
    rejects some cells that float() accepts ("1_000"), so when it fails the
    lines are read again cell by cell, which either succeeds or names the
    first bad cell.
    """
    if lines:
        try:
            return np.loadtxt(lines, delimiter=",", usecols=usecols, comments=None, ndmin=2)
        except ValueError:
            pass
    values = np.empty((len(lines), len(usecols)))
    for r, line in enumerate(lines):
        cells = line.split(",")
        for k, i in enumerate(usecols):
            try:
                values[r, k] = float(cells[i])
            except ValueError:
                raise RecordIOError(
                    f"non-numeric cell at row {r + 1}, column {header[i]!r}: {cells[i]!r}"
                ) from None
    return values


def select_channels(record: PatientRecord) -> AlignedTriple:
    """Pick the ECG lead by priority II > III > V, plus PPG and optional ABP."""
    ecg = None
    for role in _ECG_PRIORITY:
        if role in record.channels:
            ecg = record.channels[role]
            break
    if ecg is None:
        raise ChannelError("record has no ECG channel")
    if PPG not in record.channels:
        raise ChannelError("record has no PPG channel")
    abp = record.channels.get(ABP)
    if abp is not None:
        finite = int(np.count_nonzero(np.isfinite(abp)))
        in_range = int(np.count_nonzero((abp > 0) & (abp < 300)))  # implies finite
        if finite < abp.size:
            warnings.warn(f"{abp.size - finite} non-finite ABP samples", stacklevel=2)
        if in_range < finite:
            warnings.warn(f"{finite - in_range} ABP samples outside (0, 300) mmHg", stacklevel=2)
    return AlignedTriple(ecg, record.channels[PPG], abp)

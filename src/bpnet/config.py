"""Declarative pipeline configuration: flat "key = value" files.

Lines hold one dotted key each ("train.lr = 0.001"); "#" starts a comment.
Unknown keys are rejected so that a run's config is always fully understood.
The sequence length and processing window are paired (M=10 with a 16 s
window, M=32 with 40 s) and the gradient cap follows the sequence length
(3 and 5 respectively) unless explicitly overridden.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from bpnet.tqwt import TqwtError, TqwtParams

DEFAULT_M = 10
M_WINDOW_PAIRS = {10: 16.0, 32: 40.0}
M_CAP_PAIRS = {10: 3.0, 32: 5.0}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """Paired and checked when built, frozen after (use dataclasses.replace);
    `m`, `window_seconds` and `grad_cap` left as None take their pairing."""

    data_path: str = ""
    fs: float = 125.0
    m: int | None = None
    window_seconds: float | None = None
    window_force: bool = False
    tqwt_r: float = 3.0
    tqwt_levels: int = 10
    q_min: float = 1.0
    q_max: float = 1.4
    q_step: float = 0.01
    learning_rate: float = 0.001
    batch_size: int = 128
    grad_cap: float | None = None
    patience: int = 20
    max_epochs: int = 300
    seed: int = 0
    pooled: bool = True
    split_train: float = 0.7
    split_validation: float = 0.1
    split_test: float = 0.2
    out_dir: str = "runs/out"

    def __post_init__(self) -> None:
        for key, (attr, kind) in _KEYS.items():
            value = getattr(self, attr)
            if kind is float and value is not None:
                if not math.isfinite(value):
                    raise ConfigError(f"bad value for {key!r}: not a finite number: {value!r}")
                object.__setattr__(self, attr, float(value))  # 250 hashes as the file's 250.0
        m, window = _resolve_pairings(self.m, self.window_seconds, self.window_force)
        cap = M_CAP_PAIRS.get(m, 3.0) if self.grad_cap is None else self.grad_cap
        for name, value in (("m", m), ("window_seconds", window), ("grad_cap", cap)):
            object.__setattr__(self, name, value)
        _validate(self)

    def window_samples(self) -> int:
        return int(round(self.window_seconds * self.fs))

    def to_canonical_text(self) -> str:
        lines = []
        for key, (attr, _) in sorted(_KEYS.items()):
            value = getattr(self, attr)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_text().encode()).hexdigest()[:16]


_KEYS = {  # file key -> (field, type of its value)
    "data.path": ("data_path", str),
    "fs": ("fs", float),
    "train.m": ("m", int),
    "window.seconds": ("window_seconds", float),
    "window.force": ("window_force", bool),
    "tqwt.r": ("tqwt_r", float),
    "tqwt.levels": ("tqwt_levels", int),
    "tqwt.q_min": ("q_min", float),
    "tqwt.q_max": ("q_max", float),
    "tqwt.q_step": ("q_step", float),
    "train.lr": ("learning_rate", float),
    "train.batch": ("batch_size", int),
    "train.cap": ("grad_cap", float),
    "train.patience": ("patience", int),
    "train.max_epochs": ("max_epochs", int),
    "train.seed": ("seed", int),
    "train.pooled": ("pooled", bool),
    "split.train": ("split_train", float),
    "split.validation": ("split_validation", float),
    "split.test": ("split_test", float),
    "out.dir": ("out_dir", str),
}


def _parse_value(key: str, raw: str, kind: type):
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def parse_config(text: str) -> PipelineConfig:
    """Parse a config file body into a fully resolved PipelineConfig."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, kind = _KEYS[key]
        values[attr] = _parse_value(key, value, kind)
    return PipelineConfig(**values)


def _resolve_pairings(m: int | None, window: float | None, force: bool) -> tuple[int, float]:
    """Fill in an unset train.m or window.seconds from the other's pairing."""
    if window is None:
        m = DEFAULT_M if m is None else m
        if m not in M_WINDOW_PAIRS and not force:
            raise ConfigError(
                f"train.m = {m} has no standard window; set window.seconds "
                "and window.force = true"
            )
        window = M_WINDOW_PAIRS.get(m, M_WINDOW_PAIRS[DEFAULT_M])
    elif m is None:
        matches = [k for k, w in M_WINDOW_PAIRS.items() if abs(w - window) < 1e-9]
        if not matches and not force:
            raise ConfigError(
                f"window.seconds = {window} has no standard sequence "
                "length; set train.m and window.force = true"
            )
        m = matches[0] if matches else DEFAULT_M
    return m, window


def _validate(config: PipelineConfig) -> None:
    expected = M_WINDOW_PAIRS.get(config.m)
    if not config.window_force and (expected is None or abs(expected - config.window_seconds) > 1e-9):
        raise ConfigError(
            f"train.m = {config.m} pairs with window.seconds = {expected}; "
            f"got {config.window_seconds} (set window.force = true to override)"
        )
    if config.fs <= 0:
        raise ConfigError(f"fs must be positive, got {config.fs}")
    if config.m < 1:
        raise ConfigError(f"train.m must be >= 1, got {config.m}")
    if config.window_seconds <= 0:
        raise ConfigError("window.seconds must be positive")
    if config.grad_cap <= 0:
        raise ConfigError("train.cap must be positive")
    if config.batch_size < 1:
        raise ConfigError("train.batch must be >= 1")
    if config.max_epochs < 1:
        raise ConfigError(f"train.max_epochs must be >= 1, got {config.max_epochs}")
    fractions = (config.split_train, config.split_validation, config.split_test)
    if min(fractions) < 0 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(
            f"split.train, .validation and .test must be non-negative and sum to 1, got {fractions}"
        )
    if not (0 < config.q_min < config.q_max):
        raise ConfigError("need 0 < tqwt.q_min < tqwt.q_max")
    if config.q_step <= 0:
        raise ConfigError("tqwt.q_step must be positive")
    if config.seed < 0:
        raise ConfigError(f"train.seed must be >= 0, got {config.seed}")
    if config.learning_rate <= 0:
        raise ConfigError(f"train.lr must be positive, got {config.learning_rate}")
    if config.patience < 1:
        raise ConfigError(f"train.patience must be >= 1, got {config.patience}")
    try:  # the lowest Q has the narrowest bands, so it needs the longest window
        need = TqwtParams(config.q_min, config.tqwt_r, config.tqwt_levels).min_signal_length()
    except TqwtError as exc:
        raise ConfigError(f"tqwt.q_min, tqwt.r or tqwt.levels: {exc}") from None
    if need > config.window_samples():
        raise ConfigError(
            f"tqwt.levels = {config.tqwt_levels} needs windows of >= {need} samples "
            f"at tqwt.q_min, not {config.window_samples()}"
        )

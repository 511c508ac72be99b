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
from dataclasses import dataclass, fields

M_WINDOW_PAIRS = {10: 16.0, 32: 40.0}
M_CAP_PAIRS = {10: 3.0, 32: 5.0}


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    data_path: str = ""
    fs: float = 125.0
    m: int = 10
    window_seconds: float = 16.0
    window_force: bool = False
    tqwt_r: float = 3.0
    tqwt_levels: int = 10
    q_min: float = 1.0
    q_max: float = 1.4
    q_step: float = 0.01
    learning_rate: float = 0.001
    batch_size: int = 128
    grad_cap: float = 3.0
    patience: int = 20
    max_epochs: int = 300
    seed: int = 0
    pooled: bool = True
    split_train: float = 0.7
    split_validation: float = 0.1
    split_test: float = 0.2
    out_dir: str = "runs/out"

    def window_samples(self) -> int:
        return int(round(self.window_seconds * self.fs))

    def to_canonical_text(self) -> str:
        lines = []
        for key, attr in sorted(_KEY_TO_FIELD.items()):
            value = getattr(self, attr)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_text().encode()).hexdigest()[:16]


_KEY_TO_FIELD = {
    "data.path": "data_path",
    "fs": "fs",
    "train.m": "m",
    "window.seconds": "window_seconds",
    "window.force": "window_force",
    "tqwt.r": "tqwt_r",
    "tqwt.levels": "tqwt_levels",
    "tqwt.q_min": "q_min",
    "tqwt.q_max": "q_max",
    "tqwt.q_step": "q_step",
    "train.lr": "learning_rate",
    "train.batch": "batch_size",
    "train.cap": "grad_cap",
    "train.patience": "patience",
    "train.max_epochs": "max_epochs",
    "train.seed": "seed",
    "train.pooled": "pooled",
    "split.train": "split_train",
    "split.validation": "split_validation",
    "split.test": "split_test",
    "out.dir": "out_dir",
}

_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _parse_value(key: str, raw: str, target_type: str):
    raw = raw.strip()
    try:
        if target_type == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if target_type == "int":
            return int(raw)
        if target_type == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {raw!r}")
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def parse_config(text: str) -> PipelineConfig:
    """Parse a config file body into a fully resolved PipelineConfig."""
    config = PipelineConfig()
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr = _KEY_TO_FIELD[key]
        setattr(config, attr, _parse_value(key, value, _FIELD_TYPES[attr]))
        seen.add(key)

    _resolve_pairings(config, seen)
    _validate(config)
    return config


def _resolve_pairings(config: PipelineConfig, seen: set[str]) -> None:
    m_set = "train.m" in seen
    window_set = "window.seconds" in seen
    cap_set = "train.cap" in seen

    if m_set and not window_set:
        if config.m in M_WINDOW_PAIRS:
            config.window_seconds = M_WINDOW_PAIRS[config.m]
        elif not config.window_force:
            raise ConfigError(
                f"train.m = {config.m} has no standard window; set window.seconds "
                "and window.force = true"
            )
    elif window_set and not m_set:
        matches = [m for m, w in M_WINDOW_PAIRS.items() if abs(w - config.window_seconds) < 1e-9]
        if matches:
            config.m = matches[0]
        elif not config.window_force:
            raise ConfigError(
                f"window.seconds = {config.window_seconds} has no standard sequence "
                "length; set train.m and window.force = true"
            )
    elif m_set and window_set and not config.window_force:
        expected = M_WINDOW_PAIRS.get(config.m)
        if expected is None or abs(expected - config.window_seconds) > 1e-9:
            raise ConfigError(
                f"train.m = {config.m} pairs with window.seconds = {expected}; "
                f"got {config.window_seconds} (set window.force = true to override)"
            )

    if not cap_set:
        config.grad_cap = M_CAP_PAIRS.get(config.m, 3.0)


def _validate(config: PipelineConfig) -> None:
    if config.fs <= 0:
        raise ConfigError(f"fs must be positive, got {config.fs}")
    if config.m < 1:
        raise ConfigError(f"train.m must be >= 1, got {config.m}")
    if config.m not in M_WINDOW_PAIRS and not config.window_force:
        raise ConfigError(
            f"train.m must be one of {sorted(M_WINDOW_PAIRS)} unless window.force = true"
        )
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
        raise ConfigError(f"split fractions must be non-negative and sum to 1, got {fractions}")
    if not (0 < config.q_min < config.q_max):
        raise ConfigError("need 0 < tqwt.q_min < tqwt.q_max")
    if config.q_step <= 0:
        raise ConfigError("tqwt.q_step must be positive")

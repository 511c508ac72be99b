import dataclasses
import re

import pytest

from bpnet.config import ConfigError, PipelineConfig, parse_config


def _both(text, **kwargs):
    """Two ways to build one config: parse its file text, or pass its values as keywords."""
    return (lambda: parse_config(text), lambda: PipelineConfig(**kwargs))


class TestDefaults:
    def test_empty_file_gives_defaults(self):
        for build in _both(""):
            config = build()
            assert config.m == 10
            assert config.window_seconds == 16.0
            assert config.grad_cap == 3.0
            assert config.learning_rate == 0.001
            assert config.batch_size == 128
            assert config.fs == 125.0
            assert (config.split_train, config.split_validation, config.split_test) == (0.7, 0.1, 0.2)

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("# a comment\n\nfs = 250  # trailing comment\n")
        assert config.fs == 250.0


class TestPairing:
    def test_m32_pairs_window_and_cap(self):
        for build in _both("train.m = 32\n", m=32):
            config = build()
            assert config.window_seconds == 40.0
            assert config.grad_cap == 5.0

    def test_window40_pairs_m32(self):
        for build in _both("window.seconds = 40\n", window_seconds=40.0):
            config = build()
            assert config.m == 32
            assert config.grad_cap == 5.0

    def test_inconsistent_pairing_rejected(self):
        for build in _both("train.m = 32\nwindow.seconds = 16\n", m=32, window_seconds=16.0):
            with pytest.raises(ConfigError, match="pairs with"):
                build()

    def test_force_flag_allows_mismatch(self):
        forced = _both(
            "train.m = 32\nwindow.seconds = 16\nwindow.force = true\n",
            m=32, window_seconds=16.0, window_force=True,
        )
        for build in forced:
            config = build()
            assert config.m == 32
            assert config.window_seconds == 16.0

    def test_nonstandard_m_requires_force(self):
        for build in _both("train.m = 7\n", m=7):
            with pytest.raises(ConfigError, match="no standard window"):
                build()
        forced = _both(
            "train.m = 7\nwindow.seconds = 12\nwindow.force = true\n",
            m=7, window_seconds=12.0, window_force=True,
        )
        for build in forced:
            config = build()
            assert config.m == 7

    def test_explicit_cap_not_overridden(self):
        for build in _both("train.m = 32\ntrain.cap = 2.5\n", m=32, grad_cap=2.5):
            config = build()
            assert config.grad_cap == 2.5


class TestErrors:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="train.banana"):
            parse_config("train.banana = 1\n")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="train.batch"):
            parse_config("train.batch = many\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")

    def test_bad_split_fractions(self):
        for build in _both("split.train = 0.9\n", split_train=0.9):
            with pytest.raises(ConfigError, match="sum to 1"):
                build()

    def test_negative_split_fraction(self):
        negative = _both(
            "split.train = 0.8\nsplit.validation = 0.3\nsplit.test = -0.1\n",
            split_train=0.8, split_validation=0.3, split_test=-0.1,
        )
        for build in negative:
            with pytest.raises(ConfigError, match="non-negative"):
                build()

    def test_max_epochs_below_one(self):
        for build in _both("train.max_epochs = 0\n", max_epochs=0):
            with pytest.raises(ConfigError, match="train.max_epochs"):
                build()

    def test_bad_fs(self):
        for build in _both("fs = -5\n", fs=-5.0):
            with pytest.raises(ConfigError, match="fs"):
                build()

    @pytest.mark.parametrize("key, value", [("fs", "nan"), ("tqwt.q_step", "nan"), ("train.lr", "inf")])
    def test_non_finite_float_named(self, key, value):
        attr = {"fs": "fs", "tqwt.q_step": "q_step", "train.lr": "learning_rate"}[key]
        for build in _both(f"{key} = {value}\n", **{attr: float(value)}):
            with pytest.raises(ConfigError, match=f"'{re.escape(key)}': not a finite number"):
                build()


class TestConstruction:
    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("batch_size", 0, "train.batch"),
            ("learning_rate", -0.001, "train.lr"),
            ("patience", 0, "train.patience"),
        ],
    )
    def test_built_config_is_checked(self, field, value, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            PipelineConfig(**{field: value})

    def test_built_config_takes_pairing(self):
        config = PipelineConfig(m=32)
        assert config == parse_config("train.m = 32\n")
        assert (config.window_seconds, config.grad_cap) == (40.0, 5.0)

    def test_int_for_float_field_hashes_as_parsed(self):
        assert PipelineConfig(fs=250).config_hash() == parse_config("fs = 250\n").config_hash()

    def test_config_is_frozen(self):
        config = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.batch_size = 0

    def test_replace_checks_again(self):
        with pytest.raises(ConfigError, match="train.batch"):
            dataclasses.replace(PipelineConfig(), batch_size=0)


class TestCanonicalForm:
    def test_hash_stable_under_whitespace_and_comments(self):
        a = parse_config("train.m = 10\n# note\nfs=125\n")
        b = parse_config("fs = 125.0\ntrain.m=10\n")
        assert a.config_hash() == b.config_hash()

    def test_hash_changes_with_values(self):
        a = parse_config("train.seed = 1\n")
        b = parse_config("train.seed = 2\n")
        assert a.config_hash() != b.config_hash()

    def test_canonical_text_parses_back(self):
        config = parse_config("train.m = 32\ntrain.lr = 0.01\n")
        again = parse_config(config.to_canonical_text())
        assert again == config

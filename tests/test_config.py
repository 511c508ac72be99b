import re

import pytest

from bpnet.config import ConfigError, parse_config


class TestDefaults:
    def test_empty_file_gives_defaults(self):
        config = parse_config("")
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
        config = parse_config("train.m = 32\n")
        assert config.window_seconds == 40.0
        assert config.grad_cap == 5.0

    def test_window40_pairs_m32(self):
        config = parse_config("window.seconds = 40\n")
        assert config.m == 32
        assert config.grad_cap == 5.0

    def test_inconsistent_pairing_rejected(self):
        with pytest.raises(ConfigError, match="pairs with"):
            parse_config("train.m = 32\nwindow.seconds = 16\n")

    def test_force_flag_allows_mismatch(self):
        config = parse_config("train.m = 32\nwindow.seconds = 16\nwindow.force = true\n")
        assert config.m == 32
        assert config.window_seconds == 16.0

    def test_nonstandard_m_requires_force(self):
        with pytest.raises(ConfigError, match="no standard window"):
            parse_config("train.m = 7\n")
        config = parse_config("train.m = 7\nwindow.seconds = 12\nwindow.force = true\n")
        assert config.m == 7

    def test_explicit_cap_not_overridden(self):
        config = parse_config("train.m = 32\ntrain.cap = 2.5\n")
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
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config("split.train = 0.9\n")

    def test_negative_split_fraction(self):
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config("split.train = 0.8\nsplit.validation = 0.3\nsplit.test = -0.1\n")

    def test_max_epochs_below_one(self):
        with pytest.raises(ConfigError, match="train.max_epochs"):
            parse_config("train.max_epochs = 0\n")

    def test_bad_fs(self):
        with pytest.raises(ConfigError, match="fs"):
            parse_config("fs = -5\n")

    @pytest.mark.parametrize("key, value", [("fs", "nan"), ("tqwt.q_step", "nan"), ("train.lr", "inf")])
    def test_non_finite_float_named(self, key, value):
        with pytest.raises(ConfigError, match=f"'{re.escape(key)}': not a finite number"):
            parse_config(f"{key} = {value}\n")


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

import builtins

import numpy as np
import pytest

from bpnet.tqwt import build_q_lookup


@pytest.fixture(scope="session")
def q_table():
    # Shared 41-row lookup at the nominal sampling rate; building it runs the
    # dense-grid cutoff search for every row, so do it once per session.
    return build_q_lookup(fs=125.0, level=10)


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


class _Unwritable(np.ndarray):
    """An array whose conversion for writing fails, as a full disk would."""

    def astype(self, *args, **kwargs):
        raise OSError("no space left on device")


@pytest.fixture()
def unwritable():
    """View an array as one that fails when a writer converts it to bytes."""
    return lambda array: array.view(_Unwritable)


class _FullDisk:
    """A text file that takes `room` more characters, then fails as a full disk does."""

    def __init__(self, fh, room: int):
        self._fh, self._room = fh, room

    def write(self, text: str) -> int:
        if len(text) > self._room:
            self._fh.write(text[: self._room])
            self._room = 0
            raise OSError("no space left on device")
        self._room -= len(text)
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture()
def full_disk(monkeypatch):
    """Call with `room`: text files opened for writing from then on fail after `room` characters."""
    real_open = builtins.open

    def arm(room: int) -> None:
        def open_(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _FullDisk(fh, room) if "w" in mode and "b" not in mode else fh

        monkeypatch.setattr(builtins, "open", open_)

    return arm

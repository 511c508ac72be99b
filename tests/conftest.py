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

from collections import namedtuple

import numpy as np
import pytest

from iasim.network import NetworkConfig
from iasim.simulate import _sample_frames

Channels = namedtuple("Channels", "h_hat h")


def draw_inits(cfg: NetworkConfig, frame_indices, n_draws: int = 1):
    """Channels plus per-frame precoder initializations, (F, n_draws, K,
    nt), in substream order."""
    _, h_hat, h, inits = _sample_frames(cfg, frame_indices, n_draws)
    return Channels(h_hat, h), np.stack(inits, axis=1)


def assert_same_bytes(got, want):
    """Equal dtype, shape and bytes: a changed -0.0 fails, as would a NaN
    where the other has a number."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

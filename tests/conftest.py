from collections import namedtuple

import numpy as np
import pytest

from iasim.network import NetworkConfig
from iasim.simulate import _draw_inits, _sample_frames

Channels = namedtuple("Channels", "h_hat h")


def draw_inits(cfg: NetworkConfig, frame_indices, n_draws: int = 1):
    """Channels plus per-frame precoder initializations, in substream order."""
    rngs, h_hat, h = _sample_frames(cfg, frame_indices)
    return Channels(h_hat, h), _draw_inits(cfg, rngs, n_draws)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

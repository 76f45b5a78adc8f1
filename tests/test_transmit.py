"""The batched transmit path against a frame-by-frame reference.

`transmit_frame` is the scalar oracle: it sends one frame with one
modulate and one demodulate call per stream.  `simulate._transmit` sends a
whole batch in blocks and must give exactly the same counts, and leave
every frame's substream in the same state, whatever the batch size.
"""

import tracemalloc

import numpy as np
import pytest

from iasim import simulate
from iasim.modem import demodulate, modulate, shape_for_bits
from iasim.network import NetworkConfig, complex_normal, substream
from iasim.simulate import _BLOCK_FRAMES, FRAME_USES, _transmit


def transmit_frame(gains, bits_per_ch, powers, rng):
    """Send one frame over an effective n x n scalar-gain network.

    gains[i, j] couples transmit stream j into receive stream i.  Returns
    (n, 2) bits sent and bit errors per stream.  Draw order: data bits
    per stream in index order, then one (n, FRAME_USES) noise block.
    """
    n = gains.shape[0]
    x = np.zeros((n, FRAME_USES), dtype=complex)
    tx_bits = []
    for i in range(n):
        b = int(bits_per_ch[i])
        if b > 0:
            data = rng.integers(0, 2, size=(FRAME_USES, b))
            x[i] = modulate(data, shape_for_bits(b))
        else:
            data = None
        tx_bits.append(data)
    noise = complex_normal(rng, (n, FRAME_USES))
    amps = np.sqrt(powers)
    r = gains @ (amps[:, None] * x) + noise

    counts = np.zeros((n, 2), dtype=np.int64)
    for i in range(n):
        b = int(bits_per_ch[i])
        if b == 0:
            continue
        g = gains[i, i]
        rx = demodulate(r[i], g if abs(g) > 0 else 0.0, float(amps[i]),
                        shape_for_bits(b))
        counts[i] = FRAME_USES * b, int(np.sum(rx != tx_bits[i]))
    return counts


def _batch(frames, n=3, seed=11):
    """Gains, loaded bits (0-6, with every count present) and powers."""
    r = np.random.default_rng(seed)
    gains = complex_normal(r, (frames, n, n))
    gains[:, np.arange(n), np.arange(n)] *= 3.0
    bits = r.integers(0, 7, size=(frames, n))
    bits.flat[:7] = np.arange(7)[:bits.size]
    powers = 2.0 * bits
    return gains, bits, powers


def _assert_matches_oracle(gains, bits, powers, seed=5):
    frames = len(bits)
    rngs = [substream(seed, i) for i in range(frames)]
    got = _transmit(gains, bits, powers, rngs)
    for i, rng in enumerate(rngs):
        ref_rng = substream(seed, i)
        want = transmit_frame(gains[i], bits[i], powers[i], ref_rng)
        assert np.array_equal(got[i], want), f"frame {i}"
        assert np.array_equal(rng.random(4), ref_rng.random(4))
    return got


@pytest.mark.parametrize("frames", [1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES,
                                    _BLOCK_FRAMES + 1, 400])
def test_batch_matches_per_frame_oracle(frames):
    got = _assert_matches_oracle(*_batch(frames))
    assert got[..., 1].sum() > 0  # errors occur, so the comparison bites


def test_mixed_loads_in_one_batch():
    gains, bits, powers = _batch(60)
    assert set(np.unique(bits)) == set(range(7))
    got = _assert_matches_oracle(gains, bits, powers)
    assert np.array_equal(got[..., 0], FRAME_USES * bits)
    assert np.all(got[bits == 0] == 0)


def test_zero_gain_stream_is_dead():
    gains, bits, powers = _batch(60)
    bits[bits == 0] = 2
    powers = 2.0 * bits
    gains[::3, 1, 1] = 0.0
    got = _assert_matches_oracle(gains, bits, powers)
    # A dead stream sees all-zero bits: about half its bits are in error.
    dead = got[::3, 1]
    assert 0.4 < dead[:, 1].sum() / dead[:, 0].sum() < 0.6


def test_run_frames_peak_memory_is_bounded():
    # The 4-user 3x2 adaptive batch holds three designs' transmit paths;
    # blocking keeps the transmit temporaries to a small fixed size.
    cfg = NetworkConfig(k_pairs=4, nt=3, nr=2, power_p=10.0, iterations=20)
    simulate.run_frames(cfg, "adaptive", range(4))  # warm lazy set-up
    tracemalloc.start()
    try:
        simulate.run_frames(cfg, "adaptive", range(400))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20

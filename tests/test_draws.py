"""The batched draw layer against numpy's SeedSequence and per-frame loops.

`substream` derives a batch's Philox keys in one vectorised pass and
`complex_normal` fills a batch, several shapes at once, with one call per
generator; the engine's `_sample_frames` draws every pre-design array in
that one call, and `random_bits` takes data bits from raw Philox words.
All of them must give exactly the draws of the frame-by-frame, per-kind
references in `oracles` (or of `integers(0, 2, n)`), and leave every
frame's generator in the same state.  A frame makes three generator
calls in every mode.
"""

import numpy as np
import pytest

import oracles
from iasim import simulate
from iasim.network import (NetworkConfig, _philox_keys, _PhiloxKey,
                           complex_normal, random_bits, substream)
from iasim.simulate import FRAME_USES, RUN_MODES, _sample_frames, run_frames

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 11, 2**128 + 5,
         2**200 + 7]
# Spawn keys of one, two and three 32-bit words, mixed in one batch.
WIDE = [2**32 - 1, 2**32, 17, 2**40 + 3, 2**64 - 1, 2**64, 2**70 + 1, 0]


def reference_key(seed, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return ss.generate_state(2, np.uint64)


def philox_state(rng):
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"],
            s["uinteger"])


def assert_same_state(rngs, refs):
    assert [philox_state(r) for r in rngs] == [philox_state(r) for r in refs]


def assert_same_live_state(rngs, refs):
    # As assert_same_state, but without the 32-bit half that integers
    # leaves behind after using it: no draw reads it once has_uint32 is 0.
    def live(rng):
        state = philox_state(rng)
        return state if state[4] else state[:5]
    assert [live(r) for r in rngs] == [live(r) for r in refs]


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_match_seed_sequence(seed):
    indices = list(range(60)) + WIDE
    keys = _philox_keys(seed, indices)
    want = np.array([reference_key(seed, i) for i in indices])
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, want)


@pytest.mark.parametrize("seed", [0, 2**64 + 3])
def test_substreams_match_seed_sequence(seed):
    indices = [5, 2**32 + 5, 0, 2**64 + 9]
    for rng, i in zip(substream(seed, indices), indices, strict=True):
        ref = oracles.substream(seed, i)
        assert np.array_equal(rng.standard_normal(8), ref.standard_normal(8))
        assert np.array_equal(rng.integers(0, 2, 33), ref.integers(0, 2, 33))


def test_empty_and_single_batches():
    assert substream(3, []) == []
    (rng,) = substream(3, [7])
    assert np.array_equal(rng.random(4), oracles.substream(3, 7).random(4))


def test_key_serves_only_a_philox_key():
    key = _philox_keys(0, [0])[0]
    assert _PhiloxKey(key).generate_state(2, np.uint64) is key
    with pytest.raises(ValueError):
        _PhiloxKey(key).generate_state(4, np.uint32)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=0, spawn_key=(-1,))
    with pytest.raises(ValueError, match="index"):
        substream(0, [3, -1, 4])


def test_non_integer_index_rejected():
    with pytest.raises(TypeError):
        substream(0, [1.5])


@pytest.mark.parametrize("shape", [(3,), (2, 5), (3, 3, 2, 2), 4])
def test_complex_normal_matches_two_draw_formula(shape):
    rngs = substream(8, range(40))
    refs = [oracles.substream(8, i) for i in range(40)]
    got = complex_normal(rngs, shape)
    want = np.stack([oracles.complex_normal(r, shape) for r in refs])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert_same_state(rngs, refs)


def test_complex_normal_several_shapes_match_per_shape_draws():
    # One call for all shapes draws what one call per shape, in order,
    # draws, and leaves each generator in the same state.
    shapes = [(3, 2), 4, (2, 2, 3)]
    rngs = substream(8, range(40))
    refs = [oracles.substream(8, i) for i in range(40)]
    got = complex_normal(rngs, *shapes)
    assert len(got) == len(shapes)
    for shape, g in zip(shapes, got):
        want = np.stack([oracles.complex_normal(r, shape) for r in refs])
        assert g.shape == want.shape
        assert g.tobytes() == want.tobytes()
    assert_same_state(rngs, refs)


@pytest.mark.parametrize("frames", [1, 25, 400])
def test_sample_and_inits_match_per_frame_oracle(frames):
    # The merged pre-design draw equals the per-kind draws h_hat, w, then
    # each init, in values and in each generator's end state.
    cfg = NetworkConfig(k_pairs=4, nt=3, nr=2, epsilon=0.3, seed=21)
    indices = range(1000, 1000 + frames)
    for n_inits in (0, 1, 2):
        rngs, h_hat, h, inits = _sample_frames(cfg, indices, n_inits)
        refs, ref_h_hat, ref_h = oracles.sample_frames(cfg, indices)
        ref_inits = oracles.draw_inits(cfg, refs, n_inits)
        assert h_hat.tobytes() == ref_h_hat.tobytes()
        assert h.tobytes() == ref_h.tobytes()
        assert len(inits) == n_inits
        for j, init in enumerate(inits):
            assert init.tobytes() == ref_inits[:, j].tobytes()
        assert_same_state(rngs, refs)


class CallLog:
    """A generator, or its bit generator, that logs each method called."""

    def __init__(self, inner, log):
        self._inner, self.log = inner, log

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name == "bit_generator":
            return CallLog(attr, self.log)

        def logged(*args, **kwargs):
            self.log.append(name)
            return attr(*args, **kwargs)
        return logged


@pytest.mark.parametrize("mode, loading", [
    (mode, loading) for mode in RUN_MODES for loading in (False, True)
    if mode != "adaptive" or loading])
def test_every_frame_makes_three_generator_calls(monkeypatch, mode,
                                                 loading):
    # Pre-design draws, data bits, noise: one call each, in that order,
    # whatever the mode; 30 frames span two transmit blocks.
    cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, seed=5)
    want = run_frames(cfg, mode, range(30), loading)
    logs = []

    def logged_substream(seed, indices):
        rngs = [CallLog(rng, []) for rng in substream(seed, indices)]
        logs.extend(rng.log for rng in rngs)
        return rngs

    monkeypatch.setattr(simulate, "substream", logged_substream)
    assert np.array_equal(run_frames(cfg, mode, range(30), loading), want)
    assert logs == [["standard_normal", "random_raw",
                     "standard_normal"]] * 30


@pytest.mark.parametrize("bits", [[2, 2, 2], [1, 0, 3], [5], [0, 0, 1]])
@pytest.mark.parametrize("uses", [FRAME_USES, 7])
def test_fused_data_draw_matches_per_stream_draws(bits, uses):
    # One integers(0, 2) call per frame equals the per-stream calls, then
    # leaves the generator where they do, for odd sizes too.
    (fused,), (split,) = substream(2, [9]), substream(2, [9])
    got = fused.integers(0, 2, uses * sum(bits))
    want = np.concatenate([split.integers(0, 2, size=(uses, b)).ravel()
                           for b in bits])
    assert np.array_equal(got, want)
    assert np.array_equal(fused.standard_normal(5), split.standard_normal(5))


@pytest.mark.parametrize("n", [2, 32, 100, 600, 1202])
def test_raw_word_draw_matches_integers(n):
    # The top bit of each 32-bit half of random_raw(n // 2) is integers(0,
    # 2, n)'s bit, and the generator is left where integers leaves it.
    indices = [0, 9, 2**32 + 1, 2**64 + 7, 12345]
    rngs = substream(6, indices)
    refs = [oracles.substream(6, i) for i in indices]
    got = random_bits(rngs, [n] * len(rngs))
    want = np.concatenate([ref.integers(0, 2, n) for ref in refs])
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    assert_same_live_state(rngs, refs)
    for rng, ref in zip(rngs, refs, strict=True):
        assert np.array_equal(rng.integers(0, 2, 3), ref.integers(0, 2, 3))
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))


def test_raw_word_draw_after_normal_draws():
    # In the engine the data draw follows the channel and init draws, which
    # leave no 32-bit half buffered; frames of different sizes share one
    # call.
    totals = [FRAME_USES * b for b in (6, 2, 0, 9, 24)]
    rngs = substream(4, range(len(totals)))
    refs = [oracles.substream(4, i) for i in range(len(totals))]
    complex_normal(rngs, (3, 2))
    for ref in refs:
        oracles.complex_normal(ref, (3, 2))
    got = random_bits(rngs, totals)
    want = np.concatenate([ref.integers(0, 2, t)
                           for ref, t in zip(refs, totals)])
    assert np.array_equal(got, want)
    assert_same_live_state(rngs, refs)


def test_random_bits_rejects_odd_counts():
    # An odd count has no raw-word form: integers would take half of one
    # more 64-bit output and buffer the other.  The check comes before
    # any generator moves.
    rngs = substream(6, range(3))
    with pytest.raises(ValueError, match="even"):
        random_bits(rngs, [4, 3, 2])
    assert_same_state(rngs, [oracles.substream(6, i) for i in range(3)])

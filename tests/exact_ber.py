"""Exact conditional bit error rate of a frame: a test-side oracle.

A frame reduces to an effective scalar network: gains[i, j] couples
transmit stream j into receive stream i, and stream j carries bits[j]
bits of Gray QAM at power powers[j].  Receiver i sees

    r_i = sum_j gains[i, j] sqrt(powers[j]) x_j + n_i,   n_i ~ CN(0, 1),

equalizes by gains[i, i] sqrt(powers[i]) and detects each PAM axis to the
nearest level.  Given the gains, the expected number of bit errors is an
average over the 2^R equiprobable joint symbols of all streams; for each
joint symbol the residual interference is a fixed offset, so every
detection probability is a difference of Gaussian tails.  The oracle sums
these in closed form: interference enters as the discrete symbols it is,
never as Gaussian noise.

`loaded_links` turns engine frames into these plain arrays for one loaded
design, so the oracle itself knows nothing of the engine's design type.
"""

import itertools
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from iasim.modem import modulate, shape_for_bits
from iasim.simulate import _design, _sample_frames, _stream_gains


@lru_cache(maxsize=None)
def _constellation(b: int):
    """Symbols of all 2^b words plus one (errors, edges) table per axis.

    errors[w, m] is the number of bit errors when word w is sent and that
    axis is detected at level m; edges are the axis's decision thresholds.
    """
    shape = shape_for_bits(b)
    words = np.array(list(itertools.product((0, 1), repeat=b)))
    syms = modulate(words, shape)
    d = shape.half_spacing
    axes = []
    for part, levels, cols in (
            (syms.real, shape.i_side, slice(0, shape.i_bits)),
            (syms.imag, shape.j_side, slice(shape.i_bits, b))):
        if levels == 1:
            continue
        level = np.rint((part / d + levels - 1) / 2).astype(int)
        label = np.empty((levels, cols.stop - cols.start), dtype=int)
        label[level] = words[:, cols]
        errors = (words[:, None, cols] != label[None]).sum(axis=-1)
        edges = (2 * np.arange(levels - 1) - levels + 2) * d
        axes.append((errors, edges))
    return syms, axes


def _axis_errors(mean, sigma, errors, edges, sent):
    """Expected bit errors on one PAM axis.

    mean (G, S) is the noise-free equalized coordinate, sigma (G, 1) the
    noise deviation, sent (S,) the transmitted word of each joint symbol.
    Each level's probability is taken from the tail on the far side of
    its region, so small probabilities keep full relative precision.
    """
    lo = np.concatenate(([-np.inf], edges))
    hi = np.concatenate((edges, [np.inf]))
    a = (lo - mean[..., None]) / sigma[..., None]
    c = (hi - mean[..., None]) / sigma[..., None]
    prob = np.where(a > 0, ndtr(-a) - ndtr(-c), ndtr(c) - ndtr(a))
    return (prob * errors[sent]).sum(axis=-1)


def exact_frame_ber(gains, bits, powers) -> np.ndarray:
    """Per-frame expected bit error rate given the effective gains.

    gains (F, n, n) complex, bits (F, n) ints, powers (F, n); returns (F,)
    expected errors over bits sent, both summed over the frame's streams.
    """
    gains = np.asarray(gains, dtype=complex)
    bits = np.asarray(bits, dtype=int)
    amps = np.sqrt(np.asarray(powers, dtype=float))
    out = np.empty(len(bits))
    patterns, group = np.unique(bits, axis=0, return_inverse=True)
    for p, pattern in enumerate(patterns):
        rows = np.flatnonzero(group.ravel() == p)
        active = np.flatnonzero(pattern)
        # word[s, a]: word of active stream a in joint symbol s.
        word = np.array(list(itertools.product(
            *(range(2 ** pattern[a]) for a in active))))
        x = np.stack([_constellation(pattern[a])[0][word[:, col]]
                      for col, a in enumerate(active)], axis=1)
        g = gains[rows][:, active][:, :, active]
        amp = amps[rows][:, active]
        total = np.zeros(len(rows))
        for col, i in enumerate(active):
            own = g[:, col, col] * amp[:, col]
            scale = g[:, col, :] * amp / own[:, None]
            mean = scale @ x.T
            sigma = 1.0 / (np.sqrt(2.0) * np.abs(own))[:, None]
            _, axes = _constellation(pattern[i])
            for (errors, edges), part in zip(axes, (mean.real, mean.imag)):
                total += _axis_errors(part, sigma, errors, edges,
                                      word[:, col]).mean(axis=1)
        out[rows] = total / pattern.sum()
    return out


def loaded_links(cfg, mode: str, frame_indices):
    """Effective gains, bits and powers of one loaded design per frame.

    Runs the engine's own bit-loaded design for `mode` ("minil",
    "maxsinr" or "svd") on the given frames and evaluates it on the true
    channels, exactly as the engine transmits over it.
    """
    frame_indices = [int(i) for i in frame_indices]
    rngs, h_hat, h = _sample_frames(cfg, frame_indices)
    active = np.array(frame_indices) % cfg.k_pairs
    (design,), _ = _design(cfg, mode, True, rngs, h_hat, active)
    gains = _stream_gains(h, design, np.arange(len(frame_indices)))
    return gains, design.bits, design.powers

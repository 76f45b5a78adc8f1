"""Reference versions of the engine's batched layers.

Each function here is the frame-by-frame (or channel-by-channel, or
einsum) form that a function in the package must match exactly; the
tests compare the two.  None of them runs in the engine.
"""

import numpy as np

from iasim.bitload import MAX_BITS_PER_CHANNEL, check_rate_budget
from iasim.linalg import unit
from iasim.solvers import _offdiag_power, cross_gains


def substream(seed: int, index: int) -> np.random.Generator:
    """Frame `index`'s generator, built through numpy's SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian from two real draws."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_frames(cfg, frame_indices):
    """Per-frame substreams, h_hat and the true channels, frame by frame."""
    rngs = [substream(cfg.seed, int(i)) for i in frame_indices]
    shape = (cfg.k_pairs, cfg.k_pairs, cfg.nr, cfg.nt)
    h_hat = np.empty((len(rngs),) + shape, dtype=complex)
    w = np.empty_like(h_hat)
    for i, rng in enumerate(rngs):
        h_hat[i] = complex_normal(rng, shape)
        w[i] = complex_normal(rng, shape)
    h = np.sqrt(1.0 - cfg.epsilon) * h_hat + np.sqrt(cfg.epsilon) * w
    return rngs, h_hat, h


def draw_inits(cfg, rngs, n: int) -> np.ndarray:
    """n unit-norm precoder initialisations per frame, frame by frame."""
    inits = np.empty((len(rngs), n, cfg.k_pairs, cfg.nt), dtype=complex)
    for i, rng in enumerate(rngs):
        for j in range(n):
            inits[i, j] = unit(complex_normal(rng, (cfg.k_pairs, cfg.nt)))
    return inits


def greedy_bitload(ber_of, n_channels: int, total_rate: int) -> np.ndarray:
    """Allocate total_rate bits greedily over n_channels channels.

    `ber_of(i, b)` must return the bit error probability of channel i
    carrying b bits (1 <= b <= total_rate) at per-bit power already folded
    in.  Each step adds the single bit that minimizes the weighted sum
    (1/R) * sum_i ber_of(i, bits_i) * bits_i; ties go to the lowest
    channel index.  Returns the bit vector.
    """
    check_rate_budget(n_channels, total_rate)
    bits = np.zeros(n_channels, dtype=int)
    contrib = np.zeros(n_channels)  # ber_of(i, bits_i) * bits_i
    for _ in range(total_rate):
        best = -1
        best_obj = np.inf
        for i in range(n_channels):
            if bits[i] >= MAX_BITS_PER_CHANNEL:
                continue
            p = ber_of(i, int(bits[i]) + 1)
            if not np.isfinite(p):
                raise ValueError(f"ber_of({i}, {bits[i] + 1}) is not finite")
            obj = contrib.sum() - contrib[i] + p * (bits[i] + 1)
            if obj < best_obj:
                best_obj = obj
                best = i
        bits[best] += 1
        contrib[best] = ber_of(best, int(bits[best])) * bits[best]
    return bits


def alternate(h, p, iterations, v, update, trace=None):
    """The reciprocity loop of `solvers._alternate`, with einsum contractions.

    Each iteration sets every combiner from its forward interference
    covariance, then every precoder from its covariance in the reciprocal
    network, and a final pass matches the combiners to the last
    precoders.  `update(q, d)` maps stacked covariances q (F, K, n, n) and
    the node's own-link directions d (F, K, n) to its new unit vectors.
    When `trace` is a list, the per-frame total leakage is appended after
    every iteration and after the final pass.
    """
    f, k = p.shape
    # Power weights with the own-pair entry zeroed: fwd[f, k, l] weights
    # transmitter l at receiver k; rev[f, l, k] weights the reciprocal
    # transmitter l (receiver l) at node k.
    eye = np.eye(k, dtype=bool)
    fwd = np.broadcast_to(p[:, None, :], (f, k, k)).copy()
    fwd[:, eye] = 0.0
    rev = np.broadcast_to(p[:, :, None], (f, k, k)).copy()
    rev[:, eye] = 0.0
    diag = np.arange(k)

    def combiners(v):
        t = np.einsum("fklij,flj->fkli", h, v, optimize=True)
        q = np.einsum("fkl,fkli,fklj->fkij", fwd, t, t.conj(), optimize=True)
        return update(q, t[:, diag, diag])

    def record(u, v):
        if trace is not None:
            trace.append(_offdiag_power(cross_gains(h, u, v), p).sum(axis=-1))

    for _ in range(iterations):
        u = combiners(v)
        s = np.einsum("flkij,fli->flkj", h.conj(), u, optimize=True)
        qr = np.einsum("flk,flki,flkj->fkij", rev, s, s.conj(),
                       optimize=True)
        v = update(qr, s[:, diag, diag])
        record(u, v)
    u = combiners(v)
    record(u, v)
    return u, v

"""Reference versions of the engine's batched layers.

Each function here is the frame-by-frame (or channel-by-channel, or
einsum, or LAPACK, or scipy) form of a function in the package; the tests
compare the two.  The package matches them exactly, except the solver
loop, which matches `alternate` to within rounding, the closed-form 3x3
kernels, which match `min_eigvec` and `solve_posdef` to within rounding,
the Cephes port behind `modem.qfunc`, which matches `qfunc` to within
rounding, the Max-SINR prediction, which sums in another order, and the
mode check, which rejects the same cases with other messages.  None of
them runs in the engine.
"""

import math

import numpy as np
from scipy.special import erfc

from iasim import modem
from iasim.bitload import check_rate_budget
from iasim.linalg import _fix_phase, unit
from iasim.modem import MAX_BITS, ber_awgn_instant
from iasim.simulate import MODE_ADAPTIVE, MODE_SVD, RUN_MODES
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


def min_eigvec(a) -> np.ndarray:
    """LAPACK's eigenvector of each matrix's smallest eigenvalue, with the
    package's phase rule."""
    return _fix_phase(np.linalg.eigh(a)[1][..., :, 0])


def solve_posdef(b, x) -> np.ndarray:
    """LAPACK's solution of b y = x for stacked matrices and vectors."""
    return np.linalg.solve(b, np.asarray(x)[..., None])[..., 0]


def qfunc(x):
    """Gaussian tail probability Q(x) through scipy's erfc."""
    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


def ber_awgn_per_term(b: int, post_snr):
    """Exact b-bit QAM BER with the package's Q evaluated on every term."""
    w, sq, denom = modem._qam_terms(b)
    args = np.sqrt(6.0 * sq * np.asarray(post_snr, dtype=float)[..., None]
                   / denom)
    return (w * modem.qfunc(args)).sum(axis=-1) / b


def constellation_geometry(b: int):
    """(I, J, d, i_bits, j_bits) of b-bit Gray QAM, derived from b alone.

    The real axis takes a label's leading i_bits = ceil(b/2) bits and
    I = 2^i_bits levels, the imaginary axis the j_bits = floor(b/2) rest.
    An L-level PAM at half-spacing d has mean energy d^2 (L^2 - 1) / 3,
    so unit symbol energy needs d^2 = 3 / ((I^2 - 1) + (J^2 - 1)).
    """
    j_bits = b // 2
    i_bits = b - j_bits
    i_side, j_side = 1 << i_bits, 1 << j_bits
    d = math.sqrt(3.0 / ((i_side**2 - 1) + (j_side**2 - 1)))
    return i_side, j_side, d, i_bits, j_bits


def bits_to_labels(bits) -> np.ndarray:
    """Labels of (..., b) bit words, most significant bit first."""
    bits = np.asarray(bits)
    b = bits.shape[-1]
    return bits @ (1 << np.arange(b - 1, -1, -1))


def labels_to_bits(labels, b: int) -> np.ndarray:
    """(..., b) bit words of b-bit labels, most significant bit first."""
    return (np.asarray(labels)[..., None] >> np.arange(b - 1, -1, -1)) & 1


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
            if bits[i] >= MAX_BITS:
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


def check_mode_config(cfg, mode: str, loading: bool):
    """The engine's mode check, one branch per mode and loading case."""
    if mode not in RUN_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_ADAPTIVE and not loading:
        raise ValueError("adaptive needs loading")
    r = cfg.total_rate
    if mode != MODE_SVD:
        if loading or mode == MODE_ADAPTIVE:
            check_rate_budget(cfg.k_pairs, r)
        elif cfg.rate_per_pair > MAX_BITS:
            raise ValueError(
                f"rate_per_pair {cfg.rate_per_pair} exceeds the supported "
                f"{MAX_BITS} bits per channel")
    if mode in (MODE_SVD, MODE_ADAPTIVE):
        if loading or mode == MODE_ADAPTIVE:
            check_rate_budget(cfg.n_min, r)
        else:
            if r % cfg.n_min:
                raise ValueError(
                    f"network rate {r} is not divisible by "
                    f"n_min={cfg.n_min}; the equal-rate benchmark "
                    "requires divisibility")
            if r // cfg.n_min > MAX_BITS:
                raise ValueError(
                    f"{r // cfg.n_min} bits per eigenmode exceeds the "
                    f"supported {MAX_BITS}")


def table_prediction(table: np.ndarray, bits: np.ndarray, r: int):
    """(1/R) sum_i P_b(i) b_i, each P_b read from the greedy BER table
    (F, n, max_bits) at the channel's loaded bit count."""
    taken = np.take_along_axis(table, np.maximum(bits, 1)[..., None] - 1,
                               axis=2)[..., 0]
    return (taken * bits).sum(axis=1) / r


def sinr_prediction(bits: np.ndarray, sinr: np.ndarray, r: int):
    """(1/R) sum_i P_b(sinr_i) b_i, accumulated one bit count at a time."""
    predicted = np.zeros(len(bits))
    for b in range(1, MAX_BITS + 1):
        mask = bits == b
        if np.any(mask):
            np.add.at(predicted, np.nonzero(mask)[0],
                      ber_awgn_instant(b, sinr[mask]) * b)
    return predicted / r


def alternate(h, p, iterations, v, update, trace=None):
    """The reciprocity loop of `solvers._alternate`, with einsum contractions.

    The package's loop sums in another order, so its designs agree with
    these to within rounding, not bit for bit; error counts are held by
    the benchmark's fingerprint instead.  Where a node's smallest
    eigenvalue is repeated, rounding picks its vector within the
    eigenspace, so there the vectors agree only while both loops feed
    bit-identical covariances to the kernels.

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

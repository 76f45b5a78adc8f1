"""Reference versions of the engine's batched layers.

Each function here is the frame-by-frame (or channel-by-channel, or
einsum, or LAPACK, or scipy, or unfused, or per-count) form of a function
in the package; the tests compare the two.  The package matches them
exactly, except the solver loop, which matches `alternate` to within
rounding, the closed-form 3x3 kernels, which match the LAPACK
`min_eigvec` and `solve_posdef` to within rounding (and the unfused
`min_eigvec` and stacked `maxsinr_update` byte for byte), the Cephes port
behind `modem.qfunc`, which matches `qfunc` to within rounding (and the
all-ranges `erfc` byte for byte), the Max-SINR prediction, which sums in
another order, and the mode check, which rejects the same cases with
other messages.  None of them runs in the engine.
"""

import math

import numpy as np
from scipy.special import erfc

from iasim import modem
from iasim.bitload import check_rate_budget
from iasim.linalg import unit
from iasim.modem import MAX_BITS, ber_awgn_instant, modulate
from iasim.network import complex_normal as draw_normal, random_bits
from iasim.simulate import (FRAME_USES, MODE_ADAPTIVE, MODE_SVD, RUN_MODES,
                            _pack)
from iasim.solvers import _offdiag_power, cross_gains


_TINY = 1e-300


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


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each vector so its largest-magnitude entry is real positive:
    the package's phase rule, with argmax's lead entry."""
    idx = np.argmax(np.abs(v), axis=-1, keepdims=True)
    lead = np.take_along_axis(v, idx, axis=-1)
    phase = lead / np.maximum(np.abs(lead), _TINY)
    return v * phase.conj()


def min_eigvec(a) -> np.ndarray:
    """LAPACK's eigenvector of each matrix's smallest eigenvalue, with the
    package's phase rule."""
    return fix_phase(np.linalg.eigh(a)[1][..., :, 0])


# The closed-form min_eigvec kernels as the package had them before their
# numpy passes were fused: each stacks its candidates, then `unit` and
# `fix_phase` normalise and rotate them as separate steps.  The
# package's kernels match these byte for byte.

_DEGENERATE_3X3 = 1e-6


def min_eigvec_2x2(a: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue, closed form.

    `a` is stacked Hermitian (..., 2, 2).  Degenerate spectra resolve to
    the lowest-index basis vector.
    """
    p = a[..., 0, 0].real
    q = a[..., 1, 1].real
    b = a[..., 0, 1]
    half_gap = 0.5 * (p - q)
    root = np.sqrt(half_gap**2 + np.abs(b) ** 2)
    lam = 0.5 * (p + q) - root

    # Two algebraic null-vector candidates of (A - lam I); pick the larger.
    v1 = np.stack([b, lam - p], axis=-1)
    v2 = np.stack([lam - q, b.conj()], axis=-1)
    n1 = np.abs(b) ** 2 + (lam - p) ** 2
    n2 = np.abs(b) ** 2 + (lam - q) ** 2
    v = np.where((n1 >= n2)[..., None], v1, v2)

    # Degenerate (a ~ scaled identity): fall back to e0 or e1 by diagonal.
    scale = p + q + np.abs(b)
    bad = np.maximum(n1, n2) <= (1e-30 * np.maximum(scale, 1.0) ** 2)
    if np.any(bad):
        e = np.zeros_like(v)
        first = p <= q
        e[..., 0] = np.where(first, 1.0, 0.0)
        e[..., 1] = np.where(first, 0.0, 1.0)
        v = np.where(bad[..., None], e, v)
    return unit(v)


def abs2(z):
    """|z|^2 without the square root of np.abs."""
    return z.real**2 + z.imag**2


def null_vector_3x3(d, a01, a02, a12, lam):
    """The largest cross product of two rows of A - lam I, and its norm^2.

    `d` holds A's diagonal as three real arrays, a01, a02 and a12 its
    upper entries.  Each row of A - lam I times a null vector is zero
    (without conjugation), so where lam is an eigenvalue of multiplicity
    one the cross product of two rows lies along its eigenvector.  The
    three products are the columns of the Hermitian adjugate of A - lam I,
    written through its diagonal g and its upper entries x, y, z.
    """
    m0, m1, m2 = (di - lam for di in d)
    g0 = m1 * m2 - abs2(a12)
    g1 = m0 * m2 - abs2(a02)
    g2 = m0 * m1 - abs2(a01)
    x = a01 * a12 - a02 * m1
    y = a02 * a01.conj() - m0 * a12
    z = a01 * m2 - a02 * a12.conj()
    ax, ay, az = abs2(x), abs2(y), abs2(z)
    n01 = ax + ay + g2**2           # rows 0 x 1 = (x, y, g2)
    n02 = az + ay + g1**2           # rows 0 x 2 = (z, -g1, -y*)
    n12 = ax + az + g0**2           # rows 1 x 2 = (g0, -z*, x*)
    k01 = (n01 >= n02) & (n01 >= n12)
    k02 = ~k01 & (n02 >= n12)
    v = np.stack([np.where(k01, x, np.where(k02, z, g0)),
                  np.where(k01, y, np.where(k02, -g1, -z.conj())),
                  np.where(k01, g2, np.where(k02, -y.conj(), x.conj()))],
                 axis=-1)
    return v, np.maximum(n01, np.maximum(n02, n12))


def min_eigvec_3x3(a: np.ndarray) -> np.ndarray:
    """Eigenvector of the smallest eigenvalue, closed form, not normalized.

    `a` is stacked Hermitian (..., 3, 3).  The eigenvalue is the
    trigonometric root of the characteristic cubic of the trace-shifted
    matrix (Kopp, "Efficient numerical diagonalization of hermitian 3x3
    matrices", IJMPC 19, 2008, arXiv:physics/0610206), and the vector the
    largest cross product of two rows of A - lam I.  That root loses
    accuracy as the two smallest eigenvalues approach each other, so the
    Rayleigh quotient of the first vector gives lam again and the vector
    is formed once more.  Near-degenerate spectra (the identity, the zero
    matrix, rank one: the step can move lam off a double root) go to `eigh`.
    """
    d = tuple(a[..., i, i].real for i in range(3))
    a01, a02, a12 = a[..., 0, 1], a[..., 0, 2], a[..., 1, 2]
    o01, o02, o12 = abs2(a01), abs2(a02), abs2(a12)
    mean = sum(d) / 3.0
    s0, s1, s2 = (di - mean for di in d)
    p = np.sqrt((s0**2 + s1**2 + s2**2 + 2.0 * (o01 + o02 + o12)) / 6.0)
    det = (s0 * s1 * s2 + 2.0 * (a01 * a12 * a02.conj()).real
           - s0 * o12 - s1 * o02 - s2 * o01)
    r = np.clip(det / np.maximum(2.0 * p**3, _TINY), -1.0, 1.0)
    lam = mean + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)

    v, n1 = null_vector_3x3(d, a01, a02, a12, lam)
    # lam += v^H (A - lam I) v / v^H v; a zero v leaves lam in place.
    # A v is summed elementwise, so its bits do not depend on a's layout.
    w = abs2(v).sum(axis=-1)
    av = sum(a[..., :, j] * v[..., j, None] for j in range(3))
    lam = lam + (((v.conj() * av).sum(axis=-1).real - lam * w)
                 / np.maximum(w, _TINY))
    v, n2 = null_vector_3x3(d, a01, a02, a12, lam)

    fro2 = d[0]**2 + d[1]**2 + d[2]**2 + 2.0 * (o01 + o02 + o12)
    bad = np.minimum(n1, n2) <= _DEGENERATE_3X3 * fro2**2
    if np.any(bad):
        v[bad] = np.linalg.eigh(a[bad])[1][..., :, 0]
    return v


def closed_min_eigvec(a) -> np.ndarray:
    """`linalg.min_eigvec` on 2x2 or 3x3 matrices, through the kernels
    above."""
    a = np.asarray(a)
    if a.shape[-1] == 2:
        return fix_phase(min_eigvec_2x2(a))
    return fix_phase(unit(min_eigvec_3x3(a)))


def solve_posdef(b, x) -> np.ndarray:
    """LAPACK's solution of b y = x for stacked matrices and vectors."""
    return np.linalg.solve(b, np.asarray(x)[..., None])[..., 0]


# The Max-SINR node update as the package had it before it was fused:
# I + Q formed, solved by stacked closed forms, then `unit`.  The
# package's `solve_posdef` matches it byte for byte.

def solve_stacked(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve b y = x for stacked b = I + Q, Q Hermitian PSD.

    The 2x2 form clamps det b to its bound tr b - 1; the 3x3 form is an
    unrolled LDL^H with every pivot, a Schur complement of b and so at
    least 1, clamped at 1.  Other sizes go to LAPACK.
    """
    b = np.asarray(b)
    x = np.asarray(x)
    if b.shape[-1] == 2:
        b00 = b[..., 0, 0]
        b01 = b[..., 0, 1]
        b11 = b[..., 1, 1]
        det = np.maximum(b00.real * b11.real - np.abs(b01) ** 2,
                         b00.real + b11.real - 1)
        y0 = (b11 * x[..., 0] - b01 * x[..., 1]) / det
        y1 = (b00 * x[..., 1] - b01.conj() * x[..., 0]) / det
        return np.stack([y0, y1], axis=-1)
    if b.shape[-1] != 3:
        return solve_posdef(b, x)
    b01, b02, b12 = b[..., 0, 1], b[..., 0, 2], b[..., 1, 2]
    d0 = np.maximum(b[..., 0, 0].real, 1.0)
    l10 = b01.conj() / d0
    l20 = b02.conj() / d0
    d1 = np.maximum(b[..., 1, 1].real - abs2(b01) / d0, 1.0)
    l21 = (b12.conj() - l20 * b01) / d1
    d2 = np.maximum(b[..., 2, 2].real - abs2(b02) / d0 - d1 * abs2(l21),
                    1.0)
    z0 = x[..., 0]
    z1 = x[..., 1] - l10 * z0
    z2 = x[..., 2] - l20 * z0 - l21 * z1
    y2 = z2 / d2
    y1 = z1 / d1 - l21.conj() * y2
    y0 = z0 / d0 - l10.conj() * y1 - l20.conj() * y2
    return np.stack([y0, y1, y2], axis=-1)


def maxsinr_update(q, d) -> np.ndarray:
    """unit((I + Q)^-1 d) through `solve_stacked`."""
    q = np.asarray(q)
    return unit(solve_stacked(np.eye(q.shape[-1]) + q, d))


def covariances(w, tl) -> np.ndarray:
    """`solvers._covariances` as a Python sum from 0, one l at a time."""
    wt = w[:, None] * tl
    tc = tl.conj()
    return sum(wt[l, :, None] * tc[l] for l in range(len(wt)))


def erfc_all_ranges(x):
    """The package's Cephes erfc with every range evaluated on every
    element, then picked by np.where."""
    h = modem._horner
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    with np.errstate(all="ignore"):
        z = x * x
        big = a >= 8.0
        p = np.where(big, h(a, modem._ERFC_R), h(a, modem._ERFC_P))
        q = np.where(big, h(a, modem._ERFC_S), h(a, modem._ERFC_Q))
        y = np.exp(-z) * p / q
        erf = x * h(z, modem._ERF_T) / h(z, modem._ERF_U)
    y = np.where(z > modem._MAXLOG, 0.0, y)
    y = np.where(x < 0, 2.0 - y, y)
    return np.where(a < 1.0, 1.0 - erf, y)


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


# Detection and prediction as the package had them before each block made
# one demodulate call and each prediction one Q call: one call per bit
# count, and bit errors through a popcount table.

POPCOUNT = np.uint8([bin(v).count("1") for v in range(2**MAX_BITS)])


def demodulate_per_count(y, gain, amplitude, b: int):
    """Nearest-neighbor labels of b-bit symbols y after equalizing by
    gain * amplitude, with integer levels; a zero gain reads label 0."""
    i_side, j_side, d = modem._geometry(b)
    labels = modem._tables(b)[1]
    gain = np.asarray(gain)
    dead = gain == 0
    x = np.asarray(y, dtype=complex) / np.where(dead, 1.0, gain * amplitude)

    def level(v, levels):
        z = np.fmin(np.fmax((v / d + levels - 1) / 2, 0), levels - 1)
        return np.rint(z).astype(np.int64)

    lv = level(x.real, i_side)
    if j_side > 1:
        lv = lv * j_side + level(x.imag, j_side)
    detected = labels[lv]
    return np.where(dead, 0, detected) if np.any(dead) else detected


def transmit_block_per_count(gains, bits, powers, rngs) -> np.ndarray:
    """`simulate._transmit_block` with one modulate and one demodulate
    call per bit count."""
    f, n = bits.shape
    loads = [int(b) for b in np.unique(bits) if b > 0]
    streams = {b: np.nonzero(bits == b) for b in loads}
    drawn = random_bits(rngs, FRAME_USES * bits.sum(axis=1))
    start = FRAME_USES * (np.cumsum(bits) - bits.ravel()).reshape(f, n)
    sent = {}
    x = np.zeros((f, n, FRAME_USES), dtype=complex)
    for b in loads:
        data = drawn[start[streams[b]][:, None] + np.arange(FRAME_USES * b)]
        sent[b] = _pack(data.reshape(-1, FRAME_USES, b))
        x[streams[b]] = modulate(sent[b], b)
    noise = draw_normal(rngs, (n, FRAME_USES))
    amps = np.sqrt(powers)
    r = gains @ (amps[..., None] * x) + noise
    counts = np.zeros((f, n, 2), dtype=np.int64)
    for b in loads:
        fr, st = streams[b]
        rx = demodulate_per_count(r[fr, st], gains[fr, st, st][:, None],
                                  amps[fr, st][:, None], b)
        counts[fr, st, 0] = FRAME_USES * b
        counts[fr, st, 1] = POPCOUNT[np.bitwise_xor(sent[b], rx)].sum(axis=1)
    return counts


def predicted_per_count(bits: np.ndarray, snr: np.ndarray, r: int):
    """`simulate._predicted` with one ber_awgn_instant call per bit count."""
    contrib = np.zeros(bits.shape)
    for b in [int(b) for b in np.unique(bits) if b > 0]:
        mask = bits == b
        contrib[mask] = ber_awgn_instant(b, snr[mask]) * b
    return contrib.sum(axis=1) / r


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

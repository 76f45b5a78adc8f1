"""Alternating transceiver design for the interference network.

Two iterative designs are provided.  The leakage-minimizing design
(MinIL) alternates minimum-eigenvector updates of the combiners and,
through the reciprocal network, of the precoders, driving the total
interference leakage toward zero.  The SINR-maximizing design (Max-SINR)
alternates regularized matched-filter updates, each of which maximizes
that pair's instantaneous SINR for fixed opposite-side vectors.  Both
run the same reciprocity loop and differ only in the per-node update.

Both operate on a batch of (K, K, nr, nt) channel grids with a leading
frame axis (entry [f, k, l] is the channel from transmitter l into
receiver k in frame f) and accept per-pair stream powers.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import min_eigvec, solve_posdef, unit
from .network import check_count


@dataclass
class IaSolution:
    """Per-pair transceiver vectors and their link metrics, (F, K, ...).

    `z` is the equivalent scalar channel u_k^H H_kk v_k under the channels
    the solver was given; `leakage` and `sinr` are evaluated on the same
    channels with the stored powers and unit noise power.
    """

    v: np.ndarray
    u: np.ndarray
    z: np.ndarray
    leakage: np.ndarray
    sinr: np.ndarray
    per_channel_power: np.ndarray


def _as_batch(channels) -> np.ndarray:
    channels = np.asarray(channels, dtype=complex)
    if channels.ndim != 5 or channels.shape[1] != channels.shape[2]:
        raise ValueError(
            f"channels must be (F, K, K, nr, nt), got {channels.shape}")
    return channels


def _as_powers(powers, f: int, k: int) -> np.ndarray:
    p = np.asarray(powers, dtype=float)
    if p.ndim == 0:
        p = np.full(k, float(p))
    if p.ndim == 1:
        p = np.broadcast_to(p, (f, k))
    if p.shape != (f, k):
        raise ValueError(f"powers must broadcast to ({f}, {k})")
    if not np.isfinite(p).all():
        raise ValueError("powers must be finite")
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative")
    return p


def _start(channels, powers, iterations, init_v):
    """Channels, (F, K) powers and unit initial precoders of a batch."""
    h = _as_batch(channels)
    f, k, _, _, nt = h.shape
    check_count("iterations", iterations)
    v = np.asarray(init_v, dtype=complex)
    if v.shape != (f, k, nt):
        raise ValueError(f"init_v must be (F, K, nt) = {(f, k, nt)}, "
                         f"got {v.shape}")
    for name, x in (("channels", h), ("init_v", v)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")
    return h, _as_powers(powers, f, k), unit(v)


def cross_gains(channels: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Effective scalar gains g[k, l] = u_k^H H_kl v_l (batched)."""
    return np.einsum("...ki,...klij,...lj->...kl", u.conj(), channels, v,
                     optimize=True)


def _offdiag_power(g: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Leakage L_k = sum_{l != k} p_l |g_kl|^2 from a gain table."""
    k = g.shape[-1]
    pw = np.abs(g) ** 2 * powers[..., None, :]
    pw[..., np.arange(k), np.arange(k)] = 0.0
    return pw.sum(axis=-1)


def _metrics(channels, u, v, powers):
    """(z, leakage, sinr) of combiners u and precoders v on `channels`,
    at unit noise power."""
    g = cross_gains(channels, u, v)
    k = g.shape[-1]
    z = g[..., np.arange(k), np.arange(k)]
    leakage = _offdiag_power(g, powers)
    sinr = powers * np.abs(z) ** 2 / (1.0 + leakage)
    return z, leakage, sinr


def _covariances(w, tl):
    """Weighted sums over l of tl[l, i] conj(tl[l, j]), entry-major.

    Returns the (n, n, K, F) array whose entry [i, j, k, f] is the sum
    over l of w[l, k, f] tl[l, i, k, f] conj(tl[l, j, k, f]), for weights
    w (K, K, F) and signals tl (K, n, K, F).  Every term is formed in one
    product, which is reduced over l in order, l = 0 first, from 0.
    """
    wt = w[:, None] * tl
    return np.add.reduce(wt[:, :, None] * tl.conj()[:, None], axis=0,
                         initial=0)


def _alternate(h, p, iterations, v, update, trace=None):
    """The reciprocity loop shared by both designs; returns (u, v).

    Each iteration sets every combiner from its forward interference
    covariance, then every precoder from its covariance in the reciprocal
    network, and a final pass matches the combiners to the last
    precoders.  `update(q, d)` maps stacked covariances q (F, K, n, n) and
    the node's own-link directions d (F, K, n) to its new unit vectors.
    When `trace` is a list, the per-frame total leakage is appended after
    every iteration and after the final pass.

    The two channel layouts are built once per solve:
    hf[(f, l), j, (k, i)] = H_kl[i, j] and hr[(f, l), i, (k, j)] =
    conj(H_lk[i, j]), so a half-step's signals t[f, l, k] = H_kl v_l and
    s[f, l, k] = H_lk^H u_l are one row-times-matrix product per (f, l).
    Node k's covariance sum_l w[l, k, f] t t^H, with w[l, k, f] = p[f, l]
    and the own pair zeroed, is summed elementwise over l
    (`_covariances`): as a matmul it would cost one BLAS call per tiny
    matrix.  It is built entry-major: with the signals transposed once to
    (l, i, k, f), every entry q[i, j] is a contiguous (K, F) block of an
    (n, n, K, F) sum over l, which reaches `update` as its (F, K, n, n)
    view.
    """
    f, k, _, nr, nt = h.shape
    hf = h.transpose(0, 2, 4, 1, 3).reshape(f * k, nt, k * nr)
    hr = h.conj().transpose(0, 1, 3, 2, 4).reshape(f * k, nr, k * nt)
    diag = np.arange(k)
    w = np.broadcast_to(p.T[:, None, :], (k, k, f)).copy()
    w[diag, diag] = 0.0

    def update_from(x, layout):
        """New vectors from x's signals t[f, l, k] at every node k."""
        t = (x.reshape(f * k, 1, -1) @ layout).reshape(f, k, k, -1)
        q = _covariances(w, np.ascontiguousarray(t.transpose(1, 3, 2, 0)))
        return update(q.transpose(3, 2, 0, 1), t[:, diag, diag])

    def record(u, v):
        if trace is not None:
            trace.append(_offdiag_power(cross_gains(h, u, v), p).sum(axis=-1))

    for _ in range(iterations):
        u = update_from(v, hf)
        v = update_from(u, hr)
        record(u, v)
    u = update_from(v, hf)
    record(u, v)
    return u, v


def minil_solve_batch(channels: np.ndarray, powers, iterations: int,
                      init_v: np.ndarray, track_leakage: bool = False):
    """Leakage-minimizing alternating design over a batch of frames.

    Every node update is the minimum eigenvector of its interference
    covariance.  With equal powers the total leakage is non-increasing at
    every half-step; `track_leakage` also returns its (iterations + 1, F)
    trace.
    """
    h, p, v = _start(channels, powers, iterations, init_v)
    trace = [] if track_leakage else None
    if h.shape[1] == 1:
        # No interferers: any combiner is leakage-optimal, so the precoder
        # stays at its initialization and the combiner is matched to it.
        # The leakage is zero at every iteration.
        u = unit(np.einsum("fkij,fkj->fki", h[:, [0], [0]], v,
                           optimize=True))
        trace = np.zeros((iterations + 1, len(h)))
    else:
        u, v = _alternate(h, p, iterations, v, lambda q, d: min_eigvec(q),
                          trace)
    sol = IaSolution(v, u, *_metrics(h, u, v, p), p)
    if track_leakage:
        return sol, np.array(trace)
    return sol


def maxsinr_solve_batch(channels: np.ndarray, powers, iterations: int,
                        init_v: np.ndarray) -> IaSolution:
    """SINR-maximizing alternating design over a batch of frames.

    Each combiner update is u_k = normalize(B_k^-1 H_kk v_k) with
    B_k = I + sum_{l != k} p_l H_kl v_l v_l^H H_kl^H, the unit-vector
    maximizer of pair k's SINR; precoders get the mirrored update in the
    reciprocal network.  Each returned u_k is the exact SINR maximizer for
    the returned precoders.
    """
    h, p, v = _start(channels, powers, iterations, init_v)
    u, v = _alternate(h, p, iterations, v,
                      lambda q, d: solve_posdef(q, d))
    return IaSolution(v, u, *_metrics(h, u, v, p), p)


def evaluate_true_sinr(sol: IaSolution, true_channels):
    """Post-processing SINR of a designed batch on the true channels.

    gamma_k = p_k |u_k^H H_kk v_k|^2 / (1 + sum_{l != k} p_l
    |u_k^H H_kl v_l|^2) at unit noise power, with the solution's powers.
    Returns (sinr, signal_gain, interference_power).
    """
    h = _as_batch(true_channels)
    p = _as_powers(sol.per_channel_power, *h.shape[:2])
    z, interference, sinr = _metrics(h, sol.u, sol.v, p)
    return sinr, z, interference

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
from functools import lru_cache

import numpy as np

from .linalg import min_eigvec, solve_posdef, unit


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
    if channels.ndim != 5:
        raise ValueError("channels must be (F, K, K, nr, nt)")
    return channels


def _as_powers(powers, f: int, k: int) -> np.ndarray:
    p = np.asarray(powers, dtype=float)
    if p.ndim == 0:
        p = np.full(k, float(p))
    if p.ndim == 1:
        p = np.broadcast_to(p, (f, k))
    if p.shape != (f, k):
        raise ValueError(f"powers must broadcast to ({f}, {k})")
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative")
    return p


def _start(channels, powers, init_v):
    """Channels, (F, K) powers and unit initial precoders of a batch."""
    h = _as_batch(channels)
    f, k = h.shape[:2]
    v = unit(np.asarray(init_v, dtype=complex).reshape(f, k, -1))
    return h, _as_powers(powers, f, k), v


@lru_cache(maxsize=256)
def _plan(subscripts: str, *shapes) -> tuple:
    """The contraction path `optimize=True` picks for these shapes."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(subscripts, *operands, optimize=True)[0])


def _einsum(subscripts: str, *operands) -> np.ndarray:
    """np.einsum(..., optimize=True) with the path planned once per shape."""
    path = _plan(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def cross_gains(channels: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Effective scalar gains g[k, l] = u_k^H H_kl v_l (batched)."""
    return _einsum("...ki,...klij,...lj->...kl", u.conj(), channels, v)


def _offdiag_power(g: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Leakage L_k = sum_{l != k} p_l |g_kl|^2 from a gain table."""
    k = g.shape[-1]
    pw = np.abs(g) ** 2 * powers[..., None, :]
    pw[..., np.arange(k), np.arange(k)] = 0.0
    return pw.sum(axis=-1)


def _metrics(channels, u, v, powers, noise_power=1.0):
    """(z, leakage, sinr) of combiners u and precoders v on `channels`."""
    g = cross_gains(channels, u, v)
    k = g.shape[-1]
    z = g[..., np.arange(k), np.arange(k)]
    leakage = _offdiag_power(g, powers)
    sinr = powers * np.abs(z) ** 2 / (noise_power + leakage)
    return z, leakage, sinr


def _alternate(h, p, iterations, v, update, trace=None):
    """The reciprocity loop shared by both designs; returns (u, v).

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
        t = _einsum("fklij,flj->fkli", h, v)
        q = _einsum("fkl,fkli,fklj->fkij", fwd, t, t.conj())
        return update(q, t[:, diag, diag])

    def record(u, v):
        if trace is not None:
            trace.append(_offdiag_power(cross_gains(h, u, v), p).sum(axis=-1))

    for _ in range(iterations):
        u = combiners(v)
        s = _einsum("flkij,fli->flkj", h.conj(), u)
        qr = _einsum("flk,flki,flkj->fkij", rev, s, s.conj())
        v = update(qr, s[:, diag, diag])
        record(u, v)
    u = combiners(v)
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
    h, p, v = _start(channels, powers, init_v)
    trace = [] if track_leakage else None
    if h.shape[1] == 1:
        # No interferers: any combiner is leakage-optimal, so the precoder
        # stays at its initialization and the combiner is matched to it.
        u = unit(_einsum("fkij,fkj->fki", h[:, [0], [0]], v))
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
    h, p, v = _start(channels, powers, init_v)
    u, v = _alternate(
        h, p, iterations, v,
        lambda q, d: unit(solve_posdef(np.eye(q.shape[-1]) + q, d)))
    return IaSolution(v, u, *_metrics(h, u, v, p), p)


def evaluate_true_sinr(sol: IaSolution, true_channels, powers=None,
                       noise_power: float = 1.0):
    """Post-processing SINR of a designed batch on the true channels.

    gamma_k = p_k |u_k^H H_kk v_k|^2 / (noise + sum_{l != k} p_l
    |u_k^H H_kl v_l|^2).  Returns (sinr, signal_gain, interference_power).
    """
    h = _as_batch(true_channels)
    p = _as_powers(sol.per_channel_power if powers is None else powers,
                   *h.shape[:2])
    z, interference, sinr = _metrics(h, sol.u, sol.v, p, noise_power)
    return sinr, z, interference

"""Monte Carlo link-level engine.

Each frame: draw a channel realization from its own counter-based
substream, design transceivers (and bit allocations, when loading) from
the transmitter-side estimates, push random data through the TRUE
channels with unit-variance complex AWGN, and count bit errors after
nearest-neighbor detection.  Residual cross-interference is physically
present in the received samples; receivers equalize by the true effective
scalar of their own stream only.

Frames are independent, so any partitioning across workers reproduces
the serial counts exactly.
"""

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from . import bitload
from .bitload import greedy_bitload_table
from .modem import (BerEstimate, ber_awgn_instant, minil_avg_ber,
                    shape_for_bits, svd_avg_ber, modulate, demodulate)
from .network import NetworkConfig, check_count, complex_normal, substream
from .solvers import cross_gains, maxsinr_solve_batch, minil_solve_batch
from .linalg import unit

MODE_MINIL = "minil"
MODE_MAXSINR = "maxsinr"
MODE_SVD = "svd"
MODE_ADAPTIVE = "adaptive"
RUN_MODES = (MODE_MINIL, MODE_MAXSINR, MODE_SVD, MODE_ADAPTIVE)
# Symbols per stream per frame.  A frame's data bits are one
# integers(0, 2, FRAME_USES * sum(bits)) draw, cut into its streams.  That
# equals one draw per stream for any FRAME_USES, odd products included:
# each bit takes one 32-bit word, never rejected, and the spare half of a
# 64-bit Philox output stays in the bit generator from call to call.
FRAME_USES = 100
_BLOCK_FRAMES = 25  # frames per transmit block: bounds its temporaries


def check_mode_config(cfg: NetworkConfig, mode: str, loading: bool):
    """Reject configurations a mode cannot carry, before any frame runs."""
    if mode not in RUN_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    r = cfg.total_rate
    if mode != MODE_SVD:
        if loading or mode == MODE_ADAPTIVE:
            bitload.check_rate_budget(cfg.k_pairs, r)
        elif cfg.rate_per_pair > bitload.MAX_BITS_PER_CHANNEL:
            raise ValueError(
                f"rate_per_pair {cfg.rate_per_pair} exceeds the supported "
                f"{bitload.MAX_BITS_PER_CHANNEL} bits per channel")
    if mode in (MODE_SVD, MODE_ADAPTIVE):
        if loading or mode == MODE_ADAPTIVE:
            bitload.check_rate_budget(cfg.n_min, r)
        else:
            if r % cfg.n_min:
                raise ValueError(
                    f"network rate {r} is not divisible by "
                    f"n_min={cfg.n_min}; the equal-rate benchmark "
                    "requires divisibility")
            if r // cfg.n_min > bitload.MAX_BITS_PER_CHANNEL:
                raise ValueError(
                    f"{r // cfg.n_min} bits per eigenmode exceeds the "
                    f"supported {bitload.MAX_BITS_PER_CHANNEL}")


def _transmit(gains: np.ndarray, bits: np.ndarray, powers: np.ndarray,
              rngs) -> np.ndarray:
    """Send a batch of frames over effective n x n scalar-gain networks.

    gains[f, i, j] (F, n, n) couples transmit stream j into receive stream
    i of frame f; bits and powers are (F, n).  Returns (F, n, 2) bits sent
    and bit errors per stream.  Each frame's own rngs[f] makes two calls:
    one integers(0, 2) draw of FRAME_USES * sum(bits[f]) data bits, cut
    into the streams in index order (a 0-bit stream takes none), then one
    (n, FRAME_USES) complex_normal noise block.  Frames go through in
    blocks of _BLOCK_FRAMES to bound the temporaries.
    """
    counts = np.zeros(bits.shape + (2,), dtype=np.int64)
    for lo in range(0, len(rngs), _BLOCK_FRAMES):
        blk = slice(lo, lo + _BLOCK_FRAMES)
        counts[blk] = _transmit_block(gains[blk], bits[blk], powers[blk],
                                      rngs[blk])
    return counts


def _transmit_block(gains, bits, powers, rngs) -> np.ndarray:
    """One block of _transmit: per-frame draws, then one modulate and one
    demodulate call per bit count and one stacked channel product."""
    f, n = bits.shape
    loads = [int(b) for b in np.unique(bits) if b > 0]
    # Streams carrying b bits, frame-major: the order the draws visit them.
    streams = {b: np.nonzero(bits == b) for b in loads}
    drawn = np.concatenate([rng.integers(0, 2, FRAME_USES * total)
                            for rng, total in zip(rngs, bits.sum(axis=1))])
    # Stream (f, s) takes FRAME_USES * bits[f, s] bits from its offset.
    start = FRAME_USES * (np.cumsum(bits) - bits.ravel()).reshape(f, n)
    data = {b: drawn[start[streams[b]][:, None] + np.arange(FRAME_USES * b)]
            .reshape(-1, FRAME_USES, b) for b in loads}
    noise = complex_normal(rngs, (n, FRAME_USES))

    amps = np.sqrt(powers)
    x = np.zeros((f, n, FRAME_USES), dtype=complex)
    for b in loads:
        x[streams[b]] = modulate(data[b].reshape(-1, b),
                                 shape_for_bits(b)).reshape(-1, FRAME_USES)
    r = gains @ (amps[..., None] * x) + noise

    counts = np.zeros((f, n, 2), dtype=np.int64)
    for b in loads:
        fr, st = streams[b]
        rx = demodulate(r[fr, st], gains[fr, st, st][:, None],
                        amps[fr, st][:, None], shape_for_bits(b))
        counts[fr, st, 0] = FRAME_USES * b
        counts[fr, st, 1] = (rx != data[b]).sum(axis=(1, 2))
    return counts


def _sample_frames(cfg: NetworkConfig, frame_indices):
    """Per-frame substreams and their channel draws, in draw order.

    Each frame's substream yields the estimate h_hat, then the error term
    w, then (see _draw_inits) any precoder initialisations, then the
    frame's data and noise (see _transmit): one call per draw kind.
    """
    rngs = substream(cfg.seed, frame_indices)
    shape = (cfg.k_pairs, cfg.k_pairs, cfg.nr, cfg.nt)
    h_hat = complex_normal(rngs, shape)
    w = complex_normal(rngs, shape)
    h = np.sqrt(1.0 - cfg.epsilon) * h_hat + np.sqrt(cfg.epsilon) * w
    return rngs, h_hat, h


def _draw_inits(cfg: NetworkConfig, rngs, n: int) -> np.ndarray:
    """n unit-norm precoder initialisations per frame, (F, n, K, nt).

    One complex_normal batch call per init slot, so each frame draws its
    n inits in slot order.
    """
    inits = np.empty((len(rngs), n, cfg.k_pairs, cfg.nt), dtype=complex)
    for j in range(n):
        inits[:, j] = unit(complex_normal(rngs, (cfg.k_pairs, cfg.nt)))
    return inits


@dataclass
class Design:
    """One transceiver design for a batch of frames, stream by stream.

    Stream s of frame f runs from transmitter pair[f, s] (precoder
    tx[f, s]) to receiver pair[f, s] (combiner rx[f, s]) and carries
    bits[f, s] bits at power powers[f, s].  The aligned designs send one
    stream per pair; SVD-SM sends min(nt, nr) streams over the frame's
    active pair.  `predicted` is the rate-weighted predicted BER of a
    loaded design and None for an unloaded one.
    """

    mode: str
    rx: np.ndarray          # (F, n, nr)
    tx: np.ndarray          # (F, n, nt)
    pair: np.ndarray        # (F, n)
    bits: np.ndarray        # (F, n)
    powers: np.ndarray      # (F, n)
    predicted: np.ndarray | None = None


def _ber_table(gains_sq: np.ndarray, kp: float, r: int) -> np.ndarray:
    """Per-channel BER lookup for greedy loading, (F, n, max_bits)."""
    maxb = min(r, bitload.MAX_BITS_PER_CHANNEL)
    f, n = gains_sq.shape
    table = np.empty((f, n, maxb))
    for b in range(1, maxb + 1):
        table[:, :, b - 1] = ber_awgn_instant(
            shape_for_bits(b), gains_sq * (kp / r) * b)
    return table


def _load(gains_sq: np.ndarray, kp: float, r: int):
    """Greedy bits over channels of power gain gains_sq (at power KP/R
    per bit), and each frame's predicted BER (1/R) sum_i P_b(i) b_i."""
    table = _ber_table(gains_sq, kp, r)
    bits = greedy_bitload_table(table, r)
    taken = np.take_along_axis(table, np.maximum(bits, 1)[..., None] - 1,
                               axis=2)[..., 0]
    return bits, (taken * bits).sum(axis=1) / r


def _check_finite(mode: str, sol):
    """Reject a design with non-finite vectors before any frame uses it."""
    broken = ~(np.isfinite(sol.u).all(axis=(1, 2))
               & np.isfinite(sol.v).all(axis=(1, 2)))
    if broken.any():
        raise ValueError(f"{mode} design is non-finite in {broken.sum()} "
                         f"of {len(broken)} frames")
    return sol


def _ia_design(cfg: NetworkConfig, mode: str, h_hat, init_v,
               loading: bool) -> Design:
    """MinIL or Max-SINR design, one stream per pair."""
    f, k = h_hat.shape[:2]
    kp = k * cfg.power_p
    r = cfg.total_rate
    solve = minil_solve_batch if mode == MODE_MINIL else maxsinr_solve_batch
    sol = _check_finite(mode, solve(h_hat, cfg.power_p, cfg.iterations,
                                    init_v))
    pair = np.broadcast_to(np.arange(k), (f, k))
    if not loading:
        return Design(mode, sol.u, sol.v, pair,
                      np.full((f, k), cfg.rate_per_pair),
                      np.full((f, k), float(cfg.power_p)))
    if mode == MODE_MINIL:
        # Alignment is power-scale invariant, so MinIL keeps its design.
        bits, predicted = _load(np.abs(sol.z) ** 2, kp, r)
    else:
        bits, _ = _load(sol.sinr / cfg.power_p, kp, r)
        # One re-design pass under the loaded powers, warm-started; the
        # prediction then uses the final SINRs.
        sol = _check_finite(mode, maxsinr_solve_batch(
            h_hat, kp / r * bits, cfg.iterations, sol.v))
        predicted = np.zeros(f)
        for b in range(1, bitload.MAX_BITS_PER_CHANNEL + 1):
            mask = bits == b
            if np.any(mask):
                np.add.at(predicted, np.nonzero(mask)[0],
                          ber_awgn_instant(shape_for_bits(b), sol.sinr[mask])
                          * b)
        predicted /= r
    return Design(mode, sol.u, sol.v, pair, bits, kp / r * bits, predicted)


def _svd_design(cfg: NetworkConfig, h_hat, active, loading: bool) -> Design:
    """SVD-SM over the eigenmodes of each frame's active direct channel
    estimate, at network power KP."""
    f = len(active)
    n = cfg.n_min
    kp = cfg.k_pairs * cfg.power_p
    r = cfg.total_rate
    u, s, vh = np.linalg.svd(h_hat[np.arange(f), active, active])
    rx = u[..., :n].swapaxes(1, 2)
    tx = vh[:, :n].conj()
    pair = np.repeat(active[:, None], n, axis=1)
    if not loading:
        return Design(MODE_SVD, rx, tx, pair, np.full((f, n), r // n),
                      np.full((f, n), kp / n))
    bits, predicted = _load(s[:, :n] ** 2, kp, r)
    return Design(MODE_SVD, rx, tx, pair, bits, kp / r * bits, predicted)


def _design(cfg: NetworkConfig, mode: str, loading: bool, rngs, h_hat,
            active) -> tuple[list, np.ndarray]:
    """Designs from transmitter-side knowledge, and each frame's pick.

    A fixed mode returns its one design and picks it for every frame.
    Adaptive returns the loaded Max-SINR, SVD-SM and MinIL designs and
    picks, per frame, the one with the lowest predicted BER; argmin keeps
    the first of equal values, so ties go in that order.  Adaptive draws
    MinIL's precoder initialisation before Max-SINR's.
    """
    adaptive = mode == MODE_ADAPTIVE
    modes = (MODE_MAXSINR, MODE_SVD, MODE_MINIL) if adaptive else (mode,)
    loading = loading or adaptive
    inits = _draw_inits(cfg, rngs,
                        (MODE_MINIL in modes) + (MODE_MAXSINR in modes))
    designs = []
    for m in modes:
        if m == MODE_SVD:
            designs.append(_svd_design(cfg, h_hat, active, loading))
        else:
            init_v = inits[:, 0] if m == MODE_MINIL else inits[:, -1]
            designs.append(_ia_design(cfg, m, h_hat, init_v, loading))
    if adaptive:
        pick = np.argmin(np.stack([d.predicted for d in designs]), axis=0)
    else:
        pick = np.zeros(len(rngs), dtype=int)
    return designs, pick


def _stream_gains(h: np.ndarray, design: Design, rows) -> np.ndarray:
    """Effective gains of the given frames' streams on the true channels.

    gains[f, i, j] = rx_i^H H[pair_i, pair_j] tx_j couples stream j into
    stream i of frame rows[f].
    """
    pair = design.pair[rows]
    h = h[rows[:, None, None], pair[:, :, None], pair[:, None, :]]
    return cross_gains(h, design.rx[rows], design.tx[rows])


def run_frames(cfg: NetworkConfig, mode: str, frame_indices,
               loading: bool = False) -> np.ndarray:
    """Simulate the given frames; returns (F, K, 2) bits/errors per pair.

    Entry [f, k] holds the bits pair k sent in frame f and its bit errors;
    the bits are FRAME_USES times the bits of the streams the frame's
    design gives pair k.  The active pair of the single-pair benchmark
    rotates with the frame index.  Counts are identical however frames
    are split across calls.
    """
    check_mode_config(cfg, mode, loading)
    frame_indices = [int(i) for i in frame_indices]
    if not frame_indices:
        return np.zeros((0, cfg.k_pairs, 2), dtype=np.int64)
    rngs, h_hat, h = _sample_frames(cfg, frame_indices)
    active = np.array(frame_indices) % cfg.k_pairs
    designs, pick = _design(cfg, mode, loading, rngs, h_hat, active)

    out = np.zeros((len(rngs), cfg.k_pairs, 2), dtype=np.int64)
    for j, design in enumerate(designs):
        rows = np.flatnonzero(pick == j)
        if not rows.size:
            continue
        counts = _transmit(_stream_gains(h, design, rows), design.bits[rows],
                           design.powers[rows], [rngs[i] for i in rows])
        np.add.at(out, (rows[:, None], design.pair[rows]), counts)
    return out


def _run_range(args):
    cfg, mode, start, stop, loading = args
    counts = run_frames(cfg, mode, range(start, stop), loading)
    return counts.sum(axis=1)


def estimate_ber(cfg: NetworkConfig, mode: str, snr_db: float,
                 target_errors: int = 200, max_bits: int = 20_000_000,
                 loading: bool = False, chunk_frames: int = 400,
                 workers: int = 1) -> BerEstimate:
    """Accumulate frames until enough errors (or the bit cap) is reached.

    Deterministic for a fixed (cfg.seed, target_errors, max_bits,
    chunk_frames) regardless of worker count: stopping is evaluated at
    fixed chunk boundaries and every frame's counts depend only on its
    own substream.  The confidence interval is cluster-robust over
    frames, since all the bits of one frame share a channel draw.
    """
    check_count("target_errors", target_errors)
    check_count("max_bits", max_bits)
    check_count("chunk_frames", chunk_frames)
    check_count("workers", workers)
    power = 10.0 ** (snr_db / 10.0)
    cfg = replace(cfg, power_p=power)
    check_mode_config(cfg, mode, loading)
    per_frame = []
    bits = errors = 0
    start = 0
    while errors < target_errors and bits < max_bits:
        stop = start + chunk_frames
        if workers > 1:
            bounds = np.linspace(start, stop, workers + 1, dtype=int)
            jobs = [(cfg, mode, int(a), int(b), loading)
                    for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                chunk = np.vstack(list(pool.map(_run_range, jobs)))
        else:
            chunk = run_frames(cfg, mode, range(start, stop),
                               loading).sum(axis=1)
        per_frame.append(chunk)
        bits += int(chunk[:, 0].sum())
        errors += int(chunk[:, 1].sum())
        start = stop
    frames = np.vstack(per_frame)
    p_hat = errors / bits
    resid = frames[:, 1] - p_hat * frames[:, 0]
    ratio_var = float((resid**2).sum() / bits**2)
    return BerEstimate(bits_sent=bits, bit_errors=errors,
                       ratio_var=ratio_var)


def fig1_stats(cfg: NetworkConfig, p_grid, frames: int = 10_000) -> list:
    """Average desired-signal and interference power of the SINR design.

    For each power on the grid: mean |z|^2 and mean per-pair leakage over
    `frames` Monte Carlo frames, alongside the aligned-design baseline
    (unit power) and the matched-beamforming ceiling estimated by
    singular-value sampling of the same frames' direct channels.
    """
    rngs, h_hat, h = _sample_frames(cfg, range(frames))
    init_x = _draw_inits(cfg, rngs, 1)[:, 0]
    k = cfg.k_pairs
    direct = h_hat[:, np.arange(k), np.arange(k)]
    smax = np.linalg.svd(direct.reshape(-1, cfg.nr, cfg.nt),
                         compute_uv=False)[:, 0]
    e_sigma_max_sq = float(np.mean(smax**2))
    rows = []
    for p in p_grid:
        sol = maxsinr_solve_batch(h_hat, float(p), cfg.iterations, init_x)
        rows.append({
            "power": float(p),
            "avg_desired_power": float(np.mean(np.abs(sol.z) ** 2)),
            "avg_interference": float(np.mean(sol.leakage)),
            "minil_baseline": 1.0,
            "beamforming_power": e_sigma_max_sq,
        })
    return rows


def analytic_ber(cfg: NetworkConfig, mode: str, snr_db: float,
                 loading: bool) -> float | None:
    """Closed-form average BER where one exists (unloaded MinIL / SVD-SM)."""
    if loading or mode not in (MODE_MINIL, MODE_SVD):
        return None
    p = 10.0 ** (snr_db / 10.0)
    if mode == MODE_MINIL:
        shape = shape_for_bits(cfg.rate_per_pair)
        return minil_avg_ber(shape, p, cfg.epsilon, cfg.k_pairs)
    if cfg.epsilon >= 1.0:
        return None
    shape = shape_for_bits(cfg.total_rate // cfg.n_min)
    return svd_avg_ber(shape, cfg.k_pairs * p, cfg.n_min, cfg.n_max,
                       cfg.epsilon)


def sweep(cfg: NetworkConfig, snr_grid, eps_grid, modes, loading_flags,
          target_errors: int = 200, max_bits: int = 20_000_000,
          workers: int = 1) -> list:
    """Cross product of settings -> one BER estimate row per cell."""
    snr_grid = list(snr_grid)
    eps_grid = list(eps_grid)
    modes = list(modes)
    loading_flags = list(loading_flags)
    if not (snr_grid and eps_grid and modes and loading_flags):
        raise ValueError("sweep grids must be nonempty")
    rows = []
    for eps in eps_grid:
        cfg_e = replace(cfg, epsilon=float(eps))
        for mode in modes:
            for loading in loading_flags:
                if mode == MODE_ADAPTIVE and not loading:
                    continue  # adaptive is defined over the loaded modes
                for snr_db in snr_grid:
                    est = estimate_ber(cfg_e, mode, snr_db,
                                       target_errors=target_errors,
                                       max_bits=max_bits, loading=loading,
                                       workers=workers)
                    ana = analytic_ber(cfg_e, mode, snr_db, loading)
                    rows.append({
                        "mode": mode,
                        "loading": int(loading),
                        "K": cfg.k_pairs,
                        "nt": cfg.nt,
                        "nr": cfg.nr,
                        "snr_db": float(snr_db),
                        "epsilon": float(eps),
                        "bits": est.bits_sent,
                        "errors": est.bit_errors,
                        "ber": est.estimate,
                        "ci95": est.ci95,
                        "analytic_ber": ana,
                    })
    return rows

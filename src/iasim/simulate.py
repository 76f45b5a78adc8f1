"""Monte Carlo link-level engine.

A frame passes three stages.  Sample: draw channels and precoder inits
from the frame's own counter-based substream (_sample_frames).  Design:
build transceivers, and bit allocations when loading, from the
transmitter-side estimates, drawing nothing (_design).  Transmit: push
random data through the TRUE channels with unit-variance complex AWGN
and count bit errors after nearest-neighbor detection (_transmit).
Residual cross-interference is physically present in the received
samples; receivers equalize by the true effective scalar of their own
stream only.  A cell's estimate runs frames in fixed chunks and applies
its stop rule after each chunk.

Frames are independent, so any partitioning across workers reproduces
the serial counts exactly.  A sweep runs on one pool of worker
processes, opened once for the whole grid, where every cell's chain of
chunks is in flight at once; _estimates states the scheduling rule.
"""

import concurrent.futures
import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import bitload
from .bitload import greedy_bitload_table
from .modem import (MAX_BITS, BerEstimate, ber_awgn_instant, minil_avg_ber,
                    svd_avg_ber, bit_errors, modulate, demodulate)
from .network import (NetworkConfig, check_count, complex_normal,
                      random_bits, substream)
from .solvers import cross_gains, maxsinr_solve_batch, minil_solve_batch
from .linalg import unit

MODE_MINIL = "minil"
MODE_MAXSINR = "maxsinr"
MODE_SVD = "svd"
MODE_ADAPTIVE = "adaptive"
RUN_MODES = (MODE_MINIL, MODE_MAXSINR, MODE_SVD, MODE_ADAPTIVE)
# Symbols per stream per frame; even, since random_bits draws bits in pairs.
FRAME_USES = 100
_BLOCK_FRAMES = 25  # frames per transmit block: bounds its temporaries
_CHUNK_FRAMES = 400  # frames between stop-rule checks


def check_mode_config(cfg: NetworkConfig, mode: str, loading: bool):
    """Reject configurations a mode cannot carry, before any frame runs.

    Adaptive picks among the loaded designs, so it needs loading.  The
    aligned modes carry the network rate R over K channels and SVD-SM
    over n_min eigenmodes; adaptive carries it over both.  A channel
    holds at most MAX_BITS bits: an even split R / n of integer rates is
    at most MAX_BITS exactly when R <= n * MAX_BITS.
    """
    if mode not in RUN_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {RUN_MODES}")
    if mode == MODE_ADAPTIVE and not loading:
        raise ValueError("adaptive needs loading (it picks a loaded design)")
    r = cfg.total_rate
    if mode == MODE_SVD and not loading and r % cfg.n_min:
        raise ValueError(
            f"network rate {r} is not divisible by n_min={cfg.n_min}; "
            "the equal-rate benchmark requires divisibility")
    if mode != MODE_SVD:
        bitload.check_rate_budget(cfg.k_pairs, r)
    if mode in (MODE_SVD, MODE_ADAPTIVE):
        bitload.check_rate_budget(cfg.n_min, r)


def _transmit(gains: np.ndarray, bits: np.ndarray, powers: np.ndarray,
              rngs) -> np.ndarray:
    """Send a batch of frames over effective n x n scalar-gain networks.

    gains[f, i, j] (F, n, n) couples transmit stream j into receive stream
    i of frame f; bits and powers are (F, n).  Returns (F, n, 2) bits sent
    and bit errors per stream.  Each frame's own rngs[f] makes two calls:
    FRAME_USES * sum(bits[f]) random_bits, cut into the streams in index
    order (a 0-bit stream takes none), then one (n, FRAME_USES)
    complex_normal noise block.  Frames go through in blocks of
    _BLOCK_FRAMES to bound the temporaries.
    """
    counts = np.zeros(bits.shape + (2,), dtype=np.int64)
    for lo in range(0, len(rngs), _BLOCK_FRAMES):
        blk = slice(lo, lo + _BLOCK_FRAMES)
        counts[blk] = _transmit_block(gains[blk], bits[blk], powers[blk],
                                      rngs[blk])
    return counts


def _pack(data: np.ndarray) -> np.ndarray:
    """Labels of (..., b) bits, most significant bit first."""
    labels = data[..., 0].copy()
    for k in range(1, data.shape[-1]):
        labels <<= 1
        labels |= data[..., k]
    return labels


def _transmit_block(gains, bits, powers, rngs) -> np.ndarray:
    """One block of _transmit: per-frame draws, then one modulate and one
    demodulate call per bit count and one stacked channel product."""
    f, n = bits.shape
    loads = [int(b) for b in np.unique(bits) if b > 0]
    # Streams carrying b bits, frame-major: the order the draws visit them.
    streams = {b: np.nonzero(bits == b) for b in loads}
    drawn = random_bits(rngs, FRAME_USES * bits.sum(axis=1))
    # Stream (f, s) takes FRAME_USES * bits[f, s] bits from its offset.
    start = FRAME_USES * (np.cumsum(bits) - bits.ravel()).reshape(f, n)
    sent = {}
    x = np.zeros((f, n, FRAME_USES), dtype=complex)
    for b in loads:
        data = drawn[start[streams[b]][:, None] + np.arange(FRAME_USES * b)]
        sent[b] = _pack(data.reshape(-1, FRAME_USES, b))
        x[streams[b]] = modulate(sent[b], b)
    noise = complex_normal(rngs, (n, FRAME_USES))

    amps = np.sqrt(powers)
    r = gains @ (amps[..., None] * x) + noise

    counts = np.zeros((f, n, 2), dtype=np.int64)
    for b in loads:
        fr, st = streams[b]
        rx = demodulate(r[fr, st], gains[fr, st, st][:, None],
                        amps[fr, st][:, None], b)
        counts[fr, st, 0] = FRAME_USES * b
        counts[fr, st, 1] = bit_errors(sent[b], rx).sum(axis=1)
    return counts


def _sample_frames(cfg: NetworkConfig, frame_indices, n_inits: int):
    """Per-frame substreams and every draw made before the design.

    Returns (rngs, h_hat, h, inits), inits a list of n_inits unit-norm
    (F, K, nt) precoder inits.  Of a frame's three substream calls, this
    is the first: one standard_normal call yields the estimate h_hat, the
    error term w and the inits, in that order.  _transmit makes the other
    two, data bits and noise, since their sizes follow the design.
    """
    rngs = substream(cfg.seed, frame_indices)
    shape = (cfg.k_pairs, cfg.k_pairs, cfg.nr, cfg.nt)
    h_hat, w, *inits = complex_normal(rngs, shape, shape,
                                      *[(cfg.k_pairs, cfg.nt)] * n_inits)
    h = np.sqrt(1.0 - cfg.epsilon) * h_hat
    h += np.sqrt(cfg.epsilon) * w  # in place: one fewer full-size temporary
    return rngs, h_hat, h, [unit(v) for v in inits]


def _init_slots(mode: str) -> list:
    """The aligned modes that draw a precoder init in `mode`, MinIL's first."""
    return [m for m in (MODE_MINIL, MODE_MAXSINR)
            if mode in (m, MODE_ADAPTIVE)]


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

    rx: np.ndarray          # (F, n, nr)
    tx: np.ndarray          # (F, n, nt)
    pair: np.ndarray        # (F, n)
    bits: np.ndarray        # (F, n)
    powers: np.ndarray      # (F, n)
    predicted: np.ndarray | None = None


def _ber_table(gains_sq: np.ndarray, kp: float, r: int) -> np.ndarray:
    """Per-channel BER lookup for greedy loading, (F, n, max_bits)."""
    maxb = min(r, MAX_BITS)
    f, n = gains_sq.shape
    table = np.empty((f, n, maxb))
    for b in range(1, maxb + 1):
        table[:, :, b - 1] = ber_awgn_instant(b, gains_sq * (kp / r) * b)
    return table


def _predicted(bits: np.ndarray, snr: np.ndarray, r: int) -> np.ndarray:
    """Each frame's predicted BER (1/R) sum_i P_b(snr_i) b_i, (F,), for
    channels carrying bits[f, i] bits at symbol SNR snr[f, i]."""
    contrib = np.zeros(bits.shape)
    for b in [int(b) for b in np.unique(bits) if b > 0]:
        mask = bits == b
        contrib[mask] = ber_awgn_instant(b, snr[mask]) * b
    return contrib.sum(axis=1) / r


def _check_finite(mode: str, sol):
    """Reject a design with non-finite vectors before any frame uses it."""
    broken = ~(np.isfinite(sol.u).all(axis=(1, 2))
               & np.isfinite(sol.v).all(axis=(1, 2)))
    if broken.any():
        raise ValueError(f"{mode} design is non-finite in {broken.sum()} "
                         f"of {len(broken)} frames")
    return sol


def _stream_design(cfg: NetworkConfig, mode: str, h_hat, active, init_v,
                   loading: bool) -> Design:
    """One fixed mode's design from the estimates h_hat, loaded or not.

    MinIL and Max-SINR solve from init_v and send one stream per pair at
    power P; SVD-SM sends n_min streams over the eigenmodes of each
    frame's active direct estimate at power KP / n_min.  Unloaded, every
    stream carries R / n bits.  Loaded, greedy bits go on the channels'
    power gains at power KP/R per bit: |z|^2 for MinIL (alignment is
    power-scale invariant, so MinIL keeps its design), SINR/P for
    Max-SINR and sigma^2 for SVD-SM.  Max-SINR is then re-designed once
    under the loaded powers, warm-started, and predicts from its final
    SINRs.
    """
    f = len(h_hat)
    kp = cfg.k_pairs * cfg.power_p
    r = cfg.total_rate
    if mode == MODE_SVD:
        n, power = cfg.n_min, kp / cfg.n_min
        u, s, vh = np.linalg.svd(h_hat[np.arange(f), active, active])
        rx, tx = u[..., :n].swapaxes(1, 2), vh[:, :n].conj()
        pair = np.repeat(active[:, None], n, axis=1)
        gains_sq = s[:, :n] ** 2
    else:
        n, power = cfg.k_pairs, float(cfg.power_p)
        solve = (minil_solve_batch if mode == MODE_MINIL
                 else maxsinr_solve_batch)
        sol = _check_finite(mode, solve(h_hat, cfg.power_p, cfg.iterations,
                                        init_v))
        rx, tx = sol.u, sol.v
        pair = np.broadcast_to(np.arange(n), (f, n))
        gains_sq = (np.abs(sol.z) ** 2 if mode == MODE_MINIL
                    else sol.sinr / cfg.power_p)
    if not loading:
        return Design(rx, tx, pair, np.full((f, n), r // n),
                      np.full((f, n), power))
    bits = greedy_bitload_table(_ber_table(gains_sq, kp, r), r)
    snr = gains_sq * (kp / r) * bits
    if mode == MODE_MAXSINR:
        sol = _check_finite(mode, maxsinr_solve_batch(
            h_hat, kp / r * bits, cfg.iterations, sol.v))
        rx, tx, snr = sol.u, sol.v, sol.sinr
    return Design(rx, tx, pair, bits, kp / r * bits, _predicted(bits, snr, r))


def _design(cfg: NetworkConfig, mode: str, loading: bool, h_hat, active,
            inits) -> tuple[list, np.ndarray]:
    """Designs from transmitter-side knowledge, and each frame's pick.

    The design stage of a frame, after its channels are sampled and
    before its data is transmitted, with one init per _init_slots(mode).
    A fixed mode returns its one design and picks it for every frame.
    Adaptive returns the loaded Max-SINR, SVD-SM and MinIL designs and
    picks, per frame, the one with the lowest predicted BER; argmin keeps
    the first of equal values, so ties go in that order.
    """
    adaptive = mode == MODE_ADAPTIVE
    modes = (MODE_MAXSINR, MODE_SVD, MODE_MINIL) if adaptive else (mode,)
    init_of = dict(zip(_init_slots(mode), inits, strict=True))
    designs = [_stream_design(cfg, m, h_hat, active, init_of.get(m),
                              loading) for m in modes]
    if adaptive:
        pick = np.argmin(np.stack([d.predicted for d in designs]), axis=0)
    else:
        pick = np.zeros(len(h_hat), dtype=int)
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
    rngs, h_hat, h, inits = _sample_frames(cfg, frame_indices,
                                           len(_init_slots(mode)))
    active = np.array(frame_indices) % cfg.k_pairs
    designs, pick = _design(cfg, mode, loading, h_hat, active, inits)

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


def snr_power(snr_db: float) -> float:
    """Per-transmitter linear power P of an SNR in dB.

    Raises ValueError unless P is finite and positive: a finite dB value
    can still overflow to inf or underflow to 0.
    """
    try:
        p = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        p = math.inf
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"snr_db {snr_db} gives power_p {p}, not a finite "
                         "positive power")
    return p


def sweep_cells(cfg: NetworkConfig, snr_grid, eps_grid, modes,
                loading_flags) -> list:
    """The one cell plan: checked (cell_cfg, mode, loading, snr_db) cells
    in grid order, epsilon outermost and SNR innermost.

    cell_cfg is cfg at the cell's epsilon and SNR power, checked against
    its mode before any frame runs.  Adaptive is skipped at loading=0
    only when the grid also holds loading=1; otherwise the check rejects.
    A grid that repeats a value is rejected: it would run the same cells
    twice.
    """
    grids = [list(g) for g in (snr_grid, eps_grid, modes, loading_flags)]
    if not all(grids):
        raise ValueError("sweep grids must be nonempty")
    for name, grid in zip(("snr_db", "epsilon", "modes", "loading"), grids):
        repeated = [x for i, x in enumerate(grid) if x in grid[:i]]
        if repeated:
            raise ValueError(f"{name} grid repeats {repeated[0]}")
    snr_grid, eps_grid, modes, loading_flags = grids
    cells = []
    for eps in eps_grid:
        cfg_e = replace(cfg, epsilon=float(eps))
        for mode in modes:
            for loading in loading_flags:
                if mode == MODE_ADAPTIVE and not loading and any(
                        loading_flags):
                    continue
                for snr_db in snr_grid:
                    cell_cfg = replace(cfg_e, power_p=snr_power(snr_db))
                    check_mode_config(cell_cfg, mode, loading)
                    cells.append((cell_cfg, mode, loading, float(snr_db)))
    return cells


class _Inline(concurrent.futures.Executor):
    """The one-worker executor: runs each job in this process as it is
    submitted."""

    def submit(self, fn, /, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@contextlib.contextmanager
def _executor(workers: int):
    """One executor for all the cells: inline for one worker, else a pool
    of `workers` processes, which fork at its first submit.  The pool
    class is looked up at call time, so a profiler that swaps
    concurrent.futures.ProcessPoolExecutor sees every pool.  On any
    exception, KeyboardInterrupt included, the queued chunks are
    cancelled before the pool waits for its workers, so the error
    reaches the caller without running the rest of the grid."""
    if workers == 1:
        yield _Inline()
        return
    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _estimates(cells, workers: int, target_errors: int, max_bits: int,
               chunk_frames: int) -> list:
    """BER estimate of each sweep_cells cell, in order.

    Each cell is a chain of chunks of chunk_frames frames that ends once
    the cell has target_errors errors or max_bits bits.  A cell's next
    chunk is submitted only after its last one is back and the stop rule
    says go on, so no frame runs ahead of the rule; the chains of all
    cells are in flight together on one executor (_executor).  A chunk
    is one job while at least `workers` cells are still running, and is
    split into `workers` frame ranges once fewer are (a one-cell
    estimate, the tail of a grid).  The estimates come back in grid
    order.  The confidence interval is cluster-robust over frames, since
    all the bits of one frame share a channel draw.
    """
    check_count("target_errors", target_errors)
    check_count("max_bits", max_bits)
    check_count("chunk_frames", chunk_frames)
    check_count("workers", workers)
    counts = [np.zeros((0, 2), dtype=np.int64) for _ in cells]  # per frame
    parts = {}      # cell -> the futures of its chunk in flight, in order
    ests = [None] * len(cells)
    running = len(cells)
    with _executor(workers) as pool:

        def submit(i):
            cfg, mode, loading, _ = cells[i]
            start = len(counts[i])
            n = 1 if running >= workers else workers
            bounds = np.linspace(start, start + chunk_frames, n + 1,
                                 dtype=int)
            parts[i] = [pool.submit(_run_range,
                                    (cfg, mode, int(a), int(b), loading))
                        for a, b in zip(bounds[:-1], bounds[1:]) if a < b]

        for i in range(len(cells)):
            submit(i)
        while parts:
            concurrent.futures.wait(
                [f for fs in parts.values() for f in fs if not f.done()],
                return_when=concurrent.futures.FIRST_COMPLETED)
            for i in [i for i, fs in parts.items()
                      if all(f.done() for f in fs)]:
                counts[i] = np.vstack([counts[i]]
                                      + [f.result() for f in parts.pop(i)])
                bits, errors = (int(x) for x in counts[i].sum(axis=0))
                if errors < target_errors and bits < max_bits:
                    submit(i)
                    continue
                running -= 1
                frames, counts[i] = counts[i], None  # keep only the estimate
                resid = frames[:, 1] - errors / bits * frames[:, 0]
                ests[i] = BerEstimate(bits_sent=bits, bit_errors=errors,
                                      ratio_var=float((resid**2).sum()
                                                      / bits**2))
    return ests


def estimate_ber(cfg: NetworkConfig, mode: str, snr_db: float,
                 target_errors: int = 200, max_bits: int = 20_000_000,
                 loading: bool = False, chunk_frames: int = _CHUNK_FRAMES,
                 workers: int = 1) -> BerEstimate:
    """Accumulate frames until enough errors (or the bit cap) is reached.

    Deterministic for a fixed (cfg.seed, target_errors, max_bits,
    chunk_frames) regardless of worker count: stopping is evaluated at
    fixed chunk boundaries and every frame's counts depend only on its
    own substream.  With workers > 1 each chunk is split into `workers`
    frame ranges on one pool opened for this call.  Equals the one-cell
    sweep at cfg.epsilon and the same stop rule.
    """
    cells = sweep_cells(cfg, [snr_db], [cfg.epsilon], [mode], [loading])
    return _estimates(cells, workers, target_errors, max_bits,
                      chunk_frames)[0]


def _fig1_frames(args):
    """Per-frame values behind the fig1 table for frames start..stop-1:
    sigma_max of each direct channel, and |z|^2 and leakage per power
    and pair, (P, K, F).  Pair-major is the solvers' own memory order, in
    which a whole-batch mean sums them."""
    cfg, p_grid, start, stop = args
    _, h_hat, _, (init_x,) = _sample_frames(cfg, range(start, stop), 1)
    k = cfg.k_pairs
    direct = h_hat[:, np.arange(k), np.arange(k)]
    smax = np.linalg.svd(direct.reshape(-1, cfg.nr, cfg.nt),
                         compute_uv=False)[:, 0]
    sols = [maxsinr_solve_batch(h_hat, p, cfg.iterations, init_x)
            for p in p_grid]
    return (smax, np.array([(np.abs(sol.z) ** 2).T for sol in sols]),
            np.array([sol.leakage.T for sol in sols]))


def fig1_stats(cfg: NetworkConfig, p_grid, frames: int = 10_000,
               workers: int = 1) -> list:
    """Average desired-signal and interference power of the SINR design.

    For each power on the grid: mean |z|^2 and mean per-pair leakage over
    `frames` Monte Carlo frames, alongside the aligned-design baseline
    (unit power) and the matched-beamforming ceiling estimated by
    singular-value sampling of the same frames' direct channels.  With
    workers > 1 the frames are split into `workers` ranges on one pool.
    Each mean is taken once, over the per-frame values of each pair in
    frame order, pair after pair, so the rows do not depend on the worker
    count.
    """
    check_count("frames", frames)
    check_count("workers", workers)
    p_grid = [float(p) for p in p_grid]
    bounds = np.linspace(0, frames, min(workers, frames) + 1, dtype=int)
    with _executor(workers) as pool:
        parts = [pool.submit(_fig1_frames, (cfg, p_grid, int(a), int(b)))
                 for a, b in zip(bounds[:-1], bounds[1:])]
        smax, z2, leakage = zip(*(part.result() for part in parts))
    e_sigma_max_sq = float(np.mean(np.concatenate(smax) ** 2))
    return [{
        "power": p,
        "avg_desired_power": float(np.mean(z2_p)),
        "avg_interference": float(np.mean(leakage_p)),
        "minil_baseline": 1.0,
        "beamforming_power": e_sigma_max_sq,
    } for p, z2_p, leakage_p in zip(p_grid, np.concatenate(z2, axis=-1),
                                    np.concatenate(leakage, axis=-1))]


def analytic_ber(cfg: NetworkConfig, mode: str, snr_db: float,
                 loading: bool) -> float | None:
    """Closed-form average BER where one exists (unloaded MinIL / SVD-SM)."""
    if loading or mode not in (MODE_MINIL, MODE_SVD):
        return None
    p = snr_power(snr_db)
    if mode == MODE_MINIL:
        return minil_avg_ber(cfg.rate_per_pair, p, cfg.epsilon, cfg.k_pairs)
    if cfg.epsilon >= 1.0:
        return None
    return svd_avg_ber(cfg.total_rate // cfg.n_min, cfg.k_pairs * p,
                       cfg.n_min, cfg.n_max, cfg.epsilon)


def sweep(cfg: NetworkConfig, snr_grid, eps_grid, modes, loading_flags,
          target_errors: int = 200, max_bits: int = 20_000_000,
          workers: int = 1) -> list:
    """Cross product of settings -> one BER estimate row per cell.

    sweep_cells, the one cell plan, checks every cell before any frame
    runs.  With workers > 1 the cells then run on one pool of `workers`
    processes, as chains of chunks in flight together (see _estimates);
    the counts equal the serial ones, and the rows come in grid order.
    """
    cells = sweep_cells(cfg, snr_grid, eps_grid, modes, loading_flags)
    ests = _estimates(cells, workers, target_errors, max_bits, _CHUNK_FRAMES)
    return [{
        "mode": mode,
        "loading": int(loading),
        "K": cfg.k_pairs,
        "nt": cfg.nt,
        "nr": cfg.nr,
        "snr_db": snr_db,
        "epsilon": cell_cfg.epsilon,
        "bits": est.bits_sent,
        "errors": est.bit_errors,
        "ber": est.estimate,
        "ci95": est.ci95,
        "analytic_ber": analytic_ber(cell_cfg, mode, snr_db, loading),
    } for (cell_cfg, mode, loading, snr_db), est in zip(cells, ests)]

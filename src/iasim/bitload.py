"""Greedy per-channel bit allocation.

For a total rate of R bits per channel use, every bit carries power
KP/R, so a channel loaded with b bits transmits at power (KP/R)*b with a
unit-energy constellation.  Bits are placed one at a time on whichever
equivalent channel minimizes the rate-weighted average of the per-channel
bit error probabilities; the procedure terminates after exactly R steps.
"""

import numpy as np

from .modem import MAX_BITS


def check_rate_budget(n_channels: int, total_rate: int):
    if total_rate < 1:
        raise ValueError("total rate must be >= 1")
    if total_rate > n_channels * MAX_BITS:
        raise ValueError(
            f"rate {total_rate} over {n_channels} channels would force "
            f"constellations beyond {2**MAX_BITS}-QAM")


def greedy_bitload_table(ber_table: np.ndarray, total_rate: int) -> np.ndarray:
    """Vectorized greedy allocation for a batch of frames.

    ber_table has shape (F, n_channels, max_bits) with entry [f, i, b-1]
    the bit error probability of channel i at b bits.  Each step adds, per
    frame, the one bit that minimizes sum_i ber_table[f, i, b_i-1] * b_i;
    ties go to the lowest channel index.  Returns (F, n_channels) bit
    counts.
    """
    f, n, maxb = ber_table.shape
    check_rate_budget(n, total_rate)
    if maxb < min(total_rate, MAX_BITS):
        raise ValueError("ber_table does not cover enough bit levels")
    if not np.all(np.isfinite(ber_table)):
        raise ValueError("ber_table contains non-finite entries")
    bits = np.zeros((f, n), dtype=int)
    contrib = np.zeros((f, n))
    rows = np.arange(f)
    for _ in range(total_rate):
        nxt = np.minimum(bits + 1, maxb)
        cand_p = np.take_along_axis(ber_table, nxt[..., None] - 1,
                                    axis=2)[..., 0]
        cand = contrib.sum(axis=1, keepdims=True) - contrib + cand_p * nxt
        cand = np.where(bits >= MAX_BITS, np.inf, cand)
        best = np.argmin(cand, axis=1)
        bits[rows, best] += 1
        contrib[rows, best] = (
            ber_table[rows, best, bits[rows, best] - 1] * bits[rows, best])
    return bits

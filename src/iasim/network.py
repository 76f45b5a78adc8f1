"""Interference-network configuration and random channel generation.

A network has K transmit/receive pairs; the matrix between transmitter l
and receiver k is an nr x nt grid entry with i.i.d. unit-variance complex
Gaussian elements.  Transmitter-side channel knowledge may be degraded:
the true channel is composed from an estimate and an independent error
term, h = sqrt(1-eps)*h_hat + sqrt(eps)*w.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def is_integer(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value):
    """Reject a size, count or iteration budget that is not an integer >= 1."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class NetworkConfig:
    """Full parameterization of one simulated network."""

    k_pairs: int = 3
    nt: int = 2
    nr: int = 2
    power_p: float = 10.0          # per-transmitter power, linear
    rate_per_pair: int = 2         # bits per channel use per pair
    epsilon: float = 0.0           # CSIT uncertainty in [0, 1]
    iterations: int = 100          # solver iteration budget
    seed: int = 0

    def __post_init__(self):
        for name in ("k_pairs", "nt", "nr", "rate_per_pair", "iterations"):
            check_count(name, getattr(self, name))
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError(
                f"seed must be an integer >= 0, got {self.seed!r}")
        if not math.isfinite(self.power_p):
            raise ValueError(f"power_p must be finite, got {self.power_p}")
        if self.power_p <= 0:
            raise ValueError("power_p must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @property
    def total_rate(self) -> int:
        """Network sum rate R = K * rate_per_pair (bits per channel use)."""
        return self.k_pairs * self.rate_per_pair

    @property
    def is_proper(self) -> bool:
        """Single-stream alignment counting condition nt + nr >= K + 1.

        Exposed as a diagnostic only; solvers run regardless.
        """
        return self.nt + self.nr >= self.k_pairs + 1

    @property
    def n_min(self) -> int:
        return min(self.nt, self.nr)

    @property
    def n_max(self) -> int:
        return max(self.nt, self.nr)


# SeedSequence's hash (numpy.random.bit_generator), for deriving a batch
# of frame keys at once.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_SHIFT = np.uint32(16)


def _words(n: int) -> list:
    """The 32-bit words of a non-negative integer, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's running hash: each call hashes one word array."""
    const = init

    def hashed(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    return hashed


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _pool_keys(entropy: list) -> np.ndarray:
    """Philox keys, (G, 2) uint64, of G entropy word rows given as columns.

    Each column is a uint32 array broadcasting to (G,); the steps are
    SeedSequence's mix_entropy, then generate_state(2, np.uint64).
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashout = _hasher(_INIT_B, _MULT_B)
    state = [hashout(word).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def _philox_keys(seed: int, indices: list) -> np.ndarray:
    """(F, 2) keys equal to SeedSequence(entropy=seed, spawn_key=(i,))
    .generate_state(2, np.uint64) for each index i.

    A spawn key follows the seed's words, which are zero-padded to the
    pool size.  Indices are grouped by their number of 32-bit words.
    """
    if indices and min(indices) < 0:
        raise ValueError(f"frame index must be >= 0, got {min(indices)}")
    run = _words(seed)
    run = [np.array([w], np.uint32) for w in run + [0] * (_POOL - len(run))]
    keys = np.empty((len(indices), 2), np.uint64)
    groups = {}
    for row, i in enumerate(indices):
        groups.setdefault(len(_words(i)), []).append(row)
    for rows in groups.values():
        words = np.array([_words(indices[r]) for r in rows], np.uint32)
        keys[rows] = _pool_keys(run + list(words.T))
    return keys


class _PhiloxKey(ISeedSequence):
    """A derived Philox key, handed to Philox as its seed sequence."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (2, np.uint64):
            raise ValueError("a Philox key is two 64-bit words")
        return self.key


def substream(seed: int, indices) -> list:
    """Independent counter-based random streams, one per frame index.

    Frame i's stream is Philox keyed as by
    SeedSequence(entropy=seed, spawn_key=(i,)), so any partitioning of
    frames across workers reproduces the serial draw sequence bit-exactly.
    The keys of the whole batch are derived in one vectorised pass of
    SeedSequence's hash.  Each frame's generator then makes three calls:
    one standard_normal for h_hat, w and the precoder inits, one
    random_raw for the data bits, and one standard_normal for the noise.
    """
    indices = [operator.index(i) for i in indices]
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key)))
            for key in _philox_keys(seed, indices)]


def complex_normal(rngs, *shapes):
    """Circularly-symmetric complex Gaussians, unit variance per entry:
    an (F,) + shape array per shape, row f from per-frame generator
    rngs[f], which makes one standard_normal call: each shape's real
    parts, then its imaginary parts, shape by shape, as one call per shape
    would draw them.  One shape returns one array, several a list.  Scaling
    by 1/sqrt(2) gives the same bits as dividing the complex draw by sqrt(2).
    """
    shapes = [(s,) if np.ndim(s) == 0 else tuple(s) for s in shapes]
    ends = np.cumsum([0] + [2 * math.prod(s) for s in shapes])
    parts = np.empty((len(rngs), ends[-1]))
    for gen, row in zip(rngs, parts):
        gen.standard_normal(out=row)
    parts *= 1.0 / np.sqrt(2.0)
    outs = []
    for shape, lo, hi in zip(shapes, ends[:-1], ends[1:]):
        block = parts[:, lo:hi].reshape((len(rngs), 2) + shape)
        out = np.empty((len(rngs),) + shape, dtype=complex)
        out.real, out.imag = block[:, 0], block[:, 1]
        outs.append(out)
    return outs[0] if len(outs) == 1 else outs


def random_bits(rngs, totals) -> np.ndarray:
    """totals[f] random bits from each rngs[f], concatenated, as uint8.

    For range 1, numpy's Lemire draw returns the top bit of a 32-bit word
    and never rejects one, and each 64-bit Philox output gives two words,
    low half first.  So the top bits of random_raw(n // 2)'s halves (byte
    3 of each little-endian half) are integers(0, 2, n)'s bits, and leave
    the generator where integers would, for even n.
    """
    if any(total % 2 for total in totals):
        raise ValueError("random_bits draws an even number of bits")
    raw = np.concatenate([rng.bit_generator.random_raw(total // 2)
                          for rng, total in zip(rngs, totals)])
    return raw.astype("<u8", copy=False).view(np.uint8)[3::4] >> 7

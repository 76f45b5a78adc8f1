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


def check_count(name: str, value):
    """Reject a size, count or iteration budget that is not an integer >= 1."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
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
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
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
    SeedSequence's hash.  Each frame's generator then makes one call per
    draw kind, in the order h_hat, w, precoder inits, data bits, noise.
    """
    indices = [operator.index(i) for i in indices]
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key)))
            for key in _philox_keys(seed, indices)]


def complex_normal(rng, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, unit variance per entry.

    `rng` is one generator, giving an array of `shape`, or a sequence of
    F per-frame generators, giving (F,) + shape with row f drawn from
    rngs[f].  Each generator makes one standard_normal call: the real
    parts, then the imaginary parts.  Scaling by 1/sqrt(2) gives the same
    bits as dividing the complex draw by sqrt(2).
    """
    if isinstance(rng, np.random.Generator):
        return complex_normal([rng], shape)[0]
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    parts = np.empty((len(rng), 2) + shape)
    for gen, row in zip(rng, parts):
        gen.standard_normal(out=row)
    parts *= 1.0 / np.sqrt(2.0)
    out = np.empty((len(rng),) + shape, dtype=complex)
    out.real = parts[:, 0]
    out.imag = parts[:, 1]
    return out

"""Interference-network configuration and random channel generation.

A network has K transmit/receive pairs; the matrix between transmitter l
and receiver k is an nr x nt grid entry with i.i.d. unit-variance complex
Gaussian elements.  Transmitter-side channel knowledge may be degraded:
the true channel is composed from an estimate and an independent error
term, h = sqrt(1-eps)*h_hat + sqrt(eps)*w.
"""

import math
from dataclasses import dataclass

import numpy as np


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
        for name in ("k_pairs", "nt", "nr", "rate_per_pair", "iterations",
                     "seed"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not math.isfinite(self.power_p):
            raise ValueError(f"power_p must be finite, got {self.power_p}")
        if self.k_pairs < 1 or self.nt < 1 or self.nr < 1:
            raise ValueError("k_pairs, nt and nr must all be >= 1")
        if self.power_p <= 0:
            raise ValueError("power_p must be positive")
        if self.rate_per_pair < 1:
            raise ValueError("rate_per_pair must be >= 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

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


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based random stream for frame `index`.

    Built on Philox keyed by (seed, index), so any partitioning of frames
    across workers reproduces the serial draw sequence bit-exactly.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, unit variance per entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)

"""The engine's SVD-SM design over the active pair's eigenmodes."""

import numpy as np
import pytest

from iasim.network import NetworkConfig
from iasim.simulate import _stream_design, _stream_gains
from oracles import complex_normal


def sm_design(direct):
    """Unloaded SVD-SM design of one frame whose active direct channel
    estimate is `direct`, and its stream gains over that channel."""
    direct = np.asarray(direct, dtype=complex)
    nr, nt = direct.shape
    cfg = NetworkConfig(k_pairs=1, nt=nt, nr=nr, rate_per_pair=min(nt, nr))
    h = direct[None, None, None]
    design = _stream_design(cfg, "svd", h, np.zeros(1, dtype=int), None,
                            False)
    return design, _stream_gains(h, design, np.arange(1))[0]


def sm_equivalent_channels(direct):
    """Amplitude gains of the parallel scalar links, one per eigenmode."""
    return np.abs(np.diagonal(sm_design(direct)[1]))


def test_identity_channel():
    design, gains = sm_design(np.eye(2))
    assert design.bits.shape == (1, 2)
    assert np.allclose(gains, np.eye(2))


def test_reconstruction_and_unitarity(rng):
    h = complex_normal(rng, (3, 2))  # nr=3, nt=2
    design, gains = sm_design(h)
    rx, tx = design.rx[0], design.tx[0]
    assert rx.shape == (2, 3) and tx.shape == (2, 2)
    # the links are decoupled, with real nonnegative descending gains
    s = np.diagonal(gains)
    assert np.abs(gains - np.diag(s)).max() < 1e-10
    assert np.abs(s.imag).max() < 1e-10 and np.all(s.real >= 0)
    assert np.all(np.diff(s.real) <= 0)
    rebuilt = (rx.T * s) @ tx.conj()
    assert np.linalg.norm(rebuilt - h) / np.linalg.norm(h) < 1e-10
    assert np.allclose(rx.conj() @ rx.T, np.eye(2), atol=1e-10)
    assert np.allclose(tx.conj() @ tx.T, np.eye(2), atol=1e-10)


def test_non_finite_rejected():
    h = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError):
        sm_design(h)


def test_equivalent_channels(rng):
    assert np.allclose(sm_equivalent_channels(np.diag([2.0, 1.0])),
                       [2.0, 1.0])
    # rank-1 channel: second gain zero
    u = complex_normal(rng, 2)[:, None]
    v = complex_normal(rng, 2)[None, :]
    gains = sm_equivalent_channels(u @ v)
    assert gains[1] == pytest.approx(0.0, abs=1e-12)


def test_gains_match_gram_eigenvalues(rng):
    for _ in range(20):
        h = complex_normal(rng, (2, 2))
        gains = sm_equivalent_channels(h)
        eig = np.sqrt(np.sort(np.linalg.eigvalsh(h.conj().T @ h))[::-1])
        assert np.allclose(gains, eig, atol=1e-10)


def test_unitary_invariance(rng):
    h = complex_normal(rng, (2, 3))
    qa, _ = np.linalg.qr(complex_normal(rng, (2, 2)))
    qb, _ = np.linalg.qr(complex_normal(rng, (3, 3)))
    g1 = sm_equivalent_channels(h)
    g2 = sm_equivalent_channels(qa @ h @ qb)
    assert np.allclose(g1, g2, atol=1e-10)


def test_energy_identity(rng):
    h = complex_normal(rng, (3, 3))
    gains = sm_equivalent_channels(h)
    assert np.sum(gains**2) == pytest.approx(np.linalg.norm(h, "fro") ** 2,
                                             rel=1e-10)


def test_min_eigenvalue_exponential_mean(rng):
    # lambda_min^2 of the square-N Gram matrix has mean 1/N.
    n, samples = 2, 120_000
    h = complex_normal(rng, (samples, n, n))
    lam_min = np.linalg.svd(h, compute_uv=False)[:, -1]
    assert (lam_min**2).mean() == pytest.approx(1.0 / n, rel=0.02)

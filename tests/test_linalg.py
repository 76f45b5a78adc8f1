import numpy as np
import pytest

from iasim.linalg import min_eigvec, solve_posdef, unit


def hermitian_stack(rng, n, count):
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return a @ a.conj().swapaxes(-1, -2)


def test_min_eigvec_2x2_matches_lapack(rng):
    a = hermitian_stack(rng, 2, 500)
    v = min_eigvec(a)
    w, vec = np.linalg.eigh(a)
    # same eigenvalue via Rayleigh quotient
    lam = np.einsum("fi,fij,fj->f", v.conj(), a, v).real
    assert np.allclose(lam, w[:, 0], rtol=1e-10, atol=1e-10)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)


def test_min_eigvec_3x3_and_residual(rng):
    a = hermitian_stack(rng, 3, 200)
    v = min_eigvec(a)
    lam = np.einsum("fi,fij,fj->f", v.conj(), a, v).real
    resid = np.linalg.norm(
        np.einsum("fij,fj->fi", a, v) - lam[:, None] * v, axis=1)
    scale = np.linalg.norm(a, axis=(1, 2))
    assert np.all(resid <= 1e-10 * scale)


def test_min_eigvec_degenerate_identity():
    a = np.eye(2, dtype=complex)[None]
    v = min_eigvec(a)[0]
    # lowest-index deterministic choice
    assert v[0] == 1.0 and v[1] == 0.0
    a = np.zeros((1, 2, 2), dtype=complex)
    v = min_eigvec(a)[0]
    assert v[0] == 1.0


def test_min_eigvec_diagonal_picks_smaller():
    a = np.diag([5.0, 2.0]).astype(complex)[None]
    v = min_eigvec(a)[0]
    assert abs(v[1]) == 1.0 and abs(v[0]) == 0.0


def test_solve_posdef_matches_lapack(rng):
    for n in (2, 3):
        a = hermitian_stack(rng, n, 300) + 2 * np.eye(n)
        x = rng.standard_normal((300, n)) + 1j * rng.standard_normal((300, n))
        y = solve_posdef(a, x)
        assert np.allclose(np.einsum("fij,fj->fi", a, y), x, atol=1e-9)


@pytest.mark.parametrize("power", [1e12, 1e15, 1e18])
def test_solve_posdef_2x2_identity_plus_strong_rank_one(rng, power):
    # b = I + P a a^H has determinant 1 + P |a|^2, but the computed
    # b00 b11 - |b01|^2 cancels, to zero or below, in some frames.  The
    # solution must stay finite, and x^H b^-1 x positive.
    a = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    x = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
    b = np.eye(2) + power * a[:, :, None] * a[:, None, :].conj()
    y = solve_posdef(b, x)
    assert np.isfinite(y).all()
    assert np.all(np.einsum("fi,fi->f", x.conj(), y).real > 0)


def test_unit_norms(rng):
    v = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    u = unit(v)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-13)

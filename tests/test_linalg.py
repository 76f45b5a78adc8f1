import numpy as np
import pytest

import oracles
from conftest import draw_inits
from iasim import solvers
from iasim.linalg import min_eigvec, solve_posdef, unit
from iasim.network import NetworkConfig


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
@pytest.mark.parametrize("n", [2, 3])
def test_solve_posdef_identity_plus_strong_rank_one(rng, n, power):
    # b = I + P a a^H has determinant 1 + P |a|^2, but the computed
    # 2x2 b00 b11 - |b01|^2 cancels, to zero or below, in some frames, as
    # does a 3x3 pivot b11 - |b01|^2 / b00.  The solution must stay finite,
    # and x^H b^-1 x positive.
    a = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
    x = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
    b = np.eye(n) + power * a[:, :, None] * a[:, None, :].conj()
    y = solve_posdef(b, x)
    assert np.isfinite(y).all()
    assert np.all(np.einsum("fi,fi->f", x.conj(), y).real > 0)


@pytest.mark.parametrize("power", [1e-3, 1.0, 30.0, 1e3])
def test_solve_posdef_3x3_matches_lapack_oracle(rng, power):
    b = np.eye(3) + power * hermitian_stack(rng, 3, 500)
    x = rng.standard_normal((500, 3)) + 1j * rng.standard_normal((500, 3))
    want = oracles.solve_posdef(b, x)
    err = np.linalg.norm(solve_posdef(b, x) - want, axis=-1)
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=-1))


def test_min_eigvec_3x3_matches_lapack_oracle(rng):
    # Random stacks; near-rank-2 ones (a MinIL precoder covariance with
    # K - 1 = 2 interferers is rank 2, its smallest eigenvalue 0); and
    # spectra (0, 2e-3..5e-3, 1), where the trigonometric root alone puts
    # the vector about 1e-11 off and the Rayleigh-quotient step is needed.
    x = rng.standard_normal((2000, 3, 2)) + 1j * rng.standard_normal(
        (2000, 3, 2))
    basis, _ = np.linalg.qr(hermitian_stack(rng, 3, 2000))
    close = np.stack([np.zeros(2000), rng.uniform(2e-3, 5e-3, 2000),
                      np.ones(2000)], axis=-1)
    for a in (hermitian_stack(rng, 3, 2000),
              x @ x.conj().swapaxes(-1, -2) + 1e-9 * hermitian_stack(
                  rng, 3, 2000),
              (basis * close[:, None, :]) @ basis.conj().swapaxes(-1, -2)):
        np.testing.assert_allclose(min_eigvec(a), oracles.min_eigvec(a),
                                   rtol=0, atol=1e-12)


def test_min_eigvec_3x3_matches_oracle_on_minil_covariances(monkeypatch):
    # Every 3x3 covariance of a 4-user 3x2 MinIL solve: the precoder
    # updates, from the random start to the aligned, rank-2 end.
    cfg = NetworkConfig(k_pairs=4, nt=3, nr=2, seed=5)
    cs, inits = draw_inits(cfg, range(30))
    seen = []

    def record(q):
        if q.shape[-1] == 3:
            seen.append(q)
        return min_eigvec(q)

    monkeypatch.setattr(solvers, "min_eigvec", record)
    solvers.minil_solve_batch(cs.h_hat, cfg.power_p, cfg.iterations,
                              inits[:, 0])
    q = np.concatenate(seen)
    assert q.shape == (cfg.iterations * 30, 4, 3, 3)
    np.testing.assert_allclose(min_eigvec(q), oracles.min_eigvec(q),
                               rtol=0, atol=1e-12)


def test_min_eigvec_3x3_degenerate_spectra_take_lapack(rng):
    # The identity, a scaled identity, the zero matrix and a repeated
    # smallest eigenvalue have no unique null direction; those matrices
    # get exactly the oracle's vector, and the rest of their stack keeps
    # the closed form.
    degenerate = np.array([np.eye(3), 7.5 * np.eye(3), np.zeros((3, 3)),
                           np.diag([2.0, 5.0, 2.0])], dtype=complex)
    a = hermitian_stack(rng, 3, 8)
    a[::2] = degenerate
    got, want = min_eigvec(a), oracles.min_eigvec(a)
    assert np.array_equal(got[::2], want[::2])
    np.testing.assert_allclose(got[1::2], want[1::2], rtol=0, atol=1e-12)


def test_min_eigvec_3x3_rank_one_lands_in_the_null_space():
    # 10 t t^H has a double zero eigenvalue.  The Rayleigh step moves the
    # cubic's root off it, so the first pass's candidate is the one that
    # shows the degeneracy; every vector must still be orthogonal to t.
    rng = np.random.default_rng(17)
    t = rng.standard_normal((100_000, 3)) + 1j * rng.standard_normal(
        (100_000, 3))
    v = min_eigvec(10.0 * t[:, :, None] * t[:, None, :].conj())
    assert np.max(10.0 * np.abs((t.conj() * v).sum(axis=1)) ** 2) <= 1e-20


@pytest.mark.parametrize("power_p", [10.0, 1e3])
def test_minil_nulls_two_user_3x3_leakage(power_p):
    # With two users and three antennas, every interference covariance is
    # rank one, so each node can null it exactly.
    cfg = NetworkConfig(k_pairs=2, nt=3, nr=3, power_p=power_p, seed=3)
    cs, inits = draw_inits(cfg, range(2000))
    sol = solvers.minil_solve_batch(cs.h_hat, power_p, 20, inits[:, 0])
    assert np.max(sol.leakage) <= 1e-20


def test_unit_norms(rng):
    v = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    u = unit(v)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-13)

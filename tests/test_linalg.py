import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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


# The kernels against their unfused forms in oracles, byte for byte: a
# changed -0.0 fails, as would a NaN where the other has a number.

BATCHES = [(), (7,), (5, 3)]


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def solver_layout(a):
    """`a` with the memory layout of the solver's covariances: an
    (n, n, ...) array seen as (..., n, n)."""
    axes = tuple(range(a.ndim))[::-1]
    return np.ascontiguousarray(a.transpose(axes)).transpose(axes)


ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]),
                  st.floats(-1e6, 1e6))


@st.composite
def hermitian(draw, n, batch=None):
    """A stack of Hermitian n x n matrices from drawn entries: signed
    zeros, repeated values and subnormals included."""
    batch = draw(st.sampled_from(BATCHES)) if batch is None else batch
    parts = draw(hnp.arrays(np.float64, batch + (n, n, 2), elements=ENTRY))
    a = np.empty(batch + (n, n), complex)
    a.real, a.imag = parts[..., 0], parts[..., 1]
    upper = np.triu(np.ones((n, n), bool), 1)
    a = np.where(upper, a, a.conj().swapaxes(-1, -2))
    idx = np.arange(n)
    a[..., idx, idx] = a[..., idx, idx].real
    return a


@given(a=st.integers(2, 3).flatmap(hermitian), psd=st.booleans(),
       real=st.booleans(), layout=st.booleans())
@settings(max_examples=300, deadline=None)
def test_min_eigvec_bytes_match_unfused_oracle(a, psd, real, layout):
    if psd:
        a = a @ a.conj().swapaxes(-1, -2)
    if real:
        a = np.ascontiguousarray(a.real)
    if layout:
        a = solver_layout(a)
    assert_same_bytes(min_eigvec(a), oracles.closed_min_eigvec(a))


def special_matrices(n):
    """Zero, identity, diagonal, rank-one and repeated-smallest-eigenvalue
    matrices, and I + Q with Q rank one and rank two."""
    rng = np.random.default_rng(99)
    t = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    rank1 = t[0, :, None] * t[0].conj()
    rank2 = rank1 + t[1, :, None] * t[1].conj()
    basis, _ = np.linalg.qr(rank2 + np.eye(n))
    repeated = (basis * np.r_[1.0, 1.0, 4.0][-n:]) @ basis.conj().T
    mats = [np.zeros((n, n)), np.eye(n), 7.5 * np.eye(n),
            np.diag(np.arange(n, 0, -1.0)), np.diag(np.r_[2.0, 5.0, 2.0][:n]),
            rank1, 10.0 * rank1, repeated, np.diag([-0.0] * n)]
    mats += [np.eye(n) + power * q for power in 10.0 ** np.arange(-3, 19, 3)
             for q in (rank1, rank2)]
    return np.array(mats, dtype=complex)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", [2, 3])
def test_min_eigvec_matches_unfused_oracle_on_special_matrices(n, batch):
    for a in special_matrices(n):
        a = np.broadcast_to(a, batch + (n, n)).copy()
        assert_same_bytes(min_eigvec(a), oracles.closed_min_eigvec(a))
        assert_same_bytes(min_eigvec(a - np.eye(n)),
                          oracles.closed_min_eigvec(a - np.eye(n)))


@pytest.mark.parametrize("power", 10.0 ** np.arange(-3, 19, 3))
@pytest.mark.parametrize("n", [2, 3])
def test_min_eigvec_matches_unfused_oracle_on_interference_covariances(
        rng, n, power):
    # The solvers' operands: PSD covariances of rank K - 1 = 1 or 2 at
    # powers from -30 to 180 dB, in the solvers' memory layout.
    t = rng.standard_normal((5, 3, n, 2)) + 1j * rng.standard_normal(
        (5, 3, n, 2))
    for q in (t[..., :1], t):
        q = solver_layout(power * (q @ q.conj().swapaxes(-1, -2)))
        assert_same_bytes(min_eigvec(q), oracles.closed_min_eigvec(q))


def test_min_eigvec_3x3_overflow_gives_the_oracles_nans():
    # Entries near 1e150 overflow the cubic's terms.  The vectors are then
    # NaN where the oracle's are, and equal elsewhere; only the sign bit of
    # a NaN may differ, set by which numpy loop multiplied it.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal(
        (400, 3, 3))
    a = a + a.conj().swapaxes(-1, -2)
    a[::2, 1, 1] = -1e150
    with np.errstate(all="ignore"):
        got, want = min_eigvec(a), oracles.closed_min_eigvec(a)
    assert np.isnan(got).any()
    np.testing.assert_array_equal(got, want)

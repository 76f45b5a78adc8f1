"""Small Hermitian kernels used by the alternating solvers.

All functions accept stacked operands (leading batch axes) so that many
frames can be processed per call.  The 2x2 and 3x3 cases are closed-form,
which saves LAPACK's per-matrix overhead on these tiny matrices; larger
sizes go to LAPACK via numpy.
"""

import numpy as np

_TINY = 1e-300
# A 3x3 matrix whose null-vector candidate for its smallest eigenvalue (of
# either pass) has a squared norm at or below this times ||A||_F^4 has a
# near-degenerate spectrum: rounding sets that vector, so `eigh` takes it.
_DEGENERATE_3X3 = 1e-6


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize vectors along the last axis."""
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.maximum(n, _TINY)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each vector so its largest-magnitude entry is real positive.

    Keeps eigenvector output deterministic across BLAS variants.
    """
    idx = np.argmax(np.abs(v), axis=-1, keepdims=True)
    lead = np.take_along_axis(v, idx, axis=-1)
    phase = lead / np.maximum(np.abs(lead), _TINY)
    return v * phase.conj()


def _min_eigvec_2x2(a: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue, closed form.

    `a` is stacked Hermitian (..., 2, 2).  Degenerate spectra resolve to
    the lowest-index basis vector.
    """
    p = a[..., 0, 0].real
    q = a[..., 1, 1].real
    b = a[..., 0, 1]
    half_gap = 0.5 * (p - q)
    root = np.sqrt(half_gap**2 + np.abs(b) ** 2)
    lam = 0.5 * (p + q) - root

    # Two algebraic null-vector candidates of (A - lam I); pick the larger.
    v1 = np.stack([b, lam - p], axis=-1)
    v2 = np.stack([lam - q, b.conj()], axis=-1)
    n1 = np.abs(b) ** 2 + (lam - p) ** 2
    n2 = np.abs(b) ** 2 + (lam - q) ** 2
    v = np.where((n1 >= n2)[..., None], v1, v2)

    # Degenerate (a ~ scaled identity): fall back to e0 or e1 by diagonal.
    scale = p + q + np.abs(b)
    bad = np.maximum(n1, n2) <= (1e-30 * np.maximum(scale, 1.0) ** 2)
    if np.any(bad):
        e = np.zeros_like(v)
        first = p <= q
        e[..., 0] = np.where(first, 1.0, 0.0)
        e[..., 1] = np.where(first, 0.0, 1.0)
        v = np.where(bad[..., None], e, v)
    return unit(v)


def _abs2(z):
    """|z|^2 without the square root of np.abs."""
    return z.real**2 + z.imag**2


def _null_vector_3x3(d, a01, a02, a12, lam):
    """The largest cross product of two rows of A - lam I, and its norm^2.

    `d` holds A's diagonal as three real arrays, a01, a02 and a12 its
    upper entries.  Each row of A - lam I times a null vector is zero
    (without conjugation), so where lam is an eigenvalue of multiplicity
    one the cross product of two rows lies along its eigenvector.  The
    three products are the columns of the Hermitian adjugate of A - lam I,
    written through its diagonal g and its upper entries x, y, z.
    """
    m0, m1, m2 = (di - lam for di in d)
    g0 = m1 * m2 - _abs2(a12)
    g1 = m0 * m2 - _abs2(a02)
    g2 = m0 * m1 - _abs2(a01)
    x = a01 * a12 - a02 * m1
    y = a02 * a01.conj() - m0 * a12
    z = a01 * m2 - a02 * a12.conj()
    ax, ay, az = _abs2(x), _abs2(y), _abs2(z)
    n01 = ax + ay + g2**2           # rows 0 x 1 = (x, y, g2)
    n02 = az + ay + g1**2           # rows 0 x 2 = (z, -g1, -y*)
    n12 = ax + az + g0**2           # rows 1 x 2 = (g0, -z*, x*)
    k01 = (n01 >= n02) & (n01 >= n12)
    k02 = ~k01 & (n02 >= n12)
    v = np.stack([np.where(k01, x, np.where(k02, z, g0)),
                  np.where(k01, y, np.where(k02, -g1, -z.conj())),
                  np.where(k01, g2, np.where(k02, -y.conj(), x.conj()))],
                 axis=-1)
    return v, np.maximum(n01, np.maximum(n02, n12))


def _min_eigvec_3x3(a: np.ndarray) -> np.ndarray:
    """Eigenvector of the smallest eigenvalue, closed form, not normalized.

    `a` is stacked Hermitian (..., 3, 3).  The eigenvalue is the
    trigonometric root of the characteristic cubic of the trace-shifted
    matrix (Kopp, "Efficient numerical diagonalization of hermitian 3x3
    matrices", IJMPC 19, 2008, arXiv:physics/0610206), and the vector the
    largest cross product of two rows of A - lam I.  That root loses
    accuracy as the two smallest eigenvalues approach each other, so the
    Rayleigh quotient of the first vector gives lam again and the vector
    is formed once more.  Near-degenerate spectra (the identity, the zero
    matrix, rank one: the step can move lam off a double root) go to `eigh`.
    """
    d = tuple(a[..., i, i].real for i in range(3))
    a01, a02, a12 = a[..., 0, 1], a[..., 0, 2], a[..., 1, 2]
    o01, o02, o12 = _abs2(a01), _abs2(a02), _abs2(a12)
    mean = sum(d) / 3.0
    s0, s1, s2 = (di - mean for di in d)
    p = np.sqrt((s0**2 + s1**2 + s2**2 + 2.0 * (o01 + o02 + o12)) / 6.0)
    det = (s0 * s1 * s2 + 2.0 * (a01 * a12 * a02.conj()).real
           - s0 * o12 - s1 * o02 - s2 * o01)
    r = np.clip(det / np.maximum(2.0 * p**3, _TINY), -1.0, 1.0)
    lam = mean + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)

    v, n1 = _null_vector_3x3(d, a01, a02, a12, lam)
    # lam += v^H (A - lam I) v / v^H v; a zero v leaves lam in place.
    # A v is summed elementwise, so its bits do not depend on a's layout.
    w = _abs2(v).sum(axis=-1)
    av = sum(a[..., :, j] * v[..., j, None] for j in range(3))
    lam = lam + (((v.conj() * av).sum(axis=-1).real - lam * w)
                 / np.maximum(w, _TINY))
    v, n2 = _null_vector_3x3(d, a01, a02, a12, lam)

    fro2 = d[0]**2 + d[1]**2 + d[2]**2 + 2.0 * (o01 + o02 + o12)
    bad = np.minimum(n1, n2) <= _DEGENERATE_3X3 * fro2**2
    if np.any(bad):
        v[bad] = np.linalg.eigh(a[bad])[1][..., :, 0]
    return v


def min_eigvec(a: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the minimum eigenvalue of stacked Hermitian `a`.

    Returns shape a.shape[:-1] (vector per matrix), with a deterministic
    phase convention.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if n == 1:
        return np.ones(a.shape[:-1], dtype=complex)
    if n == 2:
        return _fix_phase(_min_eigvec_2x2(a))
    if n == 3:
        return _fix_phase(unit(_min_eigvec_3x3(a)))
    _, vec = np.linalg.eigh(a)
    return _fix_phase(vec[..., :, 0])


def _solve_posdef_3x3(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unrolled LDL^H solve of stacked 3x3 b = I + Q, Q Hermitian PSD.

    Each pivot is a Schur complement of b, and (I + Q)'s Schur complements
    are at least I, so every pivot is clamped at 1 where cancellation would
    take it below.
    """
    b01, b02, b12 = b[..., 0, 1], b[..., 0, 2], b[..., 1, 2]
    d0 = np.maximum(b[..., 0, 0].real, 1.0)
    l10 = b01.conj() / d0
    l20 = b02.conj() / d0
    d1 = np.maximum(b[..., 1, 1].real - _abs2(b01) / d0, 1.0)
    l21 = (b12.conj() - l20 * b01) / d1
    d2 = np.maximum(b[..., 2, 2].real - _abs2(b02) / d0 - d1 * _abs2(l21),
                    1.0)
    z0 = x[..., 0]
    z1 = x[..., 1] - l10 * z0
    z2 = x[..., 2] - l20 * z0 - l21 * z1
    y2 = z2 / d2
    y1 = z1 / d1 - l21.conj() * y2
    y0 = z0 / d0 - l10.conj() * y1 - l20.conj() * y2
    return np.stack([y0, y1, y2], axis=-1)


def solve_posdef(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve b y = x for stacked positive-definite b and stacked vectors x.

    The 2x2 and 3x3 closed forms hold for b = I + Q, Q Hermitian PSD: the
    2x2 form clamps det b to its bound tr b - 1, the 3x3 form its LDL^H
    pivots to 1, bounds that cancellation can cross at large Q.
    """
    b = np.asarray(b)
    x = np.asarray(x)
    if b.shape[-1] == 2:
        b00 = b[..., 0, 0]
        b01 = b[..., 0, 1]
        b11 = b[..., 1, 1]
        det = np.maximum(b00.real * b11.real - np.abs(b01) ** 2,
                         b00.real + b11.real - 1)
        y0 = (b11 * x[..., 0] - b01 * x[..., 1]) / det
        y1 = (b00 * x[..., 1] - b01.conj() * x[..., 0]) / det
        return np.stack([y0, y1], axis=-1)
    if b.shape[-1] == 3:
        return _solve_posdef_3x3(b, x)
    return np.linalg.solve(b, x[..., None])[..., 0]

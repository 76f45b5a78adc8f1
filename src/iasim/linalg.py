"""Small Hermitian kernels used by the alternating solvers.

All functions take stacked operands (leading batch axes), many frames per
call, and run an operand without a batch axis as a stack of one.  The 2x2
and 3x3 cases are closed-form, saving LAPACK's per-matrix overhead on
these tiny matrices; larger sizes go to LAPACK via numpy.
"""

import numpy as np

_TINY = 1e-300
# A 3x3 matrix whose null-vector candidate for its smallest eigenvalue (of
# either pass) has a squared norm at or below this times ||A||_F^4 has a
# near-degenerate spectrum: rounding sets that vector, so `eigh` takes it.
_DEGENERATE_3X3 = 1e-6


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize vectors along the last axis."""
    v = np.asarray(v)
    if v.ndim == 1:
        return unit(v[None])[0]
    sq = (v.conj() * v).real
    return v / _norm([sq[..., j] for j in range(v.shape[-1])])[..., None]


def _norm(sq):
    """max(||v||, _TINY) from the squared magnitudes of v's components,
    one array each: the package's one norm.  They are summed left to
    right, as numpy sums an axis of up to 7 entries; a squared magnitude
    is never -0, so no leading 0.0 is needed.  `unit` squares all of v in
    one pass, as numpy's own norm does, which keeps its NaN sign bits."""
    return np.maximum(np.sqrt(sum(sq[1:], sq[0])), _TINY)


def _unit_phase(cols) -> np.ndarray:
    """`unit`, then a phase fix, for vectors given as their component
    arrays; returns the vectors stacked on a last axis.

    The phase fix rotates each vector so that its lead entry is real
    positive, which keeps eigenvector output deterministic across BLAS
    variants.  The lead entry is argmax's: the first largest magnitude,
    or the first NaN.
    """
    n = _norm([(c.conj() * c).real for c in cols])
    u = [c / n for c in cols]
    del n
    m = [np.abs(x) for x in u]
    lead = u[-1]
    for j in range(len(u) - 2, -1, -1):
        top = m[j] >= m[j + 1]
        for later in m[j + 2:]:
            top &= m[j] >= later
        top |= m[j] != m[j]
        lead = np.where(top, u[j], lead)
    del m
    phase = np.conjugate(lead / np.maximum(np.abs(lead), _TINY))
    out = np.empty(phase.shape + (len(u),), phase.dtype)
    for j, x in enumerate(u):
        np.multiply(x, phase, out=out[..., j])
    return out


def _min_eigvec_2x2(a: np.ndarray) -> tuple:
    """Eigenvector of the smallest eigenvalue, closed form, not
    normalized, as its two component arrays.

    `a` is stacked Hermitian (..., 2, 2).  Of the two null-vector
    candidates of A - lam I, (b, lam - p) and (lam - q, b*), the larger
    is taken.  Degenerate spectra (a ~ scaled identity) resolve to the
    basis vector of the smaller diagonal entry, e0 on a tie.
    """
    p = a[..., 0, 0].real
    q = a[..., 1, 1].real
    b = a[..., 0, 1]
    mag = np.abs(b)
    mag2 = mag**2
    pq = p + q
    lam = 0.5 * pq - np.sqrt((0.5 * (p - q))**2 + mag2)
    lp = lam - p
    lq = lam - q
    n1 = mag2 + lp**2
    n2 = mag2 + lq**2
    first = n1 >= n2
    v0 = np.where(first, b, lq)
    v1 = np.where(first, lp, b.conj())
    bad = np.maximum(n1, n2) <= (1e-30 * np.maximum(pq + mag, 1.0) ** 2)
    if bad.any():
        low = p <= q
        v0 = np.where(bad, low, v0)
        v1 = np.where(bad, ~low, v1)
    return v0, v1


def _abs2(z):
    """|z|^2 without the square root of np.abs."""
    return z.real**2 + z.imag**2


def _null_vector_3x3(d, a01, a02, a12, o, prods, lam):
    """The largest cross product of two rows of A - lam I, as its three
    component arrays, and its norm^2.

    `d` holds A's diagonal as three real arrays, a01, a02 and a12 its
    upper entries, `o` their |a_ij|^2 and `prods` the products a01 a12,
    a02 a01* and a02 a12*, which do not depend on lam.  Each row of
    A - lam I times a null vector is zero (without conjugation), so where
    lam is an eigenvalue of multiplicity one the cross product of two rows
    lies along its eigenvector.  The three products are the columns of
    the Hermitian adjugate of A - lam I, written through its diagonal g
    and its upper entries x, y, z.
    """
    o01, o02, o12 = o
    c01_12, c02_01, c02_12 = prods
    m0, m1, m2 = (di - lam for di in d)
    g0 = m1 * m2 - o12
    g1 = m0 * m2 - o02
    g2 = m0 * m1 - o01
    x = c01_12 - a02 * m1
    y = c02_01 - m0 * a12
    z = a01 * m2 - c02_12
    ax, ay, az = _abs2(x), _abs2(y), _abs2(z)
    n01 = ax + ay + g2**2           # rows 0 x 1 = (x, y, g2)
    n02 = az + ay + g1**2           # rows 0 x 2 = (z, -g1, -y*)
    n12 = ax + az + g0**2           # rows 1 x 2 = (g0, -z*, x*)
    k01 = (n01 >= n02) & (n01 >= n12)
    k02 = ~k01 & (n02 >= n12)
    v = (np.where(k01, x, np.where(k02, z, g0)),
         np.where(k01, y, np.where(k02, -g1, -z.conj())),
         np.where(k01, g2, np.where(k02, -y.conj(), x.conj())))
    return v, np.maximum(n01, np.maximum(n02, n12))


def _min_eigvec_3x3(a: np.ndarray) -> tuple:
    """Eigenvector of the smallest eigenvalue, closed form, not
    normalized, as its three component arrays.

    `a` is stacked Hermitian (..., 3, 3).  The eigenvalue is the
    trigonometric root of the characteristic cubic of the trace-shifted
    matrix (Kopp, "Efficient numerical diagonalization of hermitian 3x3
    matrices", IJMPC 19, 2008, arXiv:physics/0610206), and the vector the
    largest cross product of two rows of A - lam I.  That root loses
    accuracy as the two smallest eigenvalues approach each other, so the
    Rayleigh quotient of the first vector gives lam again and the vector
    is formed once more.  Near-degenerate spectra (the identity, the zero
    matrix, rank one: the step can move lam off a double root) go to `eigh`.

    Everything runs on one array per matrix entry or vector component,
    and the terms that do not depend on lam are formed once.  A sum over
    a vector's components is written out as numpy sums a short axis, left
    to right from 0.0, so its bits are those of the sum over a stacked
    axis.
    """
    e = [[a[..., i, j] for j in range(3)] for i in range(3)]
    d = tuple(e[i][i].real for i in range(3))
    a01, a02, a12 = e[0][1], e[0][2], e[1][2]
    o = o01, o02, o12 = _abs2(a01), _abs2(a02), _abs2(a12)
    off2 = 2.0 * (o01 + o02 + o12)
    c01_12 = a01 * a12
    prods = c01_12, a02 * a01.conj(), a02 * a12.conj()
    mean = sum(d) / 3.0
    s0, s1, s2 = (di - mean for di in d)
    p = np.sqrt((s0**2 + s1**2 + s2**2 + off2) / 6.0)
    det = (s0 * s1 * s2 + 2.0 * (c01_12 * a02.conj()).real
           - s0 * o12 - s1 * o02 - s2 * o01)
    r = np.clip(det / np.maximum(2.0 * p**3, _TINY), -1.0, 1.0)
    lam = mean + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)

    v, n1 = _null_vector_3x3(d, a01, a02, a12, o, prods, lam)
    # lam += v^H (A - lam I) v / v^H v; a zero v leaves lam in place.
    w = _abs2(v[0]) + _abs2(v[1]) + _abs2(v[2])
    rq = 0.0
    for ei, vi in zip(e, v):
        av = 0 + ei[0] * v[0] + ei[1] * v[1] + ei[2] * v[2]
        rq = rq + (vi.conj() * av).real
    lam = lam + (rq - lam * w) / np.maximum(w, _TINY)
    v, n2 = _null_vector_3x3(d, a01, a02, a12, o, prods, lam)

    fro2 = d[0]**2 + d[1]**2 + d[2]**2 + off2
    bad = np.minimum(n1, n2) <= _DEGENERATE_3X3 * fro2**2
    if bad.any():
        vec = np.linalg.eigh(a[bad])[1]
        for j, vj in enumerate(v):
            vj[bad] = vec[..., j, 0]
    return v


def min_eigvec(a: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the minimum eigenvalue of stacked Hermitian `a`.

    Returns shape a.shape[:-1] (vector per matrix), with a deterministic
    phase convention.
    """
    a = np.asarray(a)
    if a.ndim == 2:
        return min_eigvec(a[None])[0]
    n = a.shape[-1]
    if n == 1:
        return np.ones(a.shape[:-1], dtype=complex)
    if n == 2:
        return _unit_phase(_min_eigvec_2x2(a))
    if n == 3:
        return _unit_phase(_min_eigvec_3x3(a))
    _, vec = np.linalg.eigh(a)
    return _unit_phase([vec[..., j, 0] for j in range(n)])


# The Max-SINR update solves (I + Q) y = x from Q's entries: b_ii = 1 + q_ii
# and b_ij = q_ij + 0.0 are I + Q's entries, the + 0.0 its signs of zero.


def _solve_2x2(q, x) -> tuple:
    """Components of the solution of (I + Q) y = x, Q stacked 2x2, with
    det(I + Q) clamped to its bound tr(I + Q) - 1."""
    b00 = 1 + q[..., 0, 0]
    b11 = 1 + q[..., 1, 1]
    b01 = q[..., 0, 1] + 0.0
    det = np.maximum(b00.real * b11.real - np.abs(b01) ** 2,
                     b00.real + b11.real - 1)
    x0, x1 = x[..., 0], x[..., 1]
    return ((b11 * x0 - b01 * x1) / det, (b00 * x1 - b01.conj() * x0) / det)


def _solve_3x3(q, x) -> tuple:
    """Components of the solution of (I + Q) y = x, Q stacked 3x3, by an
    unrolled LDL^H.

    Each pivot is a Schur complement of I + Q, and those are at least I,
    so every pivot is clamped at 1 where cancellation would take it below.
    """
    b01, b02, b12 = (q[..., i, j] + 0.0 for i, j in ((0, 1), (0, 2), (1, 2)))
    d0 = np.maximum(1.0 + q[..., 0, 0].real, 1.0)
    l10 = b01.conj() / d0
    l20 = b02.conj() / d0
    d1 = np.maximum(1.0 + q[..., 1, 1].real - _abs2(q[..., 0, 1]) / d0, 1.0)
    l21 = (b12.conj() - l20 * b01) / d1
    d2 = np.maximum(1.0 + q[..., 2, 2].real - _abs2(q[..., 0, 2]) / d0
                    - d1 * _abs2(l21), 1.0)
    z0 = x[..., 0]
    z1 = x[..., 1] - l10 * z0
    z2 = x[..., 2] - l20 * z0 - l21 * z1
    y2 = z2 / d2
    y1 = z1 / d1 - l21.conj() * y2
    y0 = z0 / d0 - l10.conj() * y1 - l20.conj() * y2
    return y0, y1, y2


def solve_posdef(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unit solution of (I + Q) y = x for stacked Hermitian PSD Q and
    stacked vectors x: the Max-SINR node update.

    The 2x2 and 3x3 cases solve in closed form from Q's entries, without
    forming I + Q, and normalise component by component into one output
    with `unit`'s arithmetic, so their bytes are those of unit(y) for the
    stacked solution y.  The 2x2 form clamps det(I + Q) to its bound
    tr(I + Q) - 1, the 3x3 form its LDL^H pivots to 1, bounds that
    cancellation can cross at large Q.  Other sizes go to LAPACK.
    """
    q = np.asarray(q)
    x = np.asarray(x)
    if q.ndim == 2:
        return solve_posdef(q[None], x[None])[0]
    n = q.shape[-1]
    if n not in (2, 3):
        return unit(np.linalg.solve(np.eye(n) + q, x[..., None])[..., 0])
    y = (_solve_2x2 if n == 2 else _solve_3x3)(q, x)
    norm = _norm([(c.conj() * c).real for c in y])
    out = np.empty(norm.shape + (n,), np.result_type(*y))
    for j, c in enumerate(y):
        np.divide(c, norm, out=out[..., j])
    return out

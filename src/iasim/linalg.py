"""Small Hermitian kernels used by the alternating solvers.

All functions accept stacked operands (leading batch axes) so that many
frames can be processed per call.  The 2x2 case is closed-form; larger
sizes fall back to LAPACK via numpy.
"""

import numpy as np

_TINY = 1e-300


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
    _, vec = np.linalg.eigh(a)
    return _fix_phase(vec[..., :, 0])


def solve_posdef(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve b y = x for stacked positive-definite b and stacked vectors x.

    The 2x2 closed form holds for b = I + Q, Q Hermitian PSD: it clamps
    det b to its bound tr b - 1, which cancellation can cross at large Q.
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
    return np.linalg.solve(b, x[..., None])[..., 0]

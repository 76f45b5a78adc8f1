"""Gray-coded rectangular QAM and closed-form error-rate expressions.

A constellation is its bit count b, 1 <= b <= MAX_BITS: every function
here takes b and uses the squarest rectangle, I = 2^ceil(b/2) by
J = 2^floor(b/2) levels, built from independently Gray-coded PAM axes
and normalized to unit average symbol energy.  Data travel as integer
labels: a b-bit label's leading ceil(b/2) bits are the Gray code of its
real-axis level and the rest that of its imaginary-axis level.
`modulate` maps labels to symbols, `demodulate` detects labels, and
`bit_errors` counts the differing bits of two labels as the popcount of
their XOR.  The closed forms cover: exact instantaneous BER on an AWGN
link, the Rayleigh-faded average for the aligned-network equivalent
channel (with and without transmitter-side channel uncertainty), and the
eigenmode-averaged BER of SVD spatial multiplexing.  Everything but the
uncertainty variant of the last is numpy-only: `erfc` is a port of the
Cephes rational approximation, and scipy's quadrature is imported only
where that variant needs it.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .network import check_count


MAX_BITS = 6  # 64-QAM: uint8 labels, validated BER forms

# Cephes `erf` and `erfc` (S. L. Moshier, "Methods and Programs for
# Mathematical Functions", 1989; ndtr.c), the approximation that
# scipy.special.erfc wraps.  Highest power first, the monic denominators'
# leading 1.0 included: x * 1.0 + c is x + c exactly.  erf(x) =
# x T(x^2) / U(x^2) for |x| <= 1, and erfc(x) = e^-x^2 P(x) / Q(x) on
# [1, 8), e^-x^2 R(x) / S(x) from 8.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
# log(DBL_MAX): beyond x^2 > MAXLOG, e^-x^2 underflows and erfc(x) is 0.
_MAXLOG = 7.09782712893383996843e2


def _horner(x, coefs):
    """Polynomial in x by Horner's rule, in Cephes' order of operations
    (`polevl`, and `p1evl` for a monic one), updating one array in place."""
    y = x * coefs[0] + coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def erfc(x):
    """Complementary error function, elementwise, as a float array.

    Cephes' ranges: 1 - erf(x) for |x| < 1, the P/Q fraction on [1, 8)
    and R/S from 8, with 2 - erfc(|x|) for negative x.  Where
    x^2 > MAXLOG it is exactly 0 (2 below zero); +-inf give 0 and 2, and
    NaN stays NaN.  Each range is evaluated on its own elements only (NaN
    goes with [1, 8)), which take there the operations they took when
    every range was evaluated on every element; the x^2 > MAXLOG range,
    where e^-x^2 underflows and np.exp is slowest, takes none.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    a = np.abs(flat)
    out = np.zeros(flat.shape)
    small = a < 1.0
    big = a >= 8.0
    with np.errstate(over="ignore"):
        beyond = a * a > _MAXLOG
    # Index gathers: a boolean index is several times slower on these
    # interleaved ranges.
    part = np.flatnonzero(small)
    xp = flat[part]
    z = xp * xp
    out[part] = 1.0 - xp * _horner(z, _ERF_T) / _horner(z, _ERF_U)
    for part, num, den in ((~(small | big), _ERFC_P, _ERFC_Q),
                           (big & ~beyond, _ERFC_R, _ERFC_S)):
        part = np.flatnonzero(part)
        xp = flat[part]
        ap = np.abs(xp)
        out[part] = np.exp(-(xp * xp)) * _horner(ap, num) / _horner(ap, den)
    neg = flat <= -1.0
    if neg.any():
        out[neg] = 2.0 - out[neg]
    return out.reshape(x.shape)


def qfunc(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


def _gray(n):
    return n ^ (n >> 1)


def _geometry(b) -> tuple[int, int, float]:
    """(I, J, d) of the b-bit constellation.

    I = 2^ceil(b/2) real-axis and J = 2^floor(b/2) imaginary-axis levels,
    the squarest rectangle, at PAM half-spacing d for unit average symbol
    energy.  The one check of b: an integer in [1, MAX_BITS]; bool and
    float are rejected, numpy integers accepted.
    """
    if (isinstance(b, bool) or not isinstance(b, (int, np.integer))
            or not 1 <= b <= MAX_BITS):
        raise ValueError(f"bit count must be an integer in [1, {MAX_BITS}] "
                         f"(up to {2**MAX_BITS}-QAM), got {b!r}")
    b = int(b)
    i_side, j_side = 2 ** ((b + 1) // 2), 2 ** (b // 2)
    return i_side, j_side, math.sqrt(3.0 / (i_side**2 + j_side**2 - 2))


# typed: a cached numpy integer's key also matches a bool or float of
# equal value, which must reach _geometry's check instead.
@lru_cache(maxsize=None, typed=True)
def _tables(b):
    """(symbol, label) lookup tables of the b-bit constellation.

    symbols[label] is the unit-energy symbol of a b-bit label; its leading
    ceil(b/2) bits pick the real-axis level and the trailing floor(b/2)
    the imaginary one, each through the axis's inverse Gray map.
    labels[i * J + j] is the label of real-axis level i and imaginary-axis
    level j.
    """
    i_side, j_side, d = _geometry(b)
    j_bits = int(b) // 2
    i_gray = _gray(np.arange(i_side))
    j_gray = _gray(np.arange(j_side))
    i_level = np.argsort(i_gray)
    j_level = np.argsort(j_gray)
    label = np.arange(i_side * j_side)
    re = (2 * i_level[label >> j_bits] - i_side + 1) * d
    im = (2 * j_level[label & (j_side - 1)] - j_side + 1) * d
    labels = (i_gray[:, None] << j_bits) | j_gray[None, :]
    return re + 1j * im, labels.ravel().astype(np.uint8)


def bit_errors(sent, detected) -> np.ndarray:
    """Bit errors per symbol between sent and detected labels: the
    popcount of their XOR."""
    return np.bitwise_count(np.bitwise_xor(sent, detected))


def modulate(labels, b):
    """Map b-bit Gray labels to unit-energy symbols, elementwise.

    A label's bits, most significant first, are the symbol's bits; the
    leading ceil(b/2) drive the real axis.  Labels must be integers in
    [0, 2**b), and b at most MAX_BITS.
    """
    symbols = _tables(b)[0]
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, not {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= len(symbols)):
        raise ValueError(f"labels must lie in [0, {len(symbols)})")
    return symbols[labels]


@lru_cache(maxsize=None)
def _mixed_tables():
    """Geometry and labels of every bit count, for detection with several.

    Returns (I, J, d, labels, offset): I, J (as floats) and d indexed by
    b, entry 0 unused; the label tables of b = 1..MAX_BITS end to end, and
    offset[b] where b's table begins.
    """
    geometry = np.array([(1, 1, 1.0)]
                        + [_geometry(b) for b in range(1, MAX_BITS + 1)])
    tables = [_tables(b)[1] for b in range(1, MAX_BITS + 1)]
    offset = np.cumsum([0, 0] + [len(t) for t in tables[:-1]])
    return (*geometry.T, np.concatenate(tables), offset)


def _detection(b):
    """(I, J, d, labels, offset) of demodulate's bit count b: those of
    the count for one count (offset 0), and per-element arrays read from
    `_mixed_tables` for an integer array of several."""
    if np.ndim(b):
        b = np.asarray(b)
        if b.size and b.min() == b.max():
            b = b.flat[0]
    if not np.ndim(b):
        return (*_geometry(b), _tables(b)[1], 0)
    if b.dtype.kind not in "iu" or (b.size and (b.min() < 1
                                                or b.max() > MAX_BITS)):
        raise ValueError(f"bit counts must be integers in [1, {MAX_BITS}]")
    i_side, j_side, d, labels, offset = _mixed_tables()
    return i_side[b], j_side[b], d[b], labels, offset[b]


def _level(x, levels, d):
    """Nearest PAM level index of equalized coordinates x, as a whole
    float, clipped to the edges (NaN, from 0/0, goes to level 0)."""
    return np.rint(np.fmin(np.fmax((x / d + levels - 1) / 2, 0),
                           levels - 1))


def demodulate(y, gain, amplitude, b):
    """Nearest-neighbor detection after equalizing by gain * amplitude.

    Returns the detected Gray labels, shaped like `y` broadcast against
    `gain`, `amplitude` and `b` (say (M, 1) each for M rows of symbols).
    b is one bit count, or an integer array of them: a row of b-bit
    symbols detects exactly as a call with that b alone.  A zero gain
    marks the stream dead: its symbols demodulate to label 0, which
    against random data counts as ~50% bit errors.  A non-finite sample
    or gain, an amplitude that is not finite and positive, or a b beyond
    MAX_BITS is rejected.
    """
    i_side, j_side, d, labels, offset = _detection(b)
    y = np.asarray(y, dtype=complex)
    gain = np.asarray(gain)
    amplitude = np.asarray(amplitude, dtype=float)
    if not np.all(np.isfinite(amplitude) & (amplitude > 0)):
        raise ValueError("amplitude must be finite and positive")
    if not np.all(np.isfinite(gain)):
        raise ValueError("gain must be finite")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    dead = gain == 0
    x = y / np.where(dead, 1.0, gain * amplitude)
    # Levels and label indices are whole numbers, exact in float: one cast.
    mixed = np.ndim(offset) > 0
    level = _level(x.real, i_side, d)
    if mixed or j_side > 1:
        level *= j_side
        level += _level(x.imag, j_side, d)
    if mixed:
        level += offset
    detected = labels[level.astype(np.int64)]
    return np.where(dead, 0, detected) if np.any(dead) else detected


# ---------------------------------------------------------------------------
# Closed-form error rates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def _qam_terms(b):
    """Signed per-axis weight table of the exact b-bit QAM BER.

    Returns (weights, squares, denom) so that the instantaneous BER is
    (1/b) * sum_t w_t * Q(sqrt(6 * sq_t * snr / denom)), where
    denom = I^2 + J^2 - 2 and sq_t = (2i+1)^2 runs over the
    decision-distance multiples.
    """
    i_side, j_side, _ = _geometry(b)
    weights = []
    squares = []
    for levels in (i_side, j_side):
        if levels == 1:
            continue
        nb = int(math.log2(levels))
        for m in range(1, nb + 1):
            top = int((1 - 2.0**-m) * levels)
            for i in range(top):
                eta = 2 ** (m - 1) - math.floor(i * 2 ** (m - 1) / levels + 0.5)
                sign = (-1) ** math.floor(i * 2 ** (m - 1) / levels)
                weights.append((2.0 / levels) * eta * sign)
                squares.append((2 * i + 1) ** 2)
    return (np.array(weights), np.array(squares, dtype=float),
            i_side**2 + j_side**2 - 2)


@lru_cache(maxsize=None, typed=True)
def _distinct_squares(b):
    """The distinct sq_t of `_qam_terms(b)` and each term's index into them."""
    return np.unique(_qam_terms(b)[1], return_inverse=True)


def ber_awgn_instant(b, post_snr):
    """Exact bit error rate of b-bit Gray QAM at the given symbol SNR.

    Vectorized over post_snr; reduces to Q(sqrt(snr)) for b = 2 (4-QAM).
    b is one bit count, or an integer array of them shaped like post_snr,
    one per SNR; every element then gets the value a call with its b alone
    gives, and Q runs once for all of them.  Q is evaluated once per
    distinct square and gathered back to the term axis, so each sum adds
    the same values in the same order as a per-term evaluation.
    """
    snr = np.asarray(post_snr, dtype=float)
    if not np.all(snr >= 0):
        raise ValueError("post_snr must be nonnegative")
    if not np.ndim(b):
        out, = _ber_terms([(b, snr)])
        return out.item() if np.ndim(post_snr) == 0 else out
    b = np.asarray(b)
    if b.shape != snr.shape or b.dtype.kind not in "iu":
        raise ValueError("an array of bit counts must be integers shaped "
                         "like post_snr")
    out = np.empty(snr.shape)
    loads = [(count, b == count) for count in np.unique(b)]
    for (_, mask), ber in zip(loads, _ber_terms(
            [(count, snr[mask]) for count, mask in loads])):
        out[mask] = ber
    return out


def _ber_terms(groups) -> list:
    """ber_awgn_instant of each (b, snr) group, with one Q call for all."""
    args = []
    for b, snr in groups:
        _, _, denom = _qam_terms(b)
        sq, _ = _distinct_squares(b)
        args.append(np.sqrt(6.0 * sq * snr[..., None] / denom))
    flat = [a.ravel() for a in args]
    q = qfunc(flat[0] if len(flat) == 1 else np.concatenate(flat))
    out = []
    start = 0
    for (b, _), a in zip(groups, args):
        w = _qam_terms(b)[0]
        term = _distinct_squares(b)[1]
        # take, not qb[..., term]: fancy indexing would return the term
        # axis strided, and the sum would then add in another order.
        qb = np.take(q[start:start + a.size].reshape(a.shape), term, axis=-1)
        start += a.size
        out.append((w * qb).sum(axis=-1) / b)
    return out


def _rayleigh_q_mean(beta):
    """E[Q(sqrt(beta * x))] for x ~ Exp(1)."""
    beta = np.asarray(beta, dtype=float)
    return 0.5 * (1.0 - np.sqrt(beta / (beta + 2.0)))


def minil_avg_ber(b, p: float, epsilon: float = 0.0,
                  k_users: int = 1) -> float:
    """Average BER of the aligned equivalent channel at power p.

    The equivalent channel power is unit-mean exponential; transmitter-side
    uncertainty adds residual interference of power eps*(K-1)*p, folded in
    as extra Gaussian noise.  eps = 0 recovers the perfect-knowledge form
    and is independent of k_users.
    """
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"power must be finite and positive, got {p}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    check_count("k_users", k_users)
    w, sq, denom = _qam_terms(b)
    p_eff = p / (epsilon * (k_users - 1) * p + 1.0)
    beta = 6.0 * sq * p_eff / denom
    return float((w * _rayleigh_q_mean(beta)).sum() / b)

@lru_cache(maxsize=None)
def _eigensum_coeffs(n_min: int, n_max: int):
    """Coefficients c_j of the combined eigenmode average.

    sum over the n_min eigenmodes of E[Q(sqrt(beta * x_mode))] equals
    sum_j c_j * J(j, beta) where J(j, beta) = integral of
    x^j e^-x Q(sqrt(beta x)) over the eigenvalue range.  Derived from the
    squared generalized-Laguerre expansion of the unordered-eigenvalue
    density of the (n_min, n_max) Wishart matrix.
    """
    delta = n_max - n_min
    coeffs: dict[int, float] = {}
    for n in range(n_min):
        lead = math.factorial(n) / math.factorial(n + delta)
        for m in range(n + 1):
            for mp in range(n + 1):
                j = m + mp + delta
                c = (lead
                     * (-1) ** (m + mp)
                     * math.comb(n + delta, n - m)
                     * math.comb(n + delta, n - mp)
                     / (math.factorial(m) * math.factorial(mp)))
                coeffs[j] = coeffs.get(j, 0.0) + c
    js = sorted(coeffs)
    return np.array(js), np.array([coeffs[j] for j in js])


def _q_gamma_moment(j: int, beta: float) -> float:
    """integral_0^inf x^j e^-x Q(sqrt(beta x)) dx, closed form."""
    mu = math.sqrt(beta / (beta + 2.0))
    acc = 0.0
    for k in range(j + 1):
        acc += math.comb(2 * k, k) * ((1.0 - mu * mu) / 4.0) ** k
    return math.factorial(j) * 0.5 * (1.0 - mu * acc)


def _q_gamma_moment_shifted(j: int, beta: float, a: float) -> float:
    """Truncated variant e^a int_a^inf (x-a)^j e^-x Q(sqrt(beta x)) dx.

    Equals int_0^inf t^j e^-t Q(sqrt(beta (t + a))) dt, the exact moment
    with every eigenvalue shifted by the uncertainty offset a; evaluated
    by adaptive quadrature and reducing to _q_gamma_moment as a -> 0.
    The only use of scipy in the package, imported here so that nothing
    else loads it.  The integrand keeps scipy's erfc, whose last bits the
    pinned closed-form values were recorded with.
    """
    from scipy.integrate import quad
    from scipy.special import erfc as scipy_erfc

    val, _ = quad(
        lambda t: t**j * math.exp(-t)
        * (0.5 * scipy_erfc(math.sqrt(beta * (t + a)) / math.sqrt(2.0))),
        0.0, np.inf, epsabs=1e-15, epsrel=1e-11, limit=200)
    return val


def svd_avg_ber(b, kp: float, n_min: int, n_max: int,
                epsilon: float = 0.0) -> float:
    """Average BER over the eigenmodes of spatial multiplexing.

    Total power kp is split evenly over the n_min streams; stream i sees
    symbol SNR lam_i^2 * kp / n_min.  The average runs over the ordered
    singular values of the nr x nt unit-variance Gaussian channel.  With
    epsilon > 0 the transmitter precodes on a stale decomposition and the
    series switches to the truncated-integral variant with modified
    per-term SNR; epsilon = 1 is undefined.
    """
    if not (math.isfinite(kp) and kp > 0):
        raise ValueError(f"kp must be finite and positive, got {kp}")
    if n_min < 1 or n_min > n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1) for this expression")
    w, sq, denom = _qam_terms(b)
    js, cj = _eigensum_coeffs(n_min, n_max)
    if epsilon == 0.0:
        betas = 6.0 * sq * kp / (denom * n_min)
        moment = _q_gamma_moment
    else:
        a = epsilon / (1.0 - epsilon)
        betas = (6.0 * sq * (1.0 - epsilon)
                 / (denom * (n_min / kp + (n_min - 1) * epsilon)))
        # The e^a prefactor is folded into the shifted moments.
        moment = lambda j, beta: _q_gamma_moment_shifted(j, beta, a)
    eig = np.array([
        sum(c * moment(int(j), beta) for j, c in zip(js, cj))
        for beta in betas
    ])
    return float((w * eig).sum() / (n_min * b))


@dataclass
class BerEstimate:
    """Monte Carlo error-rate estimate with a 95% confidence half-width.

    Errors cluster by frame (one channel draw covers many bits), so when
    the per-frame ratio variance is supplied the interval is
    cluster-robust; otherwise it falls back to the binomial width.
    """

    bits_sent: int
    bit_errors: int
    ratio_var: float | None = None
    estimate: float = field(init=False)
    ci95: float = field(init=False)
    one_sided: bool = field(init=False, default=False)

    def __post_init__(self):
        if self.bits_sent <= 0:
            raise ValueError("bits_sent must be positive")
        p = self.bit_errors / self.bits_sent
        self.estimate = p
        if self.bit_errors == 0:
            # Rule-of-three upper bound when nothing was observed.
            self.ci95 = 3.0 / self.bits_sent
            self.one_sided = True
        else:
            self.ci95 = 1.96 * self.stderr

    @property
    def stderr(self) -> float:
        if self.ratio_var is not None and self.ratio_var > 0:
            return math.sqrt(self.ratio_var)
        p = max(self.estimate, 1.0 / self.bits_sent)
        return math.sqrt(p * (1.0 - p) / self.bits_sent)

"""Gray-coded rectangular QAM and closed-form error-rate expressions.

Constellations are I x J rectangles (I >= J, both powers of two) built
from independently Gray-coded PAM axes and normalized to unit average
symbol energy.  The closed forms cover: exact instantaneous BER on an
AWGN link, the Rayleigh-faded average for the aligned-network equivalent
channel (with and without transmitter-side channel uncertainty), and the
eigenmode-averaged BER of SVD spatial multiplexing.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc


def qfunc(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


def _gray(n: int) -> int:
    return n ^ (n >> 1)


@dataclass(frozen=True)
class ConstellationShape:
    """Rectangular QAM geometry with unit average symbol energy."""

    i_side: int
    j_side: int

    def __post_init__(self):
        for side in (self.i_side, self.j_side):
            if side < 1 or side & (side - 1):
                raise ValueError("constellation sides must be powers of two")
        if self.i_side < self.j_side:
            raise ValueError("expected i_side >= j_side")
        if self.i_side * self.j_side < 2:
            raise ValueError("constellation must carry at least one bit")

    @property
    def bits(self) -> int:
        return int(math.log2(self.i_side * self.j_side))

    @property
    def half_spacing(self) -> float:
        """PAM half-spacing giving unit average symbol energy."""
        return math.sqrt(3.0 / (self.i_side**2 + self.j_side**2 - 2))

    @property
    def i_bits(self) -> int:
        return int(math.log2(self.i_side))

    @property
    def j_bits(self) -> int:
        return int(math.log2(self.j_side))


def shape_for_bits(b: int) -> ConstellationShape:
    """Squarest I x J rectangle for b bits (I = 2^ceil(b/2), J = 2^floor(b/2))."""
    if b < 1:
        raise ValueError("bit count must be >= 1")
    if b > 6:
        raise ValueError("shapes beyond 64-QAM are not supported")
    return ConstellationShape(2 ** math.ceil(b / 2), 2 ** math.floor(b / 2))


@lru_cache(maxsize=None)
def _pam_tables(levels: int):
    """(inverse-Gray, Gray) lookup tables for one PAM axis."""
    inv = np.zeros(levels, dtype=np.int64)
    fwd = np.zeros(levels, dtype=np.int64)
    for lv in range(levels):
        fwd[lv] = _gray(lv)
        inv[_gray(lv)] = lv
    return inv, fwd


def _bits_to_int(bits: np.ndarray) -> np.ndarray:
    nb = bits.shape[-1]
    weights = 1 << np.arange(nb - 1, -1, -1)
    return bits @ weights


def _int_to_bits(vals: np.ndarray, nb: int) -> np.ndarray:
    shifts = np.arange(nb - 1, -1, -1)
    return (vals[..., None] >> shifts) & 1


def _pam_modulate(bits: np.ndarray, levels: int, d: float) -> np.ndarray:
    inv, _ = _pam_tables(levels)
    lv = inv[_bits_to_int(bits)]
    return (2 * lv - levels + 1) * d


def _pam_demodulate(x: np.ndarray, levels: int, d: float) -> np.ndarray:
    _, fwd = _pam_tables(levels)
    lv = np.rint((x / d + levels - 1) / 2).astype(np.int64)
    np.clip(lv, 0, levels - 1, out=lv)
    return fwd[lv]


def modulate(bits, shape: ConstellationShape) -> np.ndarray:
    """Map Gray-labeled bits to unit-energy symbols.

    Accepts a single word of shape.bits bits or an (n, shape.bits) array;
    the leading ceil(b/2) bits drive the real axis.
    """
    bits = np.asarray(bits, dtype=np.int64)
    single = bits.ndim == 1
    words = bits.reshape(-1, shape.bits)
    d = shape.half_spacing
    re = _pam_modulate(words[:, : shape.i_bits], shape.i_side, d)
    if shape.j_side > 1:
        im = _pam_modulate(words[:, shape.i_bits:], shape.j_side, d)
    else:
        im = np.zeros_like(re)
    sym = re + 1j * im
    return sym[0] if single else sym


def demodulate(y, gain, amplitude, shape: ConstellationShape) -> np.ndarray:
    """Nearest-neighbor detection after equalizing by gain * amplitude.

    `gain` and `amplitude` may be scalars or arrays that broadcast against
    `y` (say (M, 1) for M rows of symbols); the result has the broadcast
    shape plus a trailing axis of shape.bits bits.  A zero gain marks the
    stream dead: its symbols demodulate to all-zero bits, which against
    random data count as ~50% errors.  A non-finite gain, or an amplitude
    that is not finite and positive, is rejected.
    """
    y = np.asarray(y, dtype=complex)
    gain = np.asarray(gain)
    amplitude = np.asarray(amplitude, dtype=float)
    if not np.all(np.isfinite(amplitude) & (amplitude > 0)):
        raise ValueError("amplitude must be finite and positive")
    if not np.all(np.isfinite(gain)):
        raise ValueError("gain must be finite")
    dead = gain == 0
    x = y / np.where(dead, 1.0, gain * amplitude)
    single = x.ndim == 0
    x = np.atleast_1d(x)
    lab_i = _pam_demodulate(x.real, shape.i_side, shape.half_spacing)
    bits = [_int_to_bits(lab_i, shape.i_bits)]
    if shape.j_side > 1:
        lab_j = _pam_demodulate(x.imag, shape.j_side, shape.half_spacing)
        bits.append(_int_to_bits(lab_j, shape.j_bits))
    out = np.concatenate(bits, axis=-1)
    if np.any(dead):
        out[np.broadcast_to(dead, x.shape)] = 0
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Closed-form error rates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _qam_terms(i_side: int, j_side: int):
    """Signed per-axis weight table of the exact rectangular-QAM BER.

    Returns (weights, squares) so that the instantaneous BER is
    (1/b) * sum_t w_t * Q(sqrt(6 * sq_t * snr / (I^2 + J^2 - 2))),
    where sq_t = (2i+1)^2 runs over the decision-distance multiples.
    """
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
    return np.array(weights), np.array(squares, dtype=float)


def ber_awgn_instant(shape: ConstellationShape, post_snr):
    """Exact bit error rate of Gray rectangular QAM at the given symbol SNR.

    Vectorized over post_snr; reduces to Q(sqrt(snr)) for the 2x2 shape.
    """
    w, sq = _qam_terms(shape.i_side, shape.j_side)
    snr = np.asarray(post_snr, dtype=float)
    if np.any(snr < 0):
        raise ValueError("post_snr must be nonnegative")
    denom = shape.i_side**2 + shape.j_side**2 - 2
    args = np.sqrt(6.0 * sq * snr[..., None] / denom)
    out = (w * qfunc(args)).sum(axis=-1) / shape.bits
    return out.item() if np.ndim(post_snr) == 0 else out


def _rayleigh_q_mean(beta):
    """E[Q(sqrt(beta * x))] for x ~ Exp(1)."""
    beta = np.asarray(beta, dtype=float)
    return 0.5 * (1.0 - np.sqrt(beta / (beta + 2.0)))


def minil_avg_ber(shape: ConstellationShape, p: float, epsilon: float = 0.0,
                  k_users: int = 1) -> float:
    """Average BER of the aligned equivalent channel at power p.

    The equivalent channel power is unit-mean exponential; transmitter-side
    uncertainty adds residual interference of power eps*(K-1)*p, folded in
    as extra Gaussian noise.  eps = 0 recovers the perfect-knowledge form
    and is independent of k_users.
    """
    if p <= 0:
        raise ValueError("power must be positive")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    w, sq = _qam_terms(shape.i_side, shape.j_side)
    denom = shape.i_side**2 + shape.j_side**2 - 2
    p_eff = p / (epsilon * (k_users - 1) * p + 1.0)
    beta = 6.0 * sq * p_eff / denom
    return float((w * _rayleigh_q_mean(beta)).sum() / shape.bits)

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
    """
    val, _ = quad(
        lambda t: t**j * math.exp(-t) * qfunc(math.sqrt(beta * (t + a))),
        0.0, np.inf, epsabs=1e-15, epsrel=1e-11, limit=200)
    return val


def svd_avg_ber(shape: ConstellationShape, kp: float, n_min: int, n_max: int,
                epsilon: float = 0.0) -> float:
    """Average BER over the eigenmodes of spatial multiplexing.

    Total power kp is split evenly over the n_min streams; stream i sees
    symbol SNR lam_i^2 * kp / n_min.  The average runs over the ordered
    singular values of the nr x nt unit-variance Gaussian channel.  With
    epsilon > 0 the transmitter precodes on a stale decomposition and the
    series switches to the truncated-integral variant with modified
    per-term SNR; epsilon = 1 is undefined.
    """
    if kp <= 0:
        raise ValueError("kp must be positive")
    if n_min < 1 or n_min > n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1) for this expression")
    w, sq = _qam_terms(shape.i_side, shape.j_side)
    denom = shape.i_side**2 + shape.j_side**2 - 2
    js, cj = _eigensum_coeffs(n_min, n_max)
    if epsilon == 0.0:
        betas = 6.0 * sq * kp / (denom * n_min)
        moment = _q_gamma_moment
    else:
        a = epsilon / (1.0 - epsilon)
        betas = (6.0 * sq * (1.0 - epsilon)
                 / (denom * (n_min / kp + (n_min - 1) * epsilon)))
        # The e^a prefactor is folded into the shifted moments.
        moment = lambda j, b: _q_gamma_moment_shifted(j, b, a)
    eig = np.array([
        sum(c * moment(int(j), b) for j, c in zip(js, cj)) for b in betas
    ])
    return float((w * eig).sum() / (n_min * shape.bits))


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
    one_sided: bool = False

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

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

import oracles
from conftest import assert_same_bytes
from iasim.modem import (MAX_BITS, BerEstimate, ber_awgn_instant,
                         bit_errors, demodulate, erfc, minil_avg_ber,
                         modulate, qfunc, svd_avg_ber, _eigensum_coeffs,
                         _q_gamma_moment, _tables, _MAXLOG)
from oracles import complex_normal


class TestShapes:
    @pytest.mark.parametrize("b,i_side,j_side", [(1, 2, 1), (2, 2, 2),
                                                 (3, 4, 2), (4, 4, 4),
                                                 (5, 8, 4), (6, 8, 8)])
    def test_squarest_rectangle_for_bits(self, b, i_side, j_side):
        sym = modulate(np.arange(2**b), b)
        assert len(np.unique(sym.real.round(12))) == i_side
        assert len(np.unique(sym.imag.round(12))) == j_side

    @pytest.mark.parametrize("b", [0, 7, 8, 9, True, 2.5, np.float64(2)],
                             ids=["0", "7", "8", "9", "True", "2.5",
                                  "float64"])
    def test_bad_bit_count_rejected(self, b):
        # Valid b = 1 and 2 are cached first, also as numpy integers,
        # whose cache keys a bool or float of equal value would match:
        # neither may reach a cached table.  Labels are uint8 and
        # bit_errors counts 6 bits: a 7-bit or wider constellation would
        # wrap labels or index past the popcount table.
        for ok in (1, 2, np.int64(1), np.int64(2)):
            modulate([0, 1], ok)
            minil_avg_ber(ok, 10.0)
        calls = [lambda: modulate([0, 1], b),
                 lambda: demodulate(np.ones(2), 1.0, 1.0, b),
                 lambda: ber_awgn_instant(b, 1.0),
                 lambda: minil_avg_ber(b, 10.0),
                 lambda: svd_avg_ber(b, 10.0, 2, 2)]
        for call in calls:
            with pytest.raises(ValueError, match="bit count"):
                call()

    def test_numpy_integer_bit_count_accepted(self):
        b = np.int64(2)
        y = modulate(np.arange(4), b)
        assert np.array_equal(y, modulate(np.arange(4), 2))
        assert np.array_equal(demodulate(y, 1.0, 1.0, b), np.arange(4))
        assert ber_awgn_instant(b, 3.0) == ber_awgn_instant(2, 3.0)
        assert minil_avg_ber(b, 10.0) == minil_avg_ber(2, 10.0)
        assert svd_avg_ber(b, 10.0, 2, 2) == svd_avg_ber(2, 10.0, 2, 2)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_unit_average_energy_exact(self, b):
        sym = modulate(np.arange(2**b), b)
        assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0, rel=1e-12)


class TestModulateDemodulate:
    @pytest.mark.parametrize("b", range(1, 7))
    def test_round_trip_noiseless(self, b, rng):
        labels = rng.integers(0, 2**b, 500)
        gain = 1.7 * np.exp(1j * 0.9)
        y = modulate(labels, b) * gain * 2.5
        assert np.array_equal(demodulate(y, gain, 2.5, b), labels)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_round_trip_exhaustive(self, b):
        labels = np.arange(2**b)
        for dtype in (np.uint8, np.int64):
            back = demodulate(modulate(labels.astype(dtype), b), 1.0, 1.0, b)
            assert np.array_equal(back, labels)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_label_bits_are_axis_gray_codes(self, b):
        # The leading ceil(b/2) bits of a label are the Gray code of its
        # real-axis level, the trailing ones that of its imaginary level.
        i_side, j_side, d, _, j_bits = oracles.constellation_geometry(b)
        labels = np.arange(2**b)
        sym = modulate(labels, b)
        lv_i = np.rint((sym.real / d + i_side - 1) / 2).astype(int)
        lv_j = np.rint((sym.imag / d + j_side - 1) / 2).astype(int)
        assert np.array_equal(labels >> j_bits, lv_i ^ (lv_i >> 1))
        assert np.array_equal(labels & (j_side - 1), lv_j ^ (lv_j >> 1))

    def test_single_word_shape(self):
        y = modulate(5, 3)
        assert np.ndim(y) == 0
        assert demodulate(y, 1.0, 1.0, 3) == 5

    def test_bpsk_phase_equalized(self):
        for theta in (0.0, 0.4, 2.1, -2.8):
            g = np.exp(1j * theta)
            labels = np.array([0, 1])
            y = modulate(labels, 1) * g
            assert np.array_equal(demodulate(y, g, 1.0, 1), labels)

    def test_dead_stream_outputs_fixed_bits(self, rng):
        y = complex_normal(rng, 100)
        out = demodulate(y, 0.0, 1.0, 2)
        assert np.all(out == 0)
        assert demodulate(y[0], 0.0, 1.0, 2) == 0

    @pytest.mark.parametrize("b", range(1, 7))
    def test_per_row_gain_and_amplitude(self, b, rng):
        # Row m equalizes by its own gain and amplitude, exactly as a
        # one-row call does; a row of gain 0 is dead and reads label 0.
        gain = complex_normal(rng, (5, 1))
        gain[2] = 0.0
        amp = rng.uniform(0.5, 3.0, (5, 1))
        y = complex_normal(rng, (5, 40)) * 3.0
        out = demodulate(y, gain, amp, b)
        assert out.shape == (5, 40)
        for m in range(5):
            assert np.array_equal(out[m],
                                  demodulate(y[m], gain[m, 0], amp[m, 0], b))
        assert np.all(out[2] == 0)
        assert np.any(out[[0, 1, 3, 4]] != 0)

    @staticmethod
    def _corner(y, b):
        """Label of the corner symbol in the quadrant of each sample."""
        y = np.asarray(y)
        return demodulate(10 * (np.sign(y.real) + 1j * np.sign(y.imag)),
                          1.0, 1.0, b)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_huge_coordinates_decode_to_nearest_edge(self, b):
        y = 1e30 * np.array([1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j])
        assert np.array_equal(demodulate(y, 1.0, 1.0, b),
                              self._corner(y, b))
        if b == 2:
            assert demodulate([1e30 + 1e30j], 1.0, 1.0, b)[0] == 3

    @pytest.mark.parametrize("b", range(1, 7))
    def test_underflowed_equalizer_decodes_to_nearest_edge(self, b):
        # gain * amplitude underflows to 0, so y divides to +-inf.
        y = np.array([0.5 + 2j, -1 - 0.1j, 3 - 1j, -0.2 + 0.7j])
        with np.errstate(divide="ignore", over="ignore"):
            got = demodulate(y, 1e-300, 1e-10, b)
        assert np.array_equal(got, self._corner(y, b))

    @pytest.mark.parametrize("b", range(1, 7))
    def test_levels_unchanged_within_int64(self, b, rng):
        # Clipping before the cast decides every coordinate that fits in
        # int64 as casting first did, so error counts cannot move.
        i_side, j_side, d, _, _ = oracles.constellation_geometry(b)
        x = np.concatenate([rng.uniform(-3, 3, 2000),
                            rng.uniform(-1e15, 1e15, 200),
                            np.arange(-8, 8.5, 0.5) * d])
        y = x[:, None] + 1j * x[None, ::7]
        labels = _tables(b)[1]

        def old_level(v, levels):
            z = (v / d + levels - 1) / 2
            return np.clip(np.rint(z).astype(np.int64), 0, levels - 1)

        level = old_level(y.real, i_side)
        if j_side > 1:
            level = level * j_side + old_level(y.imag, j_side)
        assert np.array_equal(demodulate(y, 1.0, 1.0, b), labels[level])

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), 0.0,
                                           -1.0, [1.0, float("nan")]])
    def test_bad_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            demodulate(np.ones(2), 1.0, amplitude, 2)

    @pytest.mark.parametrize("gain", [float("nan"), complex(0, float("inf")),
                                      [1.0, float("nan")]])
    def test_nonfinite_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="gain"):
            demodulate(np.ones(2), gain, 1.0, 2)

    @pytest.mark.parametrize("y", [[float("nan"), float("inf")],
                                   complex(0, float("nan")),
                                   [1.0, -float("inf")],
                                   [[0.5], [complex(float("inf"), 1.0)]]])
    @pytest.mark.parametrize("gain", [1.0, 0.0])
    def test_nonfinite_samples_rejected(self, y, gain):
        with pytest.raises(ValueError, match="y"):
            demodulate(y, gain, 1.0, 2)

    @pytest.mark.parametrize("labels", [-1, [0, -1], 4, [3, 4], [0, 64],
                                        2**40])
    def test_out_of_range_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must lie in"):
            modulate(labels, 2)

    @pytest.mark.parametrize("labels", [0.7, 1.0, [0.0, 1.0], True,
                                        [1 + 0j], "1"])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            modulate(labels, 2)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_gray_adjacency_exhaustive(self, b):
        # Nearest-neighbor symbol pairs differ in exactly one bit.
        labels = np.arange(2**b)
        sym = modulate(labels, b)
        d2 = np.abs(sym[:, None] - sym[None, :]) ** 2
        np.fill_diagonal(d2, np.inf)
        dmin = d2.min()
        i, j = np.nonzero(np.isclose(d2, dmin))
        assert i.size >= 2**b
        assert np.all(bit_errors(labels[i], labels[j]) == 1)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_bit_errors_match_bitwise_comparison(self, b):
        # For every (sent, detected) label pair the popcount count equals
        # the number of differing bits of the two words.
        labels = np.arange(2**b)
        sent, detected = np.meshgrid(labels, labels, indexing="ij")
        words = oracles.labels_to_bits(labels, b)
        want = (words[:, None] != words[None, :]).sum(axis=-1)
        assert np.array_equal(bit_errors(sent, detected), want)
        assert np.array_equal(
            bit_errors(sent.astype(np.uint8), detected.astype(np.uint8)),
            want)
        assert np.array_equal(oracles.bits_to_labels(words), labels)


class TestBerAwgnInstant:
    def test_qpsk_reduces_to_q(self):
        for g in (0.0, 0.5, 3.0, 10.0, 25.0):
            assert ber_awgn_instant(2, g) == pytest.approx(
                float(qfunc(math.sqrt(g))), rel=1e-12)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_half_at_zero_snr(self, b):
        assert ber_awgn_instant(b, 0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("b,snr", [(1, 4.0), (2, 10.0), (3, 10.0),
                                       (4, 20.0), (6, 60.0)])
    def test_matches_awgn_monte_carlo(self, b, snr):
        r = np.random.default_rng(1000 + b)
        n = 200_000
        labels = oracles.bits_to_labels(r.integers(0, 2, (n, b)))
        x = modulate(labels, b) * math.sqrt(snr)
        y = x + (r.standard_normal(n) + 1j * r.standard_normal(n)) / math.sqrt(2)
        back = demodulate(y, 1.0, math.sqrt(snr), b)
        mc = bit_errors(labels, back).sum() / (n * b)
        cf = ber_awgn_instant(b, snr)
        se = math.sqrt(cf * (1 - cf) / (n * b))
        assert abs(mc - cf) <= 3 * se

    def test_monotone_in_snr(self):
        grid = np.linspace(0, 30, 200)
        for b in range(1, 7):
            vals = ber_awgn_instant(b, grid)
            assert np.all(np.diff(vals) <= 1e-15)
            assert vals[0] == pytest.approx(0.5)
            assert np.all(vals >= 0)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            ber_awgn_instant(2, -1.0)

    @pytest.mark.parametrize("snr", [np.nan, [1.0, np.nan]])
    def test_nan_snr_rejected(self, snr):
        # nan < 0 is False, so a sign test alone let NaN through.
        with pytest.raises(ValueError, match="post_snr"):
            ber_awgn_instant(2, snr)
        assert ber_awgn_instant(2, np.inf) == 0.0


class TestQfuncPort:
    # qfunc runs on the package's numpy port of Cephes erfc; scipy wraps
    # the same approximation and is the oracle.  The erfc coordinate
    # x / sqrt(2) crosses the port's range boundaries at 1 and 8 and
    # underflows to 0 where its square passes MAXLOG (26.64).
    EDGES = np.sqrt(2.0) * np.concatenate([
        np.linspace(1.0 - 1e-6, 1.0 + 1e-6, 201),
        np.linspace(8.0 - 1e-6, 8.0 + 1e-6, 201),
        np.linspace(26.55, 26.65, 2001),
    ])
    GRID = np.concatenate([np.linspace(0.0, 40.0, 40001), EDGES])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_scipy(self, sign):
        x = sign * self.GRID
        got, want = qfunc(x), oracles.qfunc(x)
        assert np.array_equal(got == 0, want == 0)
        pos = want > 0
        assert np.max(np.abs(got[pos] - want[pos]) / want[pos]) <= 1e-14
        if sign > 0:
            assert 0 < np.sum(want == 0) < len(x)

    def test_special_values(self):
        got = qfunc(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]))
        assert np.isnan(got[0])
        assert np.array_equal(got[1:], [0.0, 1.0, 0.5, 0.5])
        assert np.isnan(qfunc(np.nan))
        assert ber_awgn_instant(2, np.inf) == 0.0

    def test_shapes(self):
        assert qfunc(np.ones((2, 3))).shape == (2, 3)
        assert np.ndim(qfunc(1.0)) == 0
        assert float(qfunc(1.0)) == float(oracles.qfunc(1.0))

    @pytest.mark.parametrize("b", range(1, 7))
    def test_ber_equals_per_term_sum(self, b):
        # Q is evaluated once per distinct argument; every sum must still
        # add the per-term values in the per-term order.
        snr = np.concatenate([[0.0], np.logspace(-3, 3.5, 400),
                              [1e4, 1e6, 1e12, np.inf]])
        for s in (snr, snr[:400].reshape(5, 80)):
            assert np.array_equal(ber_awgn_instant(b, s),
                                  oracles.ber_awgn_per_term(b, s))
        for x in (0.0, 37.5, 1e6, np.inf):
            assert ber_awgn_instant(b, x) == oracles.ber_awgn_per_term(b, x)


class TestFusedForms:
    # The range-split erfc, the one-call detect and prediction, and the
    # popcount against their forms in oracles, byte for byte.
    SPECIAL = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
         1e-310, 1e300, -1e300]
        + [s * np.nextafter(e, e + t) for e in (1.0, 8.0, np.sqrt(_MAXLOG))
           for t in (-1.0, 0.0, 1.0) for s in (1.0, -1.0)])

    def test_erfc_special_values(self):
        for x in (self.SPECIAL, self.SPECIAL.reshape(-1, 1)[::2]):
            assert_same_bytes(erfc(x), oracles.erfc_all_ranges(x))
        for x in self.SPECIAL:
            assert_same_bytes(erfc(x), oracles.erfc_all_ranges(x))
            assert_same_bytes(qfunc(x), 0.5 * oracles.erfc_all_ranges(
                np.asarray(x) / np.sqrt(2.0)))

    def test_erfc_wide_grid(self, rng):
        x = np.concatenate([TestQfuncPort.GRID, -TestQfuncPort.GRID,
                            rng.standard_normal(20_000) * 12,
                            np.exp(rng.uniform(-700, 700, 2000))])
        assert_same_bytes(erfc(x), oracles.erfc_all_ranges(x))
        assert_same_bytes(erfc(x[:80_000].reshape(400, 200)[:, ::3]),
                          oracles.erfc_all_ranges(
                              x[:80_000].reshape(400, 200)[:, ::3]))

    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2),
                        elements=st.floats(allow_nan=True,
                                           allow_infinity=True)))
    @settings(max_examples=200, deadline=None)
    def test_erfc_bytes_match_all_ranges(self, x):
        # NaN stays NaN, but its sign bit may differ: numpy's SIMD exp
        # sets it by where a NaN sits among the elements of its call, and
        # a range's elements are a different array than the whole.
        got, want = erfc(x), oracles.erfc_all_ranges(x)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert_same_bytes(np.where(nan, 0.0, got), np.where(nan, 0.0, want))

    def test_bit_errors_match_popcount_table(self):
        labels = np.arange(2**MAX_BITS, dtype=np.uint8)
        sent, detected = np.meshgrid(labels, labels, indexing="ij")
        assert_same_bytes(bit_errors(sent, detected),
                          oracles.POPCOUNT[np.bitwise_xor(sent, detected)])

    @pytest.mark.parametrize("loads", [[3], [1, 2, 3, 4, 5, 6], [2, 4],
                                       [6, 1]])
    def test_one_call_detect_matches_per_count(self, loads, rng):
        # Rows of several bit counts in one call detect as each count's
        # rows do alone, dead rows (gain 0) and huge coordinates included.
        m = 60
        b = rng.choice(loads, (m, 1))
        gain = complex_normal(rng, (m, 1))
        gain[::7] = 0.0
        amp = rng.uniform(0.2, 3.0, (m, 1))
        y = complex_normal(rng, (m, 100)) * 2.0
        y[3, :4] = [1e30, -1e30j, 1e-300, -0.0]
        got = demodulate(y, gain, amp, b)
        assert got.dtype == np.uint8 and got.shape == (m, 100)
        for count in np.unique(b):
            rows = np.flatnonzero(b[:, 0] == count)
            want = oracles.demodulate_per_count(y[rows], gain[rows], amp[rows],
                                                int(count))
            assert_same_bytes(got[rows], want)
            assert_same_bytes(demodulate(y[rows], gain[rows], amp[rows],
                                         int(count)), want)
        assert np.all(got[::7] == 0)

    @pytest.mark.parametrize("b", [np.array([[1], [2.0]]),
                                   np.array([[True], [False]]),
                                   np.array([[0], [2]]), np.array([[2], [7]])])
    def test_bad_bit_count_array_rejected(self, b):
        with pytest.raises(ValueError, match="bit count"):
            demodulate(np.ones((2, 3)), 1.0, 1.0, b)
        with pytest.raises(ValueError, match="bit count"):
            ber_awgn_instant(b, np.ones(b.shape))

    def test_ber_per_element_counts_match_per_count_calls(self, rng):
        b = rng.integers(1, MAX_BITS + 1, (50, 4))
        snr = rng.exponential(30.0, (50, 4))
        snr[0] = [0.0, np.inf, 1e-300, 1e12]
        got = ber_awgn_instant(b, snr)
        for count in range(1, MAX_BITS + 1):
            mask = b == count
            assert_same_bytes(got[mask], ber_awgn_instant(count, snr[mask]))
        with pytest.raises(ValueError, match="shaped like"):
            ber_awgn_instant(b[:, :2], snr)


class TestMinilAvgBer:
    def test_qpsk_closed_reduction(self):
        for p in (0.5, 1.0, 10.0, 1e3, 1e6):
            want = 0.5 * (1 - math.sqrt(p / (p + 2)))
            assert minil_avg_ber(2, p) == pytest.approx(want, rel=1e-12)

    def test_high_snr_inverse_power(self):
        # 1/(2P) asymptote: at P=1e3 the closed form lies in [4.9e-4, 5.1e-4]
        v = minil_avg_ber(2, 1e3)
        assert 0.00049 <= v <= 0.00051

    def test_uncertainty_floor(self):
        # P -> inf limit is 0.5*(1 - sqrt(1/(1 + 2 eps (K-1)))) for 4-QAM
        eps, k = 0.05, 3
        limit = 0.5 * (1 - math.sqrt(1 / (1 + 2 * eps * (k - 1))))
        v = minil_avg_ber(2, 1e6, eps, k)
        assert abs(v - limit) < 1e-4

    def test_perfect_csit_independent_of_k(self):
        vals = {minil_avg_ber(3, 25.0, 0.0, k) for k in (1, 2, 5, 9)}
        assert len(vals) == 1

    def test_is_rayleigh_average_of_instant(self):
        # independent oracle: numeric quadrature over the exponential law
        p = 12.0
        want, _ = quad(lambda x: ber_awgn_instant(3, x * p) * np.exp(-x),
                       0, np.inf)
        assert minil_avg_ber(3, p) == pytest.approx(want, rel=1e-8)

    def test_monotone_and_bounded(self):
        ps = np.logspace(-1, 4, 40)
        vals = [minil_avg_ber(2, p, 0.1, 3) for p in ps]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 0.5 for v in vals)

    @pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf])
    def test_non_finite_power_rejected(self, p):
        with pytest.raises(ValueError, match="power must be finite"):
            minil_avg_ber(2, p)

    @pytest.mark.parametrize("k_users", [float("nan"), 2.5, 0, True])
    def test_bad_user_count_rejected(self, k_users):
        # A bare `< 1` test let NaN through as a NaN BER and 2.5 through
        # as a BER of a network that cannot exist.
        with pytest.raises(ValueError, match="k_users"):
            minil_avg_ber(2, 10.0, 0.1, k_users)


class TestSvdAvgBer:
    @pytest.mark.parametrize("kp", [np.nan, np.inf, -np.inf])
    def test_non_finite_power_rejected(self, kp):
        # An infinite kp used to return NaN after a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="kp must be finite"):
                svd_avg_ber(2, kp, 2, 2)

    def test_siso_reduces_to_rayleigh_average(self):
        # n_min = n_max = 1: one exponential eigenvalue at power KP
        for kp in (2.0, 20.0):
            want = 0.5 * (1 - math.sqrt(kp / (kp + 2)))
            assert svd_avg_ber(2, kp, 1, 1) == pytest.approx(want, rel=1e-10)

    def test_eigensum_matches_sampled_wishart(self, rng):
        # oracle: brute-force singular-value sampling
        for n_min, n_max in ((2, 2), (2, 3)):
            h = complex_normal(rng, (150_000, n_max, n_min))
            lam2 = np.linalg.svd(h, compute_uv=False) ** 2
            for beta in (1.0, 10.0):
                mc = float(qfunc(np.sqrt(beta * lam2)).sum(axis=1).mean())
                js, cj = _eigensum_coeffs(n_min, n_max)
                cf = sum(c * _q_gamma_moment(int(j), beta)
                         for j, c in zip(js, cj))
                assert mc == pytest.approx(cf, rel=0.02)

    def test_matches_brute_force_expectation(self, rng):
        # The series equals E over eigenvalues of the exact instantaneous
        # BER with per-stream power KP/n_min.
        n = 2
        h = complex_normal(rng, (400_000, n, n))
        lam2 = np.linalg.svd(h, compute_uv=False) ** 2
        for kp in (3.0, 30.0):
            bf = ber_awgn_instant(3, lam2 * (kp / n)).mean()
            assert svd_avg_ber(3, kp, n, n) == pytest.approx(bf, rel=0.02)

    def test_high_snr_smallest_eigenmode_scale(self):
        # Dominated by the min eigenmode (exponential with rate N): the
        # exact average approaches (1/N) * 0.5*(1 - sqrt(KP/(KP + 2 N^2))).
        n, k, p = 2, 3, 1e3
        kp = k * p
        dominant = 0.5 * (1 - math.sqrt(kp / (kp + 2 * n * n))) / n
        v = svd_avg_ber(2, kp, n, n)
        assert v == pytest.approx(dominant, rel=0.05)

    def test_uncertainty_continuity_at_zero(self):
        for n_min, n_max in ((1, 1), (2, 2), (2, 3)):
            a = svd_avg_ber(3, 30.0, n_min, n_max, 0.0)
            b = svd_avg_ber(3, 30.0, n_min, n_max, 1e-10)
            assert abs(a - b) / a < 1e-8

    def test_uncertainty_monotone_and_bounded(self):
        vals = [svd_avg_ber(2, 30.0, 2, 2, e)
                for e in (0.0, 0.05, 0.2, 0.5, 0.9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0 < v < 0.5 for v in vals)

    def test_uncertainty_envelope_against_link_simulation(self, rng):
        # The uncertainty variant replaces the fuzzed per-stream gain by
        # its conditional mean, so it under-predicts the physical link a
        # bit; assert the envelope rather than exactness.
        kp, eps, n = 30.0, 0.05, 2
        frames, uses = 40_000, 10
        errors = 0
        total = 0
        for start in range(0, frames, 10_000):
            hh = complex_normal(rng, (10_000, n, n))
            w = complex_normal(rng, (10_000, n, n))
            h = np.sqrt(1 - eps) * hh + np.sqrt(eps) * w
            u, s, vh = np.linalg.svd(hh)
            g = u.conj().swapaxes(1, 2) @ h @ vh.conj().swapaxes(1, 2)
            for f in range(10_000):
                bits = rng.integers(0, 2, (n, uses, 2))
                labels = oracles.bits_to_labels(bits)
                x = np.stack([modulate(labels[i], 2) for i in range(n)])
                y = g[f] @ (math.sqrt(kp / n) * x) + complex_normal(rng, (n, uses))
                for i in range(n):
                    back = demodulate(y[i], g[f, i, i], math.sqrt(kp / n), 2)
                    errors += bit_errors(labels[i], back).sum()
                    total += bits[i].size
        mc = errors / total
        cf = svd_avg_ber(2, kp, n, n, eps)
        assert svd_avg_ber(2, kp, n, n, 0.0) < cf < mc
        assert mc / cf < 2.0

    def test_epsilon_one_rejected(self):
        with pytest.raises(ValueError):
            svd_avg_ber(2, 10.0, 2, 2, 1.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            svd_avg_ber(2, 10.0, 3, 2)
        with pytest.raises(ValueError):
            svd_avg_ber(2, -1.0, 2, 2)


class TestBerEstimate:
    def test_basic_fields(self):
        est = BerEstimate(bits_sent=10_000, bit_errors=100)
        assert est.estimate == pytest.approx(0.01)
        binom = 1.96 * math.sqrt(0.01 * 0.99 / 10_000)
        assert est.ci95 == pytest.approx(binom, rel=1e-9)
        assert not est.one_sided

    def test_zero_errors_one_sided(self):
        est = BerEstimate(bits_sent=1_000_000, bit_errors=0)
        assert est.estimate == 0.0
        assert est.one_sided
        assert est.ci95 == pytest.approx(3e-6)

    def test_one_sided_is_derived_not_set(self):
        # Only a zero-error run is one-sided; callers cannot claim it.
        with pytest.raises(TypeError):
            BerEstimate(bits_sent=10_000, bit_errors=100, one_sided=True)
        assert BerEstimate(bits_sent=10_000, bit_errors=100).one_sided is False

    def test_cluster_variance_used(self):
        est = BerEstimate(bits_sent=10_000, bit_errors=100, ratio_var=4e-6)
        assert est.ci95 == pytest.approx(1.96 * 2e-3, rel=1e-9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            BerEstimate(bits_sent=0, bit_errors=0)

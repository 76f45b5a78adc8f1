import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from iasim.modem import (BerEstimate, ConstellationShape, ber_awgn_instant,
                         bit_errors, demodulate, minil_avg_ber,
                         modulate, qfunc, shape_for_bits, svd_avg_ber,
                         _eigensum_coeffs, _q_gamma_moment, _tables)
from iasim.network import complex_normal


class TestShapes:
    def test_shape_for_bits(self):
        assert shape_for_bits(2) == ConstellationShape(2, 2)
        assert shape_for_bits(1) == ConstellationShape(2, 1)
        assert shape_for_bits(3) == ConstellationShape(4, 2)
        assert shape_for_bits(4) == ConstellationShape(4, 4)
        assert shape_for_bits(6) == ConstellationShape(8, 8)
        with pytest.raises(ValueError):
            shape_for_bits(0)
        with pytest.raises(ValueError):
            shape_for_bits(7)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            ConstellationShape(3, 2)
        with pytest.raises(ValueError):
            ConstellationShape(2, 4)
        with pytest.raises(ValueError):
            ConstellationShape(1, 1)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_unit_average_energy_exact(self, b):
        sh = shape_for_bits(b)
        sym = modulate(np.arange(2**b), sh)
        assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0, rel=1e-12)


class TestModulateDemodulate:
    @pytest.mark.parametrize("b", range(1, 7))
    def test_round_trip_noiseless(self, b, rng):
        sh = shape_for_bits(b)
        labels = rng.integers(0, 2**b, 500)
        gain = 1.7 * np.exp(1j * 0.9)
        y = modulate(labels, sh) * gain * 2.5
        assert np.array_equal(demodulate(y, gain, 2.5, sh), labels)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_round_trip_exhaustive(self, b):
        sh = shape_for_bits(b)
        labels = np.arange(2**b)
        for dtype in (np.uint8, np.int64):
            back = demodulate(modulate(labels.astype(dtype), sh), 1.0, 1.0, sh)
            assert np.array_equal(back, labels)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_label_bits_are_axis_gray_codes(self, b):
        # The leading ceil(b/2) bits of a label are the Gray code of its
        # real-axis level, the trailing ones that of its imaginary level.
        sh = shape_for_bits(b)
        labels = np.arange(2**b)
        sym = modulate(labels, sh)
        d = sh.half_spacing
        lv_i = np.rint((sym.real / d + sh.i_side - 1) / 2).astype(int)
        lv_j = np.rint((sym.imag / d + sh.j_side - 1) / 2).astype(int)
        assert np.array_equal(labels >> sh.j_bits, lv_i ^ (lv_i >> 1))
        assert np.array_equal(labels & (sh.j_side - 1), lv_j ^ (lv_j >> 1))

    def test_single_word_shape(self):
        sh = shape_for_bits(3)
        y = modulate(5, sh)
        assert np.ndim(y) == 0
        assert demodulate(y, 1.0, 1.0, sh) == 5

    def test_bpsk_phase_equalized(self):
        sh = shape_for_bits(1)
        for theta in (0.0, 0.4, 2.1, -2.8):
            g = np.exp(1j * theta)
            labels = np.array([0, 1])
            y = modulate(labels, sh) * g
            assert np.array_equal(demodulate(y, g, 1.0, sh), labels)

    def test_dead_stream_outputs_fixed_bits(self, rng):
        sh = shape_for_bits(2)
        y = complex_normal(rng, 100)
        out = demodulate(y, 0.0, 1.0, sh)
        assert np.all(out == 0)
        assert demodulate(y[0], 0.0, 1.0, sh) == 0

    @pytest.mark.parametrize("b", range(1, 7))
    def test_per_row_gain_and_amplitude(self, b, rng):
        # Row m equalizes by its own gain and amplitude, exactly as a
        # one-row call does; a row of gain 0 is dead and reads label 0.
        sh = shape_for_bits(b)
        gain = complex_normal(rng, (5, 1))
        gain[2] = 0.0
        amp = rng.uniform(0.5, 3.0, (5, 1))
        y = complex_normal(rng, (5, 40)) * 3.0
        out = demodulate(y, gain, amp, sh)
        assert out.shape == (5, 40)
        for m in range(5):
            assert np.array_equal(out[m],
                                  demodulate(y[m], gain[m, 0], amp[m, 0], sh))
        assert np.all(out[2] == 0)
        assert np.any(out[[0, 1, 3, 4]] != 0)

    @staticmethod
    def _corner(y, sh):
        """Label of the corner symbol in the quadrant of each sample."""
        y = np.asarray(y)
        return demodulate(10 * (np.sign(y.real) + 1j * np.sign(y.imag)),
                          1.0, 1.0, sh)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_huge_coordinates_decode_to_nearest_edge(self, b):
        sh = shape_for_bits(b)
        y = 1e30 * np.array([1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j])
        assert np.array_equal(demodulate(y, 1.0, 1.0, sh),
                              self._corner(y, sh))
        if b == 2:
            assert demodulate([1e30 + 1e30j], 1.0, 1.0, sh)[0] == 3

    @pytest.mark.parametrize("b", range(1, 7))
    def test_underflowed_equalizer_decodes_to_nearest_edge(self, b):
        # gain * amplitude underflows to 0, so y divides to +-inf.
        sh = shape_for_bits(b)
        y = np.array([0.5 + 2j, -1 - 0.1j, 3 - 1j, -0.2 + 0.7j])
        with np.errstate(divide="ignore", over="ignore"):
            got = demodulate(y, 1e-300, 1e-10, sh)
        assert np.array_equal(got, self._corner(y, sh))

    @pytest.mark.parametrize("b", range(1, 7))
    def test_levels_unchanged_within_int64(self, b, rng):
        # Clipping before the cast decides every coordinate that fits in
        # int64 as casting first did, so error counts cannot move.
        sh = shape_for_bits(b)
        x = np.concatenate([rng.uniform(-3, 3, 2000),
                            rng.uniform(-1e15, 1e15, 200),
                            np.arange(-8, 8.5, 0.5) * sh.half_spacing])
        y = x[:, None] + 1j * x[None, ::7]
        labels = _tables(sh)[1]

        def old_level(v, levels):
            z = (v / sh.half_spacing + levels - 1) / 2
            return np.clip(np.rint(z).astype(np.int64), 0, levels - 1)

        level = old_level(y.real, sh.i_side)
        if sh.j_side > 1:
            level = level * sh.j_side + old_level(y.imag, sh.j_side)
        assert np.array_equal(demodulate(y, 1.0, 1.0, sh), labels[level])

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), 0.0,
                                           -1.0, [1.0, float("nan")]])
    def test_bad_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            demodulate(np.ones(2), 1.0, amplitude, shape_for_bits(2))

    @pytest.mark.parametrize("gain", [float("nan"), complex(0, float("inf")),
                                      [1.0, float("nan")]])
    def test_nonfinite_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="gain"):
            demodulate(np.ones(2), gain, 1.0, shape_for_bits(2))

    @pytest.mark.parametrize("y", [[float("nan"), float("inf")],
                                   complex(0, float("nan")),
                                   [1.0, -float("inf")],
                                   [[0.5], [complex(float("inf"), 1.0)]]])
    @pytest.mark.parametrize("gain", [1.0, 0.0])
    def test_nonfinite_samples_rejected(self, y, gain):
        with pytest.raises(ValueError, match="y"):
            demodulate(y, gain, 1.0, shape_for_bits(2))

    @pytest.mark.parametrize("labels", [-1, [0, -1], 4, [3, 4], [0, 64],
                                        2**40])
    def test_out_of_range_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must lie in"):
            modulate(labels, shape_for_bits(2))

    @pytest.mark.parametrize("labels", [0.7, 1.0, [0.0, 1.0], True,
                                        [1 + 0j], "1"])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            modulate(labels, shape_for_bits(2))

    @pytest.mark.parametrize("shape", [ConstellationShape(16, 8),
                                       ConstellationShape(16, 16),
                                       ConstellationShape(32, 16)])
    def test_shapes_beyond_64qam_rejected(self, shape):
        # Labels are uint8 and bit_errors counts 6 bits: a 7-bit or wider
        # shape would wrap labels or index past the popcount table.
        with pytest.raises(ValueError, match="64-QAM"):
            modulate([0, 1], shape)
        with pytest.raises(ValueError, match="64-QAM"):
            demodulate(np.ones(2), 1.0, 1.0, shape)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_gray_adjacency_exhaustive(self, b):
        # Nearest-neighbor symbol pairs differ in exactly one bit.
        sh = shape_for_bits(b)
        labels = np.arange(2**b)
        sym = modulate(labels, sh)
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
        sh = ConstellationShape(2, 2)
        for g in (0.0, 0.5, 3.0, 10.0, 25.0):
            assert ber_awgn_instant(sh, g) == pytest.approx(
                float(qfunc(math.sqrt(g))), rel=1e-12)

    @pytest.mark.parametrize("b", range(1, 7))
    def test_half_at_zero_snr(self, b):
        assert ber_awgn_instant(shape_for_bits(b), 0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("b,snr", [(1, 4.0), (2, 10.0), (3, 10.0),
                                       (4, 20.0), (6, 60.0)])
    def test_matches_awgn_monte_carlo(self, b, snr):
        sh = shape_for_bits(b)
        r = np.random.default_rng(1000 + b)
        n = 200_000
        labels = oracles.bits_to_labels(r.integers(0, 2, (n, b)))
        x = modulate(labels, sh) * math.sqrt(snr)
        y = x + (r.standard_normal(n) + 1j * r.standard_normal(n)) / math.sqrt(2)
        back = demodulate(y, 1.0, math.sqrt(snr), sh)
        mc = bit_errors(labels, back).sum() / (n * b)
        cf = ber_awgn_instant(sh, snr)
        se = math.sqrt(cf * (1 - cf) / (n * b))
        assert abs(mc - cf) <= 3 * se

    def test_monotone_in_snr(self):
        grid = np.linspace(0, 30, 200)
        for b in range(1, 7):
            vals = ber_awgn_instant(shape_for_bits(b), grid)
            assert np.all(np.diff(vals) <= 1e-15)
            assert vals[0] == pytest.approx(0.5)
            assert np.all(vals >= 0)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            ber_awgn_instant(shape_for_bits(2), -1.0)


class TestMinilAvgBer:
    def test_qpsk_closed_reduction(self):
        sh = ConstellationShape(2, 2)
        for p in (0.5, 1.0, 10.0, 1e3, 1e6):
            want = 0.5 * (1 - math.sqrt(p / (p + 2)))
            assert minil_avg_ber(sh, p) == pytest.approx(want, rel=1e-12)

    def test_high_snr_inverse_power(self):
        # 1/(2P) asymptote: at P=1e3 the closed form lies in [4.9e-4, 5.1e-4]
        v = minil_avg_ber(ConstellationShape(2, 2), 1e3)
        assert 0.00049 <= v <= 0.00051

    def test_uncertainty_floor(self):
        # P -> inf limit is 0.5*(1 - sqrt(1/(1 + 2 eps (K-1)))) for 4-QAM
        eps, k = 0.05, 3
        limit = 0.5 * (1 - math.sqrt(1 / (1 + 2 * eps * (k - 1))))
        v = minil_avg_ber(ConstellationShape(2, 2), 1e6, eps, k)
        assert abs(v - limit) < 1e-4

    def test_perfect_csit_independent_of_k(self):
        sh = shape_for_bits(3)
        vals = {minil_avg_ber(sh, 25.0, 0.0, k) for k in (1, 2, 5, 9)}
        assert len(vals) == 1

    def test_is_rayleigh_average_of_instant(self):
        # independent oracle: numeric quadrature over the exponential law
        sh = shape_for_bits(3)
        p = 12.0
        want, _ = quad(lambda x: ber_awgn_instant(sh, x * p) * np.exp(-x),
                       0, np.inf)
        assert minil_avg_ber(sh, p) == pytest.approx(want, rel=1e-8)

    def test_monotone_and_bounded(self):
        sh = shape_for_bits(2)
        ps = np.logspace(-1, 4, 40)
        vals = [minil_avg_ber(sh, p, 0.1, 3) for p in ps]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 0.5 for v in vals)


class TestSvdAvgBer:
    def test_siso_reduces_to_rayleigh_average(self):
        # n_min = n_max = 1: one exponential eigenvalue at power KP
        sh = ConstellationShape(2, 2)
        for kp in (2.0, 20.0):
            want = 0.5 * (1 - math.sqrt(kp / (kp + 2)))
            assert svd_avg_ber(sh, kp, 1, 1) == pytest.approx(want, rel=1e-10)

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
        sh = shape_for_bits(3)
        n = 2
        h = complex_normal(rng, (400_000, n, n))
        lam2 = np.linalg.svd(h, compute_uv=False) ** 2
        for kp in (3.0, 30.0):
            bf = ber_awgn_instant(sh, lam2 * (kp / n)).mean()
            assert svd_avg_ber(sh, kp, n, n) == pytest.approx(bf, rel=0.02)

    def test_high_snr_smallest_eigenmode_scale(self):
        # Dominated by the min eigenmode (exponential with rate N): the
        # exact average approaches (1/N) * 0.5*(1 - sqrt(KP/(KP + 2 N^2))).
        n, k, p = 2, 3, 1e3
        kp = k * p
        dominant = 0.5 * (1 - math.sqrt(kp / (kp + 2 * n * n))) / n
        v = svd_avg_ber(ConstellationShape(2, 2), kp, n, n)
        assert v == pytest.approx(dominant, rel=0.05)

    def test_uncertainty_continuity_at_zero(self):
        sh = shape_for_bits(3)
        for n_min, n_max in ((1, 1), (2, 2), (2, 3)):
            a = svd_avg_ber(sh, 30.0, n_min, n_max, 0.0)
            b = svd_avg_ber(sh, 30.0, n_min, n_max, 1e-10)
            assert abs(a - b) / a < 1e-8

    def test_uncertainty_monotone_and_bounded(self):
        sh = ConstellationShape(2, 2)
        vals = [svd_avg_ber(sh, 30.0, 2, 2, e)
                for e in (0.0, 0.05, 0.2, 0.5, 0.9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0 < v < 0.5 for v in vals)

    def test_uncertainty_envelope_against_link_simulation(self, rng):
        # The uncertainty variant replaces the fuzzed per-stream gain by
        # its conditional mean, so it under-predicts the physical link a
        # bit; assert the envelope rather than exactness.
        sh = ConstellationShape(2, 2)
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
                x = np.stack([modulate(labels[i], sh) for i in range(n)])
                y = g[f] @ (math.sqrt(kp / n) * x) + complex_normal(rng, (n, uses))
                for i in range(n):
                    back = demodulate(y[i], g[f, i, i], math.sqrt(kp / n), sh)
                    errors += bit_errors(labels[i], back).sum()
                    total += bits[i].size
        mc = errors / total
        cf = svd_avg_ber(sh, kp, n, n, eps)
        assert svd_avg_ber(sh, kp, n, n, 0.0) < cf < mc
        assert mc / cf < 2.0

    def test_epsilon_one_rejected(self):
        with pytest.raises(ValueError):
            svd_avg_ber(shape_for_bits(2), 10.0, 2, 2, 1.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            svd_avg_ber(shape_for_bits(2), 10.0, 3, 2)
        with pytest.raises(ValueError):
            svd_avg_ber(shape_for_bits(2), -1.0, 2, 2)


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

    def test_cluster_variance_used(self):
        est = BerEstimate(bits_sent=10_000, bit_errors=100, ratio_var=4e-6)
        assert est.ci95 == pytest.approx(1.96 * 2e-3, rel=1e-9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            BerEstimate(bits_sent=0, bit_errors=0)

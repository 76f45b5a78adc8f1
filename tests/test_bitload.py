import itertools

import numpy as np
import pytest

from iasim import simulate
from iasim.bitload import greedy_bitload_table
from iasim.linalg import unit
from iasim.modem import MAX_BITS, ber_awgn_instant
from iasim.network import NetworkConfig
from iasim.simulate import (Design, _ber_table, _design, _init_slots,
                            _sample_frames, _stream_design, _stream_gains)
from iasim.solvers import IaSolution
from oracles import (complex_normal, greedy_bitload, predicted_per_count,
                     sinr_prediction, table_prediction)


def weighted_ber(bits, ber_of, r):
    return sum(ber_of(i, b) * b for i, b in enumerate(bits) if b > 0) / r


def exhaustive_best(ber_of, n, r, cap=6):
    best, best_obj = None, np.inf
    for combo in itertools.product(range(min(r, cap) + 1), repeat=n):
        if sum(combo) != r:
            continue
        obj = weighted_ber(combo, ber_of, r)
        if obj < best_obj:
            best, best_obj = combo, obj
    return np.array(best), best_obj


def table_bitload(ber_of, n, r):
    """greedy_bitload_table on one frame whose BER table comes from ber_of."""
    levels = range(1, min(r, MAX_BITS) + 1)
    table = np.array([[ber_of(i, b) for b in levels] for i in range(n)])
    return greedy_bitload_table(table[None], r)[0]


def snr_oracle(gains, kp, r):
    def ber_of(i, b):
        return ber_awgn_instant(b, gains[i] * (kp / r) * b)
    return ber_of


class TestGreedy:
    def test_single_bit(self):
        ber_of = snr_oracle([0.2, 2.0, 1.0], 30.0, 1)
        bits = table_bitload(ber_of, 3, 1)
        assert list(bits) == [0, 1, 0]

    def test_dead_channel_gets_nothing(self):
        # channel 2 gain zero: any bit there costs 0.5 per bit
        ber_of = snr_oracle([1.0, 0.0], 20.0, 4)
        bits = table_bitload(ber_of, 2, 4)
        assert list(bits) == [4, 0]
        want, _ = exhaustive_best(ber_of, 2, 4)
        assert np.array_equal(bits, want)

    def test_equal_gains_uniform_split(self):
        # three unit gains, R=6, power keeping 4-QAM operable
        ber_of = snr_oracle([1.0, 1.0, 1.0], 60.0, 6)
        bits = table_bitload(ber_of, 3, 6)
        assert list(bits) == [2, 2, 2]
        want, _ = exhaustive_best(ber_of, 3, 6)
        assert np.array_equal(bits, want)

    def test_budget_exactness_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            r = int(rng.integers(1, min(6 * n, 10) + 1))
            gains = rng.gamma(1.0, 1.0, n)
            bits = table_bitload(snr_oracle(gains, 30.0, r), n, r)
            assert bits.sum() == r
            assert np.all(bits >= 0) and np.all(bits <= 6)

    def test_greedy_not_worse_than_uniform(self, rng):
        for _ in range(20):
            gains = rng.gamma(1.0, 1.0, 3)
            ber_of = snr_oracle(gains, 40.0, 6)
            bits = table_bitload(ber_of, 3, 6)
            assert (weighted_ber(bits, ber_of, 6)
                    <= weighted_ber([2, 2, 2], ber_of, 6) + 1e-15)

    def test_each_step_is_argmin(self, rng):
        # replay the greedy path and re-evaluate all candidates per step
        gains = rng.gamma(1.0, 1.0, 3)
        r = 6
        ber_of = snr_oracle(gains, 25.0, r)
        bits = np.zeros(3, dtype=int)
        final = table_bitload(ber_of, 3, r)
        for _ in range(r):
            objs = []
            for i in range(3):
                trial = bits.copy()
                trial[i] += 1
                objs.append(weighted_ber(trial, ber_of, r)
                            if trial[i] <= 6 else np.inf)
            bits[int(np.argmin(objs))] += 1
        assert np.array_equal(bits, final)

    def test_tie_break_lowest_index(self):
        ber_of = snr_oracle([1.0, 1.0], 20.0, 1)
        assert list(table_bitload(ber_of, 2, 1)) == [1, 0]

    def test_rate_budget_rejected(self):
        with pytest.raises(ValueError):
            table_bitload(snr_oracle([1.0], 10.0, 7), 1, 7)

    def test_non_finite_oracle_rejected(self):
        with pytest.raises(ValueError):
            table_bitload(lambda i, b: np.nan, 2, 3)

    def test_table_variant_matches_scalar(self, rng):
        kp, r = 35.0, 6
        for _ in range(25):
            gains = rng.gamma(1.0, 1.0, (1, 3))
            table = np.stack([
                ber_awgn_instant(b, gains * (kp / r) * b)
                for b in range(1, 7)], axis=-1)
            got = greedy_bitload_table(table, r)[0]
            want = greedy_bitload(snr_oracle(gains[0], kp, r), 3, r)
            assert np.array_equal(got, want)


def engine_design(cfg, mode, frame=0, edit=None):
    """The engine's loaded design(s) and pick for one frame.

    Channels and precoder initialisations come from the frame's own
    substream; `edit(h_hat)` may change the channel estimate in place
    before the design sees it.
    """
    _, h_hat, _, inits = _sample_frames(cfg, [frame], len(_init_slots(mode)))
    if edit is not None:
        edit(h_hat[0])
    designs, pick = _design(cfg, mode, True, h_hat,
                            np.array([frame % cfg.k_pairs]), inits)
    return designs, pick, h_hat


def svd_bits(cfg, direct):
    """Engine-loaded SVD-SM bits for an active direct estimate `direct`."""
    def edit(h_hat):
        h_hat[0, 0] = direct
    (design,), _, _ = engine_design(cfg, "svd", edit=edit)
    return design.bits[0]


def design_gains(design, h_hat):
    return _stream_gains(h_hat, design, np.arange(len(h_hat)))


class TestLoadIa:
    @pytest.fixture
    def cfg(self):
        return NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0,
                             rate_per_pair=2, seed=5)

    def test_load_minil_budget_and_power(self, cfg):
        (design,), _, h_hat = engine_design(cfg, "minil")
        bits = design.bits[0]
        assert bits.sum() == cfg.total_rate
        assert design.powers[0].sum() == pytest.approx(
            cfg.k_pairs * cfg.power_p)
        # predicted equals the weighted-average definition
        z = np.diagonal(design_gains(design, h_hat)[0])
        ber_of = snr_oracle(np.abs(z) ** 2, cfg.k_pairs * cfg.power_p,
                            cfg.total_rate)
        assert design.predicted[0] == pytest.approx(
            weighted_ber(bits, ber_of, cfg.total_rate))

    def test_load_minil_equal_gains_uniform(self, cfg, monkeypatch):
        # A MinIL solution whose direct gains z are all 1.
        def solve(h, powers, iterations, init_v):
            return IaSolution(v=init_v, u=np.ones((1, 3, 2)),
                              z=np.ones((1, 3)), leakage=None, sinr=None,
                              per_channel_power=None)

        monkeypatch.setattr(simulate, "minil_solve_batch", solve)
        _, h_hat, _, _ = _sample_frames(cfg, [0], 0)
        design = _stream_design(cfg, "minil", h_hat, np.zeros(1, dtype=int),
                                np.ones((1, 3, 2)), True)
        assert list(design.bits[0]) == [2, 2, 2]

    def test_load_svd_rank_one_beamforms(self, cfg, rng):
        u = complex_normal(rng, 2)[:, None]
        v = complex_normal(rng, 2)[None, :]
        bits = svd_bits(cfg, u @ v)
        assert bits[1] == 0
        assert bits[0] == cfg.total_rate

    def test_load_svd_dominant_eigenmode_low_rate(self, rng):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=0.5,
                            rate_per_pair=1, seed=5)
        bits = svd_bits(cfg, np.diag([2.0, 0.2]))
        assert list(bits) == [3, 0]  # all bits on the strong eigenmode

    def test_load_svd_symmetric_split(self, cfg):
        assert list(svd_bits(cfg, np.eye(2))) == [3, 3]

    def test_load_maxsinr_redesign(self, cfg):
        (design,), _, h_hat = engine_design(cfg, "maxsinr", frame=3)
        bits, p = design.bits[0], design.powers[0]
        assert bits.sum() == cfg.total_rate
        # the re-designed solution carries the loaded powers: each combiner
        # is the SINR maximizer for them, and the prediction uses the
        # SINRs they give
        kp = cfg.k_pairs * cfg.power_p
        assert np.allclose(p, kp / cfg.total_rate * bits)
        h, u, v = h_hat[0], design.rx[0], design.tx[0]
        g = design_gains(design, h_hat)[0]
        sinr = np.empty(3)
        for k in range(3):
            b = np.eye(2, dtype=complex)
            for l in range(3):
                if l != k:
                    t = h[k, l] @ v[l]
                    b += p[l] * np.outer(t, t.conj())
            want = unit(np.linalg.solve(b, h[k, k] @ v[k]))
            assert abs(np.vdot(want, u[k])) == pytest.approx(1.0, abs=1e-9)
            interference = sum(p[l] * abs(g[k, l]) ** 2
                               for l in range(3) if l != k)
            sinr[k] = p[k] * abs(g[k, k]) ** 2 / (1.0 + interference)
        want = sum(ber_awgn_instant(int(b), s) * b
                   for b, s in zip(bits, sinr) if b) / cfg.total_rate
        assert design.predicted[0] == pytest.approx(want, rel=1e-9)

    def test_load_maxsinr_k1_all_bits_single_channel(self):
        cfg = NetworkConfig(k_pairs=1, nt=2, nr=2, power_p=10.0,
                            rate_per_pair=2, seed=9)
        (design,), _, _ = engine_design(cfg, "maxsinr")
        assert list(design.bits[0]) == [2]

    def test_load_maxsinr_strong_pair_gets_more(self, cfg):
        # scale one pair's direct channel so its SINR towers over the rest
        def edit(h_hat):
            h_hat[1, 1] *= 30.0
        (design,), _, _ = engine_design(cfg, "maxsinr", frame=4, edit=edit)
        bits = design.bits[0]
        assert bits[1] > max(bits[0], bits[2])


class TestPrediction:
    """Each loaded design's predicted BER against the forms it replaced."""

    def designed(self, monkeypatch, mode, power_p, rate_per_pair):
        """The engine's loaded design over 300 frames, and the last
        solution its solver returned (None for SVD-SM)."""
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=power_p,
                            rate_per_pair=rate_per_pair, seed=4)
        solved = []

        def recording(solve):
            def wrapped(*args):
                solved.append(solve(*args))
                return solved[-1]
            return wrapped

        for name in ("minil_solve_batch", "maxsinr_solve_batch"):
            monkeypatch.setattr(simulate, name,
                                recording(getattr(simulate, name)))
        frames = range(300)
        _, h_hat, _, inits = _sample_frames(cfg, frames,
                                            len(_init_slots(mode)))
        active = np.array(frames) % cfg.k_pairs
        (design,), _ = _design(cfg, mode, True, h_hat, active, inits)
        return cfg, design, solved[-1] if solved else None, h_hat, active

    @pytest.mark.parametrize("power_p", [0.3, 10.0, 1e3])
    @pytest.mark.parametrize("rate_per_pair", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["minil", "svd"])
    def test_loaded_prediction_equals_table_lookup(
            self, monkeypatch, mode, power_p, rate_per_pair):
        cfg, design, sol, h_hat, active = self.designed(
            monkeypatch, mode, power_p, rate_per_pair)
        if mode == "minil":
            gains_sq = np.abs(sol.z) ** 2
        else:
            _, s, _ = np.linalg.svd(
                h_hat[np.arange(len(active)), active, active])
            gains_sq = s[:, :cfg.n_min] ** 2
        kp, r = cfg.k_pairs * cfg.power_p, cfg.total_rate
        want = table_prediction(_ber_table(gains_sq, kp, r), design.bits, r)
        assert np.array_equal(design.predicted, want)

    @pytest.mark.parametrize("power_p", [0.3, 10.0, 1e3])
    @pytest.mark.parametrize("rate_per_pair", [1, 2, 4])
    def test_maxsinr_prediction_matches_per_bit_count_sum(
            self, monkeypatch, power_p, rate_per_pair):
        # Only the order of the sum over channels differs.
        cfg, design, sol, _, _ = self.designed(
            monkeypatch, "maxsinr", power_p, rate_per_pair)
        want = sinr_prediction(design.bits, sol.sinr, cfg.total_rate)
        assert np.allclose(design.predicted, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("power_p", [0.3, 10.0, 1e3])
    @pytest.mark.parametrize("rate_per_pair", [1, 2, 4])
    def test_maxsinr_prediction_bytes_match_per_count_calls(
            self, monkeypatch, power_p, rate_per_pair):
        # One Q call for all bit counts gives every channel the bytes of
        # one ber_awgn_instant call per count.
        cfg, design, sol, _, _ = self.designed(
            monkeypatch, "maxsinr", power_p, rate_per_pair)
        want = predicted_per_count(design.bits, sol.sinr, cfg.total_rate)
        assert design.predicted.tobytes() == want.tobytes()


class TestSelectMode:
    @pytest.fixture
    def cfg(self):
        return NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0,
                             rate_per_pair=2, seed=5)

    def pick(self, cfg, monkeypatch, minil, maxsinr, svd):
        """The mode and design of the engine's adaptive pick when the
        loaded designs predict the given BERs."""
        preds = {"minil": minil, "maxsinr": maxsinr, "svd": svd}
        designed = []

        def fake(cfg, mode, *args):
            designed.append(mode)
            return Design(None, None, None, np.array([[2, 2, 2]]),
                          np.array([[10.0, 10.0, 10.0]]),
                          np.array([preds[mode]]))

        monkeypatch.setattr(simulate, "_stream_design", fake)
        _, h_hat, _, inits = _sample_frames(cfg, [0], 2)
        designs, pick = _design(cfg, "adaptive", True, h_hat,
                                np.zeros(1, dtype=int), inits)
        return designed[pick[0]], designs[pick[0]]

    def test_lowest_wins(self, cfg, monkeypatch):
        mode, d = self.pick(cfg, monkeypatch, 0.0, 0.1, 0.2)
        assert mode == "minil" and d.predicted[0] == 0.0
        assert self.pick(cfg, monkeypatch, 0.3, 0.1, 0.2)[0] == "maxsinr"
        assert self.pick(cfg, monkeypatch, 0.3, 0.25, 0.2)[0] == "svd"

    def test_three_way_tie_prefers_maxsinr(self, cfg, monkeypatch):
        mode, _ = self.pick(cfg, monkeypatch, 0.05, 0.05, 0.05)
        assert mode == "maxsinr"

    def test_two_way_tie_prefers_svd_over_minil(self, cfg, monkeypatch):
        mode, _ = self.pick(cfg, monkeypatch, 0.05, 0.09, 0.05)
        assert mode == "svd"

    def test_decision_carries_allocation(self, cfg):
        # On live designs each frame picks its lowest prediction, and the
        # frame is sent with the picked design's bits.
        frames = range(40)
        _, h_hat, _, inits = _sample_frames(cfg, frames, 2)
        active = np.array(frames) % 3
        designs, pick = _design(cfg, "adaptive", True, h_hat, active, inits)
        preds = np.stack([d.predicted for d in designs])
        assert np.array_equal(preds[pick, np.arange(40)], preds.min(axis=0))
        assert len(set(pick)) > 1
        counts = simulate.run_frames(cfg, "adaptive", frames, loading=True)
        for i, j in enumerate(pick):
            d = designs[j]
            sent = np.bincount(d.pair[i], weights=d.bits[i], minlength=3)
            assert np.array_equal(counts[i, :, 0], simulate.FRAME_USES * sent)

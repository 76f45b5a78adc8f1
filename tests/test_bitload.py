import itertools

import numpy as np
import pytest

from iasim import simulate
from iasim.bitload import MAX_BITS_PER_CHANNEL, greedy_bitload_table
from iasim.linalg import unit
from iasim.modem import ber_awgn_instant, shape_for_bits
from iasim.network import NetworkConfig, complex_normal
from iasim.simulate import (Design, _design, _load, _sample_frames,
                            _stream_gains)
from oracles import greedy_bitload


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
    levels = range(1, min(r, MAX_BITS_PER_CHANNEL) + 1)
    table = np.array([[ber_of(i, b) for b in levels] for i in range(n)])
    return greedy_bitload_table(table[None], r)[0]


def snr_oracle(gains, kp, r):
    def ber_of(i, b):
        return ber_awgn_instant(shape_for_bits(b), gains[i] * (kp / r) * b)
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
                ber_awgn_instant(shape_for_bits(b), gains * (kp / r) * b)
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
    rngs, h_hat, _ = _sample_frames(cfg, [frame])
    if edit is not None:
        edit(h_hat[0])
    designs, pick = _design(cfg, mode, True, rngs, h_hat,
                            np.array([frame % cfg.k_pairs]))
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

    def test_load_minil_equal_gains_uniform(self, cfg):
        bits, _ = _load(np.ones((1, 3)), cfg.k_pairs * cfg.power_p,
                        cfg.total_rate)
        assert list(bits[0]) == [2, 2, 2]

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
        want = sum(ber_awgn_instant(shape_for_bits(int(b)), s) * b
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


class TestSelectMode:
    @pytest.fixture
    def cfg(self):
        return NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0,
                             rate_per_pair=2, seed=5)

    def pick(self, cfg, monkeypatch, minil, maxsinr, svd):
        """The engine's adaptive pick when the loaded designs predict the
        given BERs."""
        preds = {"minil": minil, "maxsinr": maxsinr, "svd": svd}

        def fake(mode):
            return Design(mode, None, None, None, np.array([[2, 2, 2]]),
                          np.array([[10.0, 10.0, 10.0]]),
                          np.array([preds[mode]]))

        monkeypatch.setattr(simulate, "_ia_design",
                            lambda cfg, mode, *args: fake(mode))
        monkeypatch.setattr(simulate, "_svd_design",
                            lambda *args: fake("svd"))
        rngs, h_hat, _ = _sample_frames(cfg, [0])
        designs, pick = _design(cfg, "adaptive", True, rngs, h_hat,
                                np.zeros(1, dtype=int))
        return designs[pick[0]]

    def test_lowest_wins(self, cfg, monkeypatch):
        d = self.pick(cfg, monkeypatch, 0.0, 0.1, 0.2)
        assert d.mode == "minil" and d.predicted[0] == 0.0
        assert self.pick(cfg, monkeypatch, 0.3, 0.1, 0.2).mode == "maxsinr"
        assert self.pick(cfg, monkeypatch, 0.3, 0.25, 0.2).mode == "svd"

    def test_three_way_tie_prefers_maxsinr(self, cfg, monkeypatch):
        d = self.pick(cfg, monkeypatch, 0.05, 0.05, 0.05)
        assert d.mode == "maxsinr"

    def test_two_way_tie_prefers_svd_over_minil(self, cfg, monkeypatch):
        d = self.pick(cfg, monkeypatch, 0.05, 0.09, 0.05)
        assert d.mode == "svd"

    def test_decision_carries_allocation(self, cfg):
        # On live designs each frame picks its lowest prediction, and the
        # frame is sent with the picked design's bits.
        frames = range(40)
        rngs, h_hat, _ = _sample_frames(cfg, frames)
        active = np.array(frames) % 3
        designs, pick = _design(cfg, "adaptive", True, rngs, h_hat, active)
        preds = np.stack([d.predicted for d in designs])
        assert np.array_equal(preds[pick, np.arange(40)], preds.min(axis=0))
        assert len(set(pick)) > 1
        counts = simulate.run_frames(cfg, "adaptive", frames, loading=True)
        for i, j in enumerate(pick):
            d = designs[j]
            sent = np.bincount(d.pair[i], weights=d.bits[i], minlength=3)
            assert np.array_equal(counts[i, :, 0], simulate.FRAME_USES * sent)

import numpy as np
import pytest

from iasim.modem import minil_avg_ber, shape_for_bits
from iasim.network import NetworkConfig
from iasim.simulate import (FRAME_USES, _design, _sample_frames,
                            analytic_ber, check_mode_config, estimate_ber,
                            fig1_stats, run_frames, sweep)


@pytest.fixture
def cfg():
    return NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0,
                         rate_per_pair=2, seed=7)


class TestReproducibility:
    @pytest.mark.parametrize("mode,loading", [
        ("minil", False), ("maxsinr", False), ("svd", False),
        ("minil", True), ("maxsinr", True), ("svd", True),
        ("adaptive", True),
    ])
    def test_batch_equals_per_frame(self, cfg, mode, loading):
        batch = run_frames(cfg, mode, range(8), loading=loading)
        for i in range(8):
            single = run_frames(cfg, mode, range(i, i + 1), loading=loading)
            assert np.array_equal(batch[i], single[0])

    def test_partition_invariance(self, cfg):
        joint = run_frames(cfg, "maxsinr", range(30))
        parts = np.vstack([run_frames(cfg, "maxsinr", range(0, 11)),
                           run_frames(cfg, "maxsinr", range(11, 30))])
        assert np.array_equal(joint, parts)

    def test_same_seed_identical_estimates(self, cfg):
        a = estimate_ber(cfg, "minil", 10.0, target_errors=50,
                         max_bits=200_000)
        b = estimate_ber(cfg, "minil", 10.0, target_errors=50,
                         max_bits=200_000)
        assert (a.bits_sent, a.bit_errors) == (b.bits_sent, b.bit_errors)

    def test_worker_count_invariance(self, cfg):
        a = estimate_ber(cfg, "minil", 5.0, target_errors=50,
                         max_bits=120_000, chunk_frames=100, workers=1)
        b = estimate_ber(cfg, "minil", 5.0, target_errors=50,
                         max_bits=120_000, chunk_frames=100, workers=3)
        assert (a.bits_sent, a.bit_errors) == (b.bits_sent, b.bit_errors)


class TestAccounting:
    def test_rate_per_frame_exact(self, cfg):
        # every frame carries exactly K * rate_per_pair bits per use
        for mode, loading in (("minil", False), ("maxsinr", True),
                              ("svd", False), ("svd", True),
                              ("adaptive", True)):
            counts = run_frames(cfg, mode, range(6), loading=loading)
            per_frame_bits = counts[:, :, 0].sum(axis=1)
            assert np.all(per_frame_bits == cfg.total_rate * FRAME_USES)

    def test_power_budget(self, cfg):
        # loaded channel powers sum to KP exactly; unloaded modes transmit
        # K streams at power P (or one pair at KP), so the average energy
        # per channel use stays at KP within sampling noise.
        for mode, loading in (("minil", True), ("maxsinr", True),
                              ("svd", True), ("adaptive", True)):
            rngs, h_hat, h = _sample_frames(cfg, range(12))
            active = np.array([i % 3 for i in range(12)])
            designs, pick = _design(cfg, mode, loading, rngs, h_hat, active)
            kp = cfg.k_pairs * cfg.power_p
            for i, j in enumerate(pick):
                assert designs[j].powers[i].sum() == pytest.approx(kp)

    @pytest.mark.parametrize("mode", ["minil", "maxsinr", "svd", "adaptive"])
    def test_counts_carry_picked_bits(self, cfg, mode):
        # A frame's bits sent are FRAME_USES times the bits its picked
        # design loads on each stream, credited to the stream's pair.
        frames = range(5)
        rngs, h_hat, _ = _sample_frames(cfg, frames)
        active = np.array(frames) % cfg.k_pairs
        designs, pick = _design(cfg, mode, True, rngs, h_hat, active)
        counts = run_frames(cfg, mode, frames, loading=True)
        for i, j in enumerate(pick):
            d = designs[j]
            sent = np.bincount(d.pair[i], weights=d.bits[i],
                               minlength=cfg.k_pairs)
            assert np.array_equal(counts[i, :, 0], FRAME_USES * sent)
            assert 0.0 <= d.predicted[i] <= 0.5


class TestPhysicalLimits:
    def test_noise_free_aligned_network_is_error_free(self):
        # Converged alignment at huge power: interference-free and
        # noise-negligible, so no bit errors.
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=1e8,
                            iterations=2000, seed=3)
        counts = run_frames(cfg, "minil", range(300))
        assert counts[:, :, 1].sum() == 0

    def test_useless_csit_hits_interference_floor(self):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=1e3,
                            epsilon=1.0, seed=9)
        counts = run_frames(cfg, "minil", range(800))
        ber = counts[:, :, 1].sum() / counts[:, :, 0].sum()
        floor = minil_avg_ber(shape_for_bits(2), 1e3, 1.0, 3)
        assert 1e-2 < ber < 0.5
        assert ber == pytest.approx(floor, rel=0.1)

    def test_infeasible_svd_rate_rejected_before_running(self):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, rate_per_pair=3)
        with pytest.raises(ValueError, match="divisible"):
            run_frames(cfg, "svd", range(2))

    def test_oversized_rate_rejected(self):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, rate_per_pair=7)
        with pytest.raises(ValueError):
            check_mode_config(cfg, "minil", False)
        with pytest.raises(ValueError):
            check_mode_config(NetworkConfig(k_pairs=2, nt=2, nr=2,
                                            rate_per_pair=7),
                              "adaptive", True)

    def test_unknown_mode_rejected(self, cfg):
        with pytest.raises(ValueError, match="unknown mode"):
            run_frames(cfg, "zf", range(1))

    @pytest.mark.parametrize("loading", [False, True])
    def test_nonfinite_design_rejected(self, loading):
        # At 150 dB the 2x2 Max-SINR solve overflows in 10 of these 200
        # frames; they must not be demodulated into a plausible BER.
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=1e15, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="maxsinr design is non-finite in 10 of 200"):
            run_frames(cfg, "maxsinr", range(200), loading=loading)


class TestEstimateBer:
    def test_stops_on_target_errors(self, cfg):
        est = estimate_ber(cfg, "minil", 0.0, target_errors=100,
                           max_bits=10_000_000, chunk_frames=50)
        assert est.bit_errors >= 100
        assert est.bits_sent <= 50 * cfg.total_rate * 100 * 2

    @pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf])
    def test_non_finite_snr_rejected(self, cfg, snr_db):
        with pytest.raises(ValueError, match="power_p"):
            estimate_ber(cfg, "minil", snr_db, max_bits=1)

    @pytest.mark.parametrize("arg", ["chunk_frames", "target_errors",
                                     "max_bits"])
    def test_nonpositive_stop_argument_rejected(self, cfg, arg):
        with pytest.raises(ValueError, match=arg):
            estimate_ber(cfg, "minil", 10.0, **{arg: 0})

    @pytest.mark.parametrize("arg", ["workers", "chunk_frames",
                                     "target_errors", "max_bits"])
    @pytest.mark.parametrize("value", [0, -3, True, 2.5, 4.0, "2"])
    def test_bad_worker_or_chunk_count_rejected(self, cfg, arg, value):
        with pytest.raises(ValueError, match=arg):
            estimate_ber(cfg, "minil", 10.0, **{arg: value})

    def test_numpy_integer_counts_accepted(self, cfg):
        a = estimate_ber(cfg, "minil", 10.0, max_bits=1,
                         chunk_frames=np.int64(3), workers=np.int32(1))
        b = estimate_ber(cfg, "minil", 10.0, max_bits=1, chunk_frames=3)
        assert (a.bits_sent, a.bit_errors) == (b.bits_sent, b.bit_errors)

    def test_zero_errors_one_sided(self):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=1e8,
                            iterations=2000, seed=3)
        est = estimate_ber(cfg, "minil", 80.0, target_errors=10,
                           max_bits=30_000, chunk_frames=20)
        assert est.bit_errors == 0
        assert est.one_sided

    def test_matches_closed_form(self, cfg):
        est = estimate_ber(cfg, "minil", 10.0, target_errors=2000,
                           max_bits=1_000_000)
        ana = minil_avg_ber(shape_for_bits(2), 10.0)
        assert abs(est.estimate - ana) <= max(3 * est.stderr, 0.1 * ana)


class TestFig1Stats:
    def test_rows_and_brackets(self):
        cfg = NetworkConfig(k_pairs=3, nt=3, nr=2, seed=21)
        rows = fig1_stats(cfg, [1.0, 100.0], frames=800)
        assert len(rows) == 2
        for row in rows:
            assert row["avg_desired_power"] >= 1.0
            assert row["avg_desired_power"] <= row["beamforming_power"]
            assert row["minil_baseline"] == 1.0


class TestSweep:
    def test_rows_and_analytic_columns(self, cfg):
        rows = sweep(cfg, [0.0, 5.0], [0.0], ["minil", "maxsinr", "svd"],
                     [False], target_errors=20, max_bits=60_000)
        assert len(rows) == 6
        for row in rows:
            if row["mode"] == "maxsinr":
                assert row["analytic_ber"] is None
            else:
                assert row["analytic_ber"] > 0
            assert row["bits"] > 0
            assert 0 <= row["ber"] <= 0.5

    def test_adaptive_requires_loading(self, cfg):
        rows = sweep(cfg, [0.0], [0.0], ["adaptive"], [True, False],
                     target_errors=5, max_bits=10_000)
        assert all(row["loading"] == 1 for row in rows)
        assert all(row["analytic_ber"] is None for row in rows)

    def test_empty_grid_rejected(self, cfg):
        with pytest.raises(ValueError):
            sweep(cfg, [], [0.0], ["minil"], [False])

    def test_analytic_ber_helper(self, cfg):
        assert analytic_ber(cfg, "minil", 10.0, False) == pytest.approx(
            minil_avg_ber(shape_for_bits(2), 10.0))
        assert analytic_ber(cfg, "minil", 10.0, True) is None
        assert analytic_ber(cfg, "maxsinr", 10.0, False) is None
        assert analytic_ber(cfg, "svd", 10.0, False) is not None


class TestReceiverRealism:
    def test_interference_visible_in_unconverged_frames(self):
        # With useless transmitter knowledge the receiver still only
        # equalizes its own true scalar; cross terms remain and raise the
        # error rate well above the interference-free prediction.
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=100.0,
                            epsilon=1.0, seed=15)
        counts = run_frames(cfg, "minil", range(400))
        ber = counts[:, :, 1].sum() / counts[:, :, 0].sum()
        interference_free = minil_avg_ber(shape_for_bits(2), 100.0)
        assert ber > 10 * interference_free

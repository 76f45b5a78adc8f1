import concurrent.futures
import itertools
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

import oracles
from iasim import simulate
from iasim.modem import minil_avg_ber
from iasim.network import NetworkConfig
from iasim.simulate import (FRAME_USES, RUN_MODES, _design, _init_slots,
                            _sample_frames, analytic_ber, check_mode_config,
                            estimate_ber, fig1_stats, run_frames, sweep)


@pytest.fixture
def cfg():
    return NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0,
                         rate_per_pair=2, seed=7)


@pytest.fixture
def pools(monkeypatch):
    """The process pools built while the test runs, in order."""
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    return built


@pytest.fixture
def jobs(monkeypatch):
    """The _run_range jobs given to process pools while the test runs, in
    order; each runs in this process as it is submitted."""
    submitted = []

    class RecordingPool(simulate._Inline):
        def __init__(self, max_workers):
            pass

        def submit(self, fn, /, *args):
            submitted.append(args[0])
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return submitted


@pytest.fixture
def no_frames(monkeypatch):
    """Fail the test if any frame is simulated."""
    def run_frames(*args, **kwargs):
        raise AssertionError("a frame was simulated")

    monkeypatch.setattr(simulate, "run_frames", run_frames)


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

    def test_one_pool_per_estimate(self, cfg, pools):
        # Three 10-frame chunks of 6000 bits each, all on one pool.
        stop = dict(target_errors=10**9, max_bits=3 * 6000, chunk_frames=10)
        a = estimate_ber(cfg, "minil", 5.0, workers=2, **stop)
        assert len(pools) == 1
        b = estimate_ber(cfg, "minil", 5.0, **stop)
        assert len(pools) == 1
        assert a.bits_sent == b.bits_sent == 3 * 6000
        assert (a.bit_errors, a.ratio_var) == (b.bit_errors, b.ratio_var)


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
            _, h_hat, _, inits = _sample_frames(cfg, range(12),
                                                len(_init_slots(mode)))
            active = np.array([i % 3 for i in range(12)])
            designs, pick = _design(cfg, mode, loading, h_hat, active, inits)
            kp = cfg.k_pairs * cfg.power_p
            for i, j in enumerate(pick):
                assert designs[j].powers[i].sum() == pytest.approx(kp)

    @pytest.mark.parametrize("mode", ["minil", "maxsinr", "svd", "adaptive"])
    def test_counts_carry_picked_bits(self, cfg, mode):
        # A frame's bits sent are FRAME_USES times the bits its picked
        # design loads on each stream, credited to the stream's pair.
        frames = range(5)
        _, h_hat, _, inits = _sample_frames(cfg, frames,
                                            len(_init_slots(mode)))
        active = np.array(frames) % cfg.k_pairs
        designs, pick = _design(cfg, mode, True, h_hat, active, inits)
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
        floor = minil_avg_ber(2, 1e3, 1.0, 3)
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
        with pytest.raises(ValueError, match="unknown mode 'zf'; choose from"):
            run_frames(cfg, "zf", range(1))

    def test_mode_check_matches_per_branch_oracle(self):
        # The rate budgets accept and reject exactly the configurations
        # the per-mode, per-loading branches did, and an uneven SVD-SM
        # split still names divisibility.
        def outcome(check, cfg, mode, loading):
            try:
                check(cfg, mode, loading)
            except ValueError as exc:
                return "divisible" if "divisible" in str(exc) else "rejected"
            return "accepted"

        seen = set()
        for k, nt, nr, rate in itertools.product(range(1, 6), range(1, 5),
                                                 range(1, 5), range(1, 9)):
            cfg = NetworkConfig(k_pairs=k, nt=nt, nr=nr, rate_per_pair=rate)
            for mode, loading in itertools.product(RUN_MODES, (False, True)):
                want = outcome(oracles.check_mode_config, cfg, mode, loading)
                assert outcome(check_mode_config, cfg, mode,
                               loading) == want, (cfg, mode, loading)
                seen.add(want)
        assert seen == {"accepted", "rejected", "divisible"}

    @pytest.mark.parametrize("loading", [False, True])
    def test_nonfinite_design_rejected(self, loading, monkeypatch):
        # A design with non-finite vectors must not be demodulated into a
        # plausible BER.  The stub breaks three frames of the design the
        # run transmits on: the only solve when unloaded, the re-design
        # under the loaded (F, K) powers when loaded.
        solve = simulate.maxsinr_solve_batch

        def broken(h, powers, iterations, init_v):
            sol = solve(h, powers, iterations, init_v)
            if not loading or np.ndim(powers) == 2:
                sol.u[3, 0] = np.nan
                sol.v[[17, 150], 1] = np.inf
            return sol

        monkeypatch.setattr(simulate, "maxsinr_solve_batch", broken)
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0, seed=0)
        with pytest.raises(
                ValueError, match="maxsinr design is non-finite in 3 of 200"):
            run_frames(cfg, "maxsinr", range(200), loading=loading)

    @pytest.mark.parametrize("power", [1e12, 1e15, 1e18])
    @pytest.mark.parametrize("mode,loading", [("maxsinr", False),
                                              ("adaptive", True)])
    def test_max_sinr_finite_at_high_power(self, mode, loading, power):
        # run_frames raises on a non-finite design.  The 2x2 closed-form
        # solve used to lose its determinant to cancellation here, and
        # LAPACK's 3x3 solve called B = I + Q singular at 1e18.
        for k, nt, nr in ((3, 2, 2), (4, 3, 2)):
            cfg = NetworkConfig(k_pairs=k, nt=nt, nr=nr, power_p=power,
                                seed=0)
            counts = run_frames(cfg, mode, range(200), loading=loading)
            assert counts.shape[0] == 200, cfg


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

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_snr_beyond_float_power_rejected(self, cfg, no_frames, snr_db):
        # Finite in dB, but 10^(snr/10) overflows to inf or underflows to 0.
        with pytest.raises(ValueError, match="power_p"):
            estimate_ber(cfg, "minil", snr_db, max_bits=1)
        with pytest.raises(ValueError, match="power_p"):
            analytic_ber(cfg, "minil", snr_db, False)

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
        ana = minil_avg_ber(2, 10.0)
        assert abs(est.estimate - ana) <= max(3 * est.stderr, 0.1 * ana)


class TestFig1Stats:
    @pytest.mark.parametrize("frames", [0, -1, 2.5])
    def test_bad_frame_count_rejected(self, frames):
        # Unchecked, zero frames gave NaN rows and a "Mean of empty
        # slice" warning.
        cfg = NetworkConfig(k_pairs=3, nt=3, nr=2, seed=21)
        with pytest.raises(ValueError, match="frames"):
            fig1_stats(cfg, [1.0], frames=frames)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_rows_do_not_depend_on_workers(self, pools, workers):
        # Each mean is taken once over the per-frame values in frame order,
        # so the rows equal the serial ones exactly, not to within rounding.
        cfg = NetworkConfig(k_pairs=3, nt=3, nr=2, iterations=10, seed=21)
        serial = fig1_stats(cfg, [1.0, 100.0], frames=301)
        assert pools == []
        assert fig1_stats(cfg, [1.0, 100.0], frames=301,
                          workers=workers) == serial
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -1, 2.5])
    def test_bad_worker_count_rejected(self, pools, workers):
        cfg = NetworkConfig(k_pairs=3, nt=3, nr=2, seed=21)
        with pytest.raises(ValueError, match="workers"):
            fig1_stats(cfg, [1.0], frames=10, workers=workers)
        assert pools == []

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

    def test_unloaded_adaptive_rejected(self, cfg):
        # Adaptive picks among the loaded designs: without loading it is
        # rejected, not silently loaded or dropped.
        with pytest.raises(ValueError, match="adaptive needs loading"):
            run_frames(cfg, "adaptive", range(2), loading=False)
        with pytest.raises(ValueError, match="adaptive needs loading"):
            estimate_ber(cfg, "adaptive", 10.0, loading=False)
        with pytest.raises(ValueError, match="adaptive needs loading"):
            sweep(cfg, [0.0], [0.0], ["minil", "adaptive"], [False])

    def test_empty_grid_rejected(self, cfg):
        with pytest.raises(ValueError):
            sweep(cfg, [], [0.0], ["minil"], [False])

    @pytest.mark.parametrize("grid,message", [
        (([0.0, 5.0, 0], [0.0], ["minil"], [False]), "snr_db grid repeats 0"),
        (([0.0], [0.1, 0.1], ["minil"], [False]), "epsilon grid repeats 0.1"),
        (([0.0], [0.0], ["svd", "minil", "svd"], [False]),
         "modes grid repeats svd"),
        (([0.0], [0.0], ["minil"], [True, 1]), "loading grid repeats 1"),
    ])
    def test_repeated_grid_value_rejected(self, cfg, pools, no_frames, grid,
                                          message):
        # A repeated value used to run the same cells again, each repeat
        # a new row at the full cost.
        with pytest.raises(ValueError, match=message):
            sweep(cfg, *grid, workers=2)
        assert pools == []

    def test_one_pool_per_sweep(self, pools):
        # Two epsilons, adaptive included, two 400-frame chunks per cell.
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, rate_per_pair=2,
                            iterations=5, seed=11)
        grid = (cfg, [10.0], [0.0, 0.1], ["minil", "adaptive"], [True])
        stop = dict(target_errors=10**9, max_bits=400 * 600 + 1)
        serial = sweep(*grid, **stop)
        assert pools == []
        parallel = sweep(*grid, **stop, workers=2)
        assert len(pools) == 1
        assert [row["bits"] for row in serial] == [2 * 400 * 600] * 4
        assert parallel == serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimate_equals_one_cell_sweep(self, cfg, workers):
        # Both run the same chunk loop: three 400-frame chunks to the cap.
        stop = dict(target_errors=10**9, max_bits=2 * 400 * 600 + 1,
                    workers=workers)
        est = estimate_ber(cfg, "maxsinr", 5.0, loading=True, **stop)
        (row,) = sweep(cfg, [5.0], [cfg.epsilon], ["maxsinr"], [True],
                       **stop)
        assert est.bits_sent == 3 * 400 * 600
        assert (row["bits"], row["errors"], row["ber"], row["ci95"]) == (
            est.bits_sent, est.bit_errors, est.estimate, est.ci95)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_snr_beyond_float_power_fails_before_any_frame(
            self, cfg, pools, no_frames, snr_db):
        with pytest.raises(ValueError, match="power_p"):
            sweep(cfg, [0.0, snr_db], [0.0], ["minil"], [False], workers=2)
        assert pools == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_last_cell_fails_before_any_frame(self, cfg, pools,
                                                  no_frames, workers):
        # SVD-SM cannot split 9 bits evenly over 2 eigenmodes.
        bad = replace(cfg, rate_per_pair=3)
        with pytest.raises(ValueError, match="divisible"):
            sweep(bad, [0.0, 5.0], [0.0], ["minil", "svd"], [False],
                  workers=workers)
        assert pools == []

    @pytest.mark.parametrize("arg", ["workers", "target_errors", "max_bits"])
    @pytest.mark.parametrize("value", [0, -3, True, 2.5])
    def test_bad_count_fails_before_any_frame(self, cfg, pools, no_frames,
                                              arg, value):
        with pytest.raises(ValueError, match=arg):
            sweep(cfg, [0.0], [0.0], ["minil"], [False], **{arg: value})
        assert pools == []

    def test_analytic_ber_helper(self, cfg):
        assert analytic_ber(cfg, "minil", 10.0, False) == pytest.approx(
            minil_avg_ber(2, 10.0))
        assert analytic_ber(cfg, "minil", 10.0, True) is None
        assert analytic_ber(cfg, "maxsinr", 10.0, False) is None
        assert analytic_ber(cfg, "svd", 10.0, False) is not None


# Twelve cells of 400-frame chunks of 600 bits.  At seed 11 they stop on
# target_errors after 1, 2 and 3 chunks and on max_bits after 4.
MIXED_CFG = NetworkConfig(k_pairs=3, nt=2, nr=2, rate_per_pair=2,
                          iterations=5, seed=11)
MIXED_GRID = ([10.0, 20.0, 25.0], [0.0], ["maxsinr", "svd"], [False, True])
MIXED_STOP = dict(target_errors=1000, max_bits=4 * 400 * 600)


@pytest.fixture(scope="module")
def mixed_serial():
    rows = sweep(MIXED_CFG, *MIXED_GRID, **MIXED_STOP)
    stops = {(row["bits"] // (400 * 600), row["errors"] >= 1000)
             for row in rows}
    assert stops == {(1, True), (2, True), (3, True), (4, False)}
    return rows


class TestScheduler:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_rows_equal_serial(self, mixed_serial, workers):
        rows = sweep(MIXED_CFG, *MIXED_GRID, **MIXED_STOP, workers=workers)
        assert rows == mixed_serial

    @pytest.mark.parametrize("workers", [2, 3])
    def test_whole_chunks_and_no_run_ahead(self, mixed_serial, jobs,
                                           workers):
        rows = sweep(MIXED_CFG, *MIXED_GRID, **MIXED_STOP, workers=workers)
        assert rows == mixed_serial
        counted = {(row["mode"], bool(row["loading"]),
                    simulate.snr_power(row["snr_db"])):
                   row["bits"] // (FRAME_USES * MIXED_CFG.total_rate)
                   for row in rows}
        # Each cell ran exactly the frames it counted, in one chain of
        # ranges from frame 0: nothing ran ahead of its stop rule.
        ran = {}
        for cfg, mode, start, stop, loading in jobs:
            ran.setdefault((mode, loading, cfg.power_p), []).append(
                (start, stop))
        assert ran.keys() == counted.keys()
        for key, ranges in ran.items():
            ends = [0] + [stop for _, stop in ranges]
            assert [start for start, _ in ranges] == ends[:-1], key
            assert ends[-1] == counted[key], key
        # While at least `workers` cells have chunks still to submit, every
        # chunk goes out as one job.
        unfinished = set(counted)
        for cfg, mode, start, stop, loading in jobs:
            key = (mode, loading, cfg.power_p)
            if len(unfinished) >= workers:
                assert stop - start == 400, (key, start)
            if stop == counted[key]:
                unfinished.discard(key)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_one_cell_splits_every_chunk(self, cfg, jobs, workers):
        est = estimate_ber(cfg, "minil", 5.0, target_errors=10**9,
                           max_bits=3 * 30 * 600, chunk_frames=30,
                           workers=workers)
        assert est.bits_sent == 3 * 30 * 600
        assert [(job[2], job[3]) for job in jobs] == [
            (30 * c + 30 * i // workers, 30 * c + 30 * (i + 1) // workers)
            for c in range(3) for i in range(workers)]

    @pytest.mark.parametrize("failure", ["design", "interrupt"])
    def test_failure_cancels_queued_chunks(self, monkeypatch, tmp_path,
                                           failure):
        # Twenty one-chunk cells queue on a 2-process pool.  The first
        # fails, by a non-finite design in a worker or by an interrupt in
        # the sweep's own process.  The error must reach the caller
        # without the later cells' queued chunks running, and no worker
        # may outlive the sweep.
        log = tmp_path / "powers.log"
        run = simulate.run_frames

        def logged(cfg, mode, frame_indices, loading=False):
            with open(log, "a") as f:
                f.write(f"{cfg.power_p!r}\n")
            return run(cfg, mode, frame_indices, loading)

        monkeypatch.setattr(simulate, "run_frames", logged)
        if failure == "design":
            solve = simulate.maxsinr_solve_batch

            def broken(h, powers, iterations, init_v):
                sol = solve(h, powers, iterations, init_v)
                if powers == 1.0:  # the 0 dB cell
                    sol.u[0, 0] = np.nan
                return sol

            monkeypatch.setattr(simulate, "maxsinr_solve_batch", broken)
            raised = pytest.raises(ValueError,
                                   match="maxsinr design is non-finite")
        else:
            def interrupted(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(concurrent.futures, "wait", interrupted)
            raised = pytest.raises(KeyboardInterrupt)
        snrs = [float(s) for s in range(20)]
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, iterations=5, seed=0)
        with raised:
            sweep(cfg, snrs, [0.0], ["maxsinr"], [False],
                  target_errors=10**9, max_bits=1, workers=2)
        ran = set(log.read_text().split()) if log.exists() else set()
        assert not ran & {repr(simulate.snr_power(s)) for s in snrs[10:]}
        assert multiprocessing.active_children() == []


class TestReceiverRealism:
    def test_interference_visible_in_unconverged_frames(self):
        # With useless transmitter knowledge the receiver still only
        # equalizes its own true scalar; cross terms remain and raise the
        # error rate well above the interference-free prediction.
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=100.0,
                            epsilon=1.0, seed=15)
        counts = run_frames(cfg, "minil", range(400))
        ber = counts[:, :, 1].sum() / counts[:, :, 0].sum()
        interference_free = minil_avg_ber(2, 100.0)
        assert ber > 10 * interference_free

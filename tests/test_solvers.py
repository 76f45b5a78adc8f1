import numpy as np
import pytest

import oracles
from conftest import draw_inits
from iasim import solvers
from iasim.linalg import unit
from iasim.network import NetworkConfig, complex_normal
from iasim.solvers import (IaSolution, evaluate_true_sinr,
                           maxsinr_solve_batch, minil_solve_batch)


def brute_force_leakage(k, u, v_all, h_row, powers):
    """Scalar oracle: sum_{l != k} p_l |u^H H_kl v_l|^2 at receiver k."""
    total = 0.0
    for l in range(h_row.shape[0]):
        if l == k:
            continue
        acc = 0.0 + 0.0j
        for i in range(h_row.shape[1]):
            for j in range(h_row.shape[2]):
                acc += np.conj(u[i]) * h_row[l, i, j] * v_all[l, j]
        total += powers[l] * abs(acc) ** 2
    return total


def batched_leakage(k, u, v_all, h_row, powers):
    """Receiver k's leakage as evaluate_true_sinr computes it.

    Embeds the channel row into receiver k and its combiner u into an
    otherwise zero one-frame network.
    """
    kk, nr, nt = h_row.shape
    h = np.zeros((1, kk, kk, nr, nt), dtype=complex)
    h[0, k] = h_row
    us = np.zeros((1, kk, len(u)), dtype=complex)
    us[0, k] = u
    sol = IaSolution(v=v_all[None], u=us, z=None, leakage=None, sinr=None,
                     per_channel_power=None)
    _, _, interference = evaluate_true_sinr(sol, h, powers)
    return interference[0, k]


class TestInterferenceLeakage:
    def test_single_pair_empty_sum(self, rng):
        h_row = complex_normal(rng, (1, 2, 2))
        u = unit(complex_normal(rng, 2))
        v = unit(complex_normal(rng, (1, 2)))
        assert batched_leakage(0, u, v, h_row, 10.0) == 0.0
        assert brute_force_leakage(0, u, v, h_row, [10.0]) == 0.0

    def test_aligned_combiner_equality_case(self, rng):
        # K=2, u parallel to H12 v2 -> leakage is exactly P * ||H12 v2||^2
        h_row = complex_normal(rng, (2, 2, 2))
        v = unit(complex_normal(rng, (2, 2)))
        t = h_row[1] @ v[1]
        u = t / np.linalg.norm(t)
        p = 7.5
        got = batched_leakage(0, u, v, h_row, [p, p])
        assert got == pytest.approx(p * np.linalg.norm(t) ** 2, rel=1e-12)
        assert got == pytest.approx(
            brute_force_leakage(0, u, v, h_row, [p, p]), rel=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            h_row = complex_normal(rng, (3, 2, 2))
            u = unit(complex_normal(rng, 2))
            v = unit(complex_normal(rng, (3, 2)))
            p = rng.uniform(0.5, 20.0, 3)
            got = batched_leakage(1, u, v, h_row, p)
            want = brute_force_leakage(1, u, v, h_row, p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        h_row = complex_normal(rng, (2, 2, 2))
        with pytest.raises(ValueError):
            batched_leakage(0, np.ones(3), unit(complex_normal(rng, (2, 2))),
                            h_row, 1.0)


class TestMinil:
    def test_single_pair_no_interferers(self, rng):
        h = complex_normal(rng, (1, 1, 2, 2))
        init = unit(complex_normal(rng, (1, 2)))
        sol = minil_solve_batch(h[None], 5.0, 10, init[None])
        assert sol.leakage[0, 0] == 0.0
        # precoder stays at the initialization; z is consistent with (u, v)
        assert np.allclose(np.abs(sol.v[0, 0].conj() @ init[0]), 1.0,
                           atol=1e-12)
        assert sol.z[0, 0] == pytest.approx(
            sol.u[0, 0].conj() @ h[0, 0] @ sol.v[0, 0])

    def test_single_pair_leakage_trace_is_zero(self, rng):
        # With no interferers the trace still has one row per iteration
        # and one after the final pass, all zero.
        h = complex_normal(rng, (3, 1, 1, 2, 2))
        init = unit(complex_normal(rng, (3, 1, 2)))
        sol, trace = minil_solve_batch(h, 5.0, 10, init, track_leakage=True)
        assert trace.shape == (11, 3)
        assert np.all(trace == 0.0)
        assert np.array_equal(sol.v, minil_solve_batch(h, 5.0, 10, init).v)

    def test_unit_norms_and_consistency(self, rng):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0, seed=41)
        cs, inits = draw_inits(cfg, range(50))
        sol = minil_solve_batch(cs.h, cfg.power_p, 60, inits[:, 0])
        assert np.allclose(np.linalg.norm(sol.u, axis=-1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(sol.v, axis=-1), 1.0, atol=1e-12)
        # stored leakage equals the formula on the stored vectors
        for f in (0, 17, 33):
            for k in range(3):
                want = brute_force_leakage(k, sol.u[f, k], sol.v[f], cs.h[f, k],
                                           sol.per_channel_power[f])
                assert sol.leakage[f, k] == pytest.approx(want, rel=1e-10)

    def test_feasible_convergence_statistics(self):
        # Proper 3-user 2x2 network: most frames align; all keep shrinking.
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=100.0, seed=11)
        cs, inits = draw_inits(cfg, range(400))
        sol = minil_solve_batch(cs.h, cfg.power_p, 100, inits[:, 0])
        norm_leak = sol.leakage.sum(axis=1) / (3 * cfg.power_p)
        # The alternating descent has a slow tail: about two thirds of
        # random frames reach 1e-8 by 100 iterations, nearly all by 1000.
        assert (norm_leak < 1e-8).mean() >= 0.55
        sol2 = minil_solve_batch(cs.h, cfg.power_p, 1000, inits[:, 0])
        norm_leak2 = sol2.leakage.sum(axis=1) / (3 * cfg.power_p)
        assert (norm_leak2 < 1e-8).mean() >= 0.97
        assert np.all(norm_leak2 <= norm_leak + 1e-12)

    def test_alignment_residuals_when_converged(self):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=100.0, seed=11)
        cs, inits = draw_inits(cfg, range(100))
        sol = minil_solve_batch(cs.h, cfg.power_p, 400, inits[:, 0])
        from iasim.solvers import cross_gains
        g = np.abs(cross_gains(cs.h, sol.u, sol.v))
        off = g[:, ~np.eye(3, dtype=bool)]
        converged = sol.leakage.sum(axis=1) < 1e-8 * 3 * cfg.power_p
        assert converged.any()
        assert np.all(off[converged] < 1e-3)

    def test_improper_network_keeps_leakage(self):
        # K=4 with 2x2 antennas fails the counting condition.
        cfg = NetworkConfig(k_pairs=4, nt=2, nr=2, power_p=100.0, seed=12)
        cs, inits = draw_inits(cfg, range(200))
        sol = minil_solve_batch(cs.h, cfg.power_p, 100, inits[:, 0])
        norm_leak = sol.leakage.sum(axis=1) / (4 * cfg.power_p)
        assert (norm_leak > 1e-3).mean() >= 0.99

    def test_total_leakage_monotone(self):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0, seed=77)
        cs, inits = draw_inits(cfg, range(20))
        _, trace = minil_solve_batch(cs.h[:1], cfg.power_p, 80, inits[:1, 0],
                                     track_leakage=True)
        trace = trace[:, 0]
        assert np.all(np.diff(trace) <= 1e-9 * max(trace[0], 1.0))

    def test_equivalent_channel_statistics(self):
        # E|z|^2 = 1 for the aligned design (quick version; the full
        # 1e5-frame KS test lives in the acceptance suite).
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=100.0, seed=13)
        cs, inits = draw_inits(cfg, range(3000))
        sol = minil_solve_batch(cs.h, cfg.power_p, 100, inits[:, 0])
        z2 = np.abs(sol.z) ** 2
        assert z2.mean() == pytest.approx(1.0, abs=0.03)


class TestMaxsinr:
    def test_single_pair_is_dominant_singular_pair(self, rng):
        h = complex_normal(rng, (1, 1, 2, 2))
        init = unit(complex_normal(rng, (1, 2)))
        sol = maxsinr_solve_batch(h[None], 10.0, 100, init[None])
        smax = np.linalg.svd(h[0, 0], compute_uv=False)[0]
        assert abs(sol.z[0, 0]) == pytest.approx(smax, abs=1e-6)

    def test_update_is_sinr_maximizer(self, rng):
        # Perturbing any returned combiner never improves that pair's SINR.
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0, seed=42)
        cs, inits = draw_inits(cfg, range(8))
        sol = maxsinr_solve_batch(cs.h, cfg.power_p, 50, inits[:, 0])
        for f in range(8):
            for k in range(3):
                base = sol.sinr[f, k]
                for _ in range(20):
                    u = unit(sol.u[f, k] + 0.3 * complex_normal(rng, 2))
                    num = cfg.power_p * abs(u.conj() @ cs.h[f, k, k]
                                            @ sol.v[f, k]) ** 2
                    den = 1.0 + brute_force_leakage(
                        k, u, sol.v[f], cs.h[f, k], sol.per_channel_power[f])
                    assert num / den <= base * (1 + 1e-9)

    def test_sinr_dominance_over_aligned_design(self):
        # Ensemble SINR is higher, and at moderate power the per-frame
        # mean predicted error rate is lower on nearly all frames.
        from iasim.modem import ConstellationShape, ber_awgn_instant
        sh = ConstellationShape(2, 2)
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0, seed=11)
        cs, inits = draw_inits(cfg, range(600))
        for p, frac in ((1.0, 0.97), (10.0, 0.92)):
            a = minil_solve_batch(cs.h, p, 100, inits[:, 0])
            b = maxsinr_solve_batch(cs.h, p, 100, inits[:, 0])
            assert b.sinr.mean() > a.sinr.mean()
            better = (ber_awgn_instant(sh, b.sinr).mean(axis=1)
                      <= ber_awgn_instant(sh, a.sinr).mean(axis=1))
            assert better.mean() >= frac

    def test_desired_power_bracket_asymmetric(self):
        # 3-user 3x2: average |z|^2 sits between the aligned baseline (1)
        # and the matched-beamforming ceiling E[sigma_max^2].
        cfg = NetworkConfig(k_pairs=3, nt=3, nr=2, power_p=100.0, seed=21)
        cs, inits = draw_inits(cfg, range(1500))
        sol = maxsinr_solve_batch(cs.h, cfg.power_p, 100, inits[:, 0])
        z2 = (np.abs(sol.z) ** 2).mean()
        direct = cs.h[:, np.arange(3), np.arange(3)].reshape(-1, 2, 3)
        smax2 = (np.linalg.svd(direct, compute_uv=False)[:, 0] ** 2).mean()
        assert 1.0 < z2 < smax2

    def test_bounded_residual_interference(self):
        cfg = NetworkConfig(k_pairs=3, nt=3, nr=2, power_p=1.0, seed=21)
        cs, inits = draw_inits(cfg, range(800))
        avg = []
        for p in (1.0, 10.0, 100.0, 1000.0, 10000.0):
            sol = maxsinr_solve_batch(cs.h, p, 100, inits[:, 0])
            avg.append(sol.leakage.mean())
        ratios = np.array(avg[1:]) / np.array(avg[:-1])
        assert np.all(ratios < 1.5)


class TestEvaluateTrueSinr:
    def test_perfect_csit_recovers_aligned_sinr(self):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=100.0, seed=51)
        cs, inits = draw_inits(cfg, range(60))
        sol = minil_solve_batch(cs.h_hat, cfg.power_p, 600, inits[:, 0])
        sinr, z, interf = evaluate_true_sinr(sol, cs.h)
        converged = sol.leakage.sum(axis=1) < 1e-10 * 3 * cfg.power_p
        assert converged.any()
        want = np.abs(z[converged]) ** 2 * cfg.power_p
        assert np.allclose(sinr[converged], want, rtol=1e-6)

    @pytest.mark.parametrize("eps,p", [(1.0, 100.0), (0.1, 100.0)])
    def test_residual_interference_power(self, eps, p):
        cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=p, epsilon=eps,
                            seed=31)
        cs, inits = draw_inits(cfg, range(3000))
        sol = minil_solve_batch(cs.h_hat, cfg.power_p, 100, inits[:, 0])
        _, _, interf = evaluate_true_sinr(sol, cs.h)
        expect = eps * (cfg.k_pairs - 1) * p
        assert interf.mean() == pytest.approx(expect, rel=0.05)


def test_powers_enter_solution():
    cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0, seed=71)
    cs, inits = draw_inits(cfg, range(3))
    powers = np.array([5.0, 0.0, 15.0])
    sol = maxsinr_solve_batch(cs.h, powers, 40, inits[:, 0])
    assert np.all(sol.per_channel_power == powers)
    # pair with zero power contributes no interference anywhere
    from iasim.solvers import cross_gains
    g = cross_gains(cs.h, sol.u, sol.v)
    leak0 = (np.abs(g[:, 0, 2]) ** 2) * 15.0 + (np.abs(g[:, 0, 1]) ** 2) * 0.0
    assert np.allclose(sol.leakage[:, 0], leak0, rtol=1e-10)


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("frames", [1, 25, 400])
@pytest.mark.parametrize("k,nr,nt", [(3, 2, 2), (4, 2, 3), (2, 3, 3),
                                     (5, 3, 3), (2, 1, 2), (3, 2, 1)])
def test_loop_matches_einsum_oracle_bytewise(k, nr, nt, frames, monkeypatch):
    # The matmul loop gives the einsum loop's bits, single-antenna
    # networks (where einsum multiplies instead) included.
    rng = np.random.default_rng(100 * k + 10 * nr + nt + frames)
    h = complex_normal(rng, (frames, k, k, nr, nt))
    init = complex_normal(rng, (frames, k, nt))
    zeros = rng.uniform(0.5, 20.0, (frames, k))
    zeros[:, 0] = 0.0
    zeros[::2, -1] = 0.0
    for powers in (10.0, zeros, 1e9):
        got = (minil_solve_batch(h, powers, 8, init, track_leakage=True),
               maxsinr_solve_batch(h, powers, 8, init))
        with monkeypatch.context() as m:
            m.setattr(solvers, "_alternate", oracles.alternate)
            want = (minil_solve_batch(h, powers, 8, init, track_leakage=True),
                    maxsinr_solve_batch(h, powers, 8, init))
        assert _same_bytes(got[0][1], want[0][1])
        for a, b in ((got[0][0], want[0][0]), (got[1], want[1])):
            for name in ("u", "v", "z", "leakage", "sinr"):
                assert _same_bytes(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("solve", [minil_solve_batch, maxsinr_solve_batch])
def test_einsum_calls_do_not_grow_with_iterations(solve, monkeypatch):
    # Only once-per-solve contractions may go through np.einsum.
    cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, seed=3)
    cs, inits = draw_inits(cfg, range(4))
    einsum = np.einsum
    calls = []

    def counted(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    counts = []
    for iterations in (5, 50):
        calls.clear()
        solve(cs.h, cfg.power_p, iterations, inits[:, 0])
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


class TestBadInput:
    @pytest.fixture
    def batch(self, rng):
        return complex_normal(rng, (4, 3, 3, 2, 2)), \
            unit(complex_normal(rng, (4, 3, 2)))

    @pytest.mark.parametrize("solve", [minil_solve_batch, maxsinr_solve_batch])
    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf])
    def test_non_finite_power(self, batch, solve, power):
        h, v = batch
        with pytest.raises(ValueError, match="powers"):
            solve(h, power, 5, v)
        with pytest.raises(ValueError, match="powers"):
            solve(h, [1.0, power, 1.0], 5, v)

    @pytest.mark.parametrize("solve", [minil_solve_batch, maxsinr_solve_batch])
    @pytest.mark.parametrize("iterations", [-3, 0, 2.5, True, "5"])
    def test_bad_iterations(self, batch, solve, iterations):
        h, v = batch
        with pytest.raises(ValueError, match="iterations"):
            solve(h, 10.0, iterations, v)

    def test_numpy_integer_iterations(self, batch):
        h, v = batch
        a = maxsinr_solve_batch(h, 10.0, np.int64(5), v)
        b = maxsinr_solve_batch(h, 10.0, 5, v)
        assert np.array_equal(a.v, b.v)

    @pytest.mark.parametrize("solve", [minil_solve_batch, maxsinr_solve_batch])
    def test_init_v_in_frame_last_layout(self, batch, solve):
        h, v = batch
        with pytest.raises(ValueError, match="init_v"):
            solve(h, 10.0, 5, v.transpose(1, 0, 2))

    @pytest.mark.parametrize("solve", [minil_solve_batch, maxsinr_solve_batch])
    def test_init_v_with_wrong_nt(self, batch, solve, rng):
        h, _ = batch
        with pytest.raises(ValueError, match="init_v"):
            solve(h, 10.0, 5, unit(complex_normal(rng, (4, 3, 3))))

    @pytest.mark.parametrize("solve", [minil_solve_batch, maxsinr_solve_batch])
    def test_non_square_channel_grid(self, batch, solve):
        h, v = batch
        with pytest.raises(ValueError, match="channels"):
            solve(h[:, :, :2], 10.0, 5, v)
        with pytest.raises(ValueError, match="channels"):
            solve(h[0], 10.0, 5, v)

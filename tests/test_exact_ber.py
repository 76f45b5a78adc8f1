import math

import numpy as np
import pytest

from exact_ber import exact_frame_ber, loaded_links
from iasim.modem import ber_awgn_instant
from iasim.network import NetworkConfig
from iasim.simulate import run_frames


def q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def cfg_at(snr_db, seed):
    return NetworkConfig(k_pairs=3, nt=2, nr=2, rate_per_pair=2, seed=seed,
                         power_p=10.0 ** (snr_db / 10.0))


def test_interference_free_frames_match_awgn_closed_form():
    # Loaded SVD frames with perfect knowledge have diagonal effective
    # gains, so each stream is a plain AWGN link.
    gains, bits, powers = loaded_links(cfg_at(10.0, 3), "svd", range(300))
    diag = np.einsum("fii->fi", gains)
    assert np.abs(gains - diag[..., None] * np.eye(2)).max() < 1e-12
    expect = np.zeros(len(bits))
    for b in range(1, 7):
        sel = bits == b
        expect += np.where(
            sel, b * ber_awgn_instant(b, np.abs(diag) ** 2 * powers),
            0.0).sum(axis=1)
    expect /= bits.sum(axis=1)
    assert len(np.unique(bits, axis=0)) > 1
    np.testing.assert_allclose(exact_frame_ber(gains, bits, powers), expect,
                               rtol=1e-12, atol=0)


def test_agrees_with_monte_carlo_counts():
    # The engine's error counts on the same frames are one draw of data
    # and noise around the exact conditional BERs; the per-frame residuals
    # give the cluster-robust standard error of the difference.
    cfg = cfg_at(5.0, 4)
    frames = range(200)
    counts = run_frames(cfg, "maxsinr", frames, loading=True).sum(axis=1)
    ber = exact_frame_ber(*loaded_links(cfg, "maxsinr", frames))
    expected = ber * counts[:, 0]
    resid = counts[:, 1] - expected
    assert counts[:, 1].sum() > 1000
    assert abs(resid.sum()) <= 3 * math.sqrt((resid**2).sum())


@pytest.mark.parametrize("cross,visible", [(0.4, True), (0.4j, False)])
def test_bpsk_with_one_interferer_by_hand(cross, visible):
    # Stream 0 (amplitude 2) hears stream 1 (amplitude sqrt 2) through
    # `cross`; stream 1 hears nothing.  Equalized, stream 0 sees its
    # symbol +-1 shifted by delta = 0.4 sqrt(2) / 2 = 0.2828..., with
    # per-axis noise deviation 1 / (sqrt(2) * 2); a quadrature shift is
    # invisible to BPSK.
    gains = np.array([[[1.0, cross], [0.0, 0.8]]])
    bits = np.array([[1, 1]])
    powers = np.array([[4.0, 2.0]])
    sigma0 = 1.0 / (math.sqrt(2.0) * 2.0)
    delta = 0.4 * math.sqrt(2.0) / 2.0 if visible else 0.0
    ber0 = 0.5 * (q((1 + delta) / sigma0) + q((1 - delta) / sigma0))
    ber1 = q(0.8 * math.sqrt(2.0) * math.sqrt(2.0))
    got = exact_frame_ber(gains, bits, powers)
    assert got[0] == pytest.approx((ber0 + ber1) / 2, rel=1e-12)

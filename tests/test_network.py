import numpy as np
import pytest

from iasim.network import NetworkConfig
from iasim.simulate import _sample_frames


def channels(cfg, frames):
    _, h_hat, h, _ = _sample_frames(cfg, frames, 0)
    return h_hat, h


def correlation(h_hat, h):
    """Correlation of corresponding entries of h and h_hat."""
    h_hat, h = h_hat.ravel(), h.ravel()
    corr = np.vdot(h_hat, h) / np.sqrt(np.vdot(h_hat, h_hat).real
                                       * np.vdot(h, h).real)
    return float(corr.real)


def test_config_validation():
    cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, power_p=10.0, rate_per_pair=2)
    assert cfg.total_rate == 6
    assert cfg.is_proper  # 2 + 2 >= 3 + 1
    assert not NetworkConfig(k_pairs=4, nt=2, nr=2).is_proper
    assert NetworkConfig(k_pairs=4, nt=3, nr=2).is_proper  # 5 >= 5
    assert NetworkConfig(k_pairs=np.int64(3), seed=np.int64(7)).seed == 7
    with pytest.raises(ValueError):
        NetworkConfig(k_pairs=0)
    with pytest.raises(ValueError):
        NetworkConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        NetworkConfig(power_p=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(rate_per_pair=0)


@pytest.mark.parametrize("field,value", [
    ("power_p", np.nan), ("power_p", np.inf), ("epsilon", np.nan),
    ("k_pairs", 2.5), ("k_pairs", 3.0), ("nt", 2.0), ("nr", True),
    ("rate_per_pair", True), ("iterations", 10.5), ("nt", 0),
    ("iterations", 0), ("seed", 1.5),
    ("seed", False), ("seed", -1),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        NetworkConfig(**{field: value})


def test_compose_invariant_exact():
    # eps = 0 and eps = 1 expose h_hat and w of the same substreams, so
    # h == sqrt(1-eps)*h_hat + sqrt(eps)*w can be checked exactly.
    cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, epsilon=0.37, seed=5)
    h_hat, h = channels(cfg, range(4))
    _, w = channels(NetworkConfig(k_pairs=3, nt=2, nr=2, epsilon=1.0,
                                  seed=5), range(4))
    rhs = np.sqrt(1 - cfg.epsilon) * h_hat + np.sqrt(cfg.epsilon) * w
    assert np.array_equal(h, rhs)


def test_epsilon_degenerate_cases():
    h_hat0, h0 = channels(NetworkConfig(epsilon=0.0, seed=3), [0])
    assert np.array_equal(h0, h_hat0)

    h_hat1, h1 = channels(NetworkConfig(epsilon=1.0, seed=3), [0])
    # estimate carries no information: same h_hat as eps=0, different h
    assert np.array_equal(h_hat1, h_hat0)
    assert not np.allclose(h1, h_hat1)


def test_unit_variance_law_of_large_numbers():
    # >= 1e5 entries, per-entry mean power within [0.98, 1.02]
    cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, epsilon=0.3, seed=17)
    h_hat, h = channels(cfg, range(800))  # 800*36 = 28800 entries each
    _, w = channels(NetworkConfig(k_pairs=3, nt=2, nr=2, epsilon=1.0,
                                  seed=17), range(800))
    for arr in (h, h_hat, w):
        power = np.mean(np.abs(arr) ** 2)
        assert 0.98 < power < 1.02
    # real/imag each variance 1/2
    assert abs(np.var(h.real) - 0.5) < 0.01
    assert abs(np.var(h.imag) - 0.5) < 0.01


def test_reproducibility_and_worker_independence():
    cfg = NetworkConfig(seed=99)
    _, a = channels(cfg, [7])
    _, b = channels(cfg, [7])
    assert np.array_equal(a, b)
    # batch sampling equals per-frame sampling regardless of partitioning
    _, batch = channels(cfg, range(10))
    for i in range(10):
        _, single = channels(cfg, [i])
        assert np.array_equal(batch[i], single[0])
    _, part = channels(cfg, range(4, 10))
    assert np.array_equal(batch[4:], part)


def test_substreams_differ():
    _, h = channels(NetworkConfig(seed=0), [0, 1])
    assert not np.allclose(h[0], h[1])


def test_csi_error_stats_correlation():
    # eps = 0 -> correlation exactly 1
    h_hat, h = channels(NetworkConfig(epsilon=0.0, seed=2), range(10))
    assert correlation(h_hat, h) == pytest.approx(1.0)

    # eps = 1 -> independence, correlation ~ 0 within 3/sqrt(n)
    h_hat, h = channels(NetworkConfig(epsilon=1.0, seed=2), range(200))
    assert abs(correlation(h_hat, h)) < 3 / np.sqrt(h.size)

    # eps = 0.19 -> sqrt(1 - 0.19) = 0.9 within 0.01 over ~1e5 entries
    cfg = NetworkConfig(k_pairs=3, nt=2, nr=2, epsilon=0.19, seed=2)
    h_hat, h = channels(cfg, range(3000))
    assert h.size >= 1e5
    assert correlation(h_hat, h) == pytest.approx(0.9, abs=0.01)

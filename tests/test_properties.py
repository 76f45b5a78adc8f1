import numpy as np
from hypothesis import given, settings, strategies as st

from iasim.linalg import unit
from iasim.modem import MAX_BITS, demodulate, modulate
from test_solvers import batched_leakage, brute_force_leakage


@given(b=st.integers(1, 6),
       words=st.lists(st.integers(0, 63), min_size=1, max_size=64),
       phase=st.floats(-np.pi, np.pi),
       scale=st.floats(0.05, 40.0))
@settings(max_examples=200, deadline=None)
def test_modem_round_trip(b, words, phase, scale):
    labels = np.array(words) % 2**b
    gain = scale * np.exp(1j * phase)
    y = modulate(labels, b) * gain * 3.0
    assert np.array_equal(demodulate(y, gain, 3.0, b), labels)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4),
       nt=st.integers(1, 4), nr=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_leakage_equals_scalar_recomputation(seed, k, nt, nr):
    r = np.random.default_rng(seed)
    h_row = (r.standard_normal((k, nr, nt))
             + 1j * r.standard_normal((k, nr, nt)))
    u = unit(r.standard_normal(nr) + 1j * r.standard_normal(nr))
    v = unit(r.standard_normal((k, nt)) + 1j * r.standard_normal((k, nt)))
    p = r.uniform(0.0, 10.0, k)
    want = brute_force_leakage(1, u, v, h_row, p)
    got = batched_leakage(1, u, v, h_row, p)
    assert np.isclose(got, want, rtol=1e-10, atol=1e-12)
    assert got >= 0.0


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       r=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_greedy_budget_property(seed, n, r):
    from iasim.bitload import greedy_bitload_table
    from iasim.modem import ber_awgn_instant
    from oracles import greedy_bitload

    if r > n * MAX_BITS:
        return
    rng = np.random.default_rng(seed)
    gains = rng.gamma(1.0, 1.0, n)

    def ber_of(i, b):
        return ber_awgn_instant(b, gains[i] * 5.0 * b)

    levels = range(1, min(r, MAX_BITS) + 1)
    table = np.stack([ber_of(np.arange(n), b) for b in levels], axis=-1)
    bits = greedy_bitload_table(table[None], r)[0]
    assert np.array_equal(bits, greedy_bitload(ber_of, n, r))
    assert bits.sum() == r
    assert np.all((bits >= 0) & (bits <= MAX_BITS))

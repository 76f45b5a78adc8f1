"""Each benchmark workload at seed 0 reproduces its recorded counts.

The benchmark's fingerprint holds every cell's (bits, errors) and the
sweep CSV's SHA-256.  Any change to the per-frame draw order, the designs
or the stop rule shows up here as a failed cell.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import fingerprint  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_matches_fingerprint(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    rep = workloads.run_rep(wl, 0, tmp_path, workers=1)
    assert fingerprint.check_rep(wl, 0, rep, fingerprint.load()) == {}


def test_sensitive_seed_matches_fingerprint(tmp_path):
    # A solver variant that formed the signal products H_kl v_l as
    # elementwise sums over the channel array moved cell
    # adaptive+load/K3-2x2/eps0/snr5 from 4230 to 4229 errors at seed 9,
    # while seed 0 still matched: a change of rounding can move a count.
    wl = workloads.WORKLOADS["loaded_sweep"]
    rep = workloads.run_rep(wl, 9, tmp_path, workers=1)
    assert fingerprint.check_rep(wl, 9, rep, fingerprint.load()) == {}

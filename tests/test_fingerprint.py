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

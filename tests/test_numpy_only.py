"""The engine runs without scipy.

scipy serves one closed form, SVD-SM's BER under channel uncertainty,
and the tests.  Importing the package and running frames must not load
it: its import costs more than the rest of the package's start-up, and
every worker of a spawned or forkserver pool would pay it again.
"""

import os
import subprocess
import sys
from pathlib import Path

import iasim

SRC = Path(iasim.__file__).resolve().parent.parent

SCRIPT = """
import sys
import iasim
import iasim.cli
from iasim import NetworkConfig, run_frames, svd_avg_ber

cfg = NetworkConfig(iterations=5)
run_frames(cfg, "minil", range(4))
run_frames(cfg, "adaptive", range(4), loading=True)
run_frames(cfg, "svd", range(4))
assert 0 < svd_avg_ber(2, 30.0, 2, 2) < 0.5
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
assert 0 < svd_avg_ber(2, 30.0, 2, 2, epsilon=0.1) < 0.5
assert "scipy" in sys.modules
"""


def test_engine_runs_without_scipy():
    out = subprocess.run([sys.executable, "-c", SCRIPT],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr

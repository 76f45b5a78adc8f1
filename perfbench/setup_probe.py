"""Print the seconds `import iasim` plus a first one-frame call take.

Run in a fresh interpreter by run.py:  python3 setup_probe.py <src dir>
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import iasim  # noqa: E402

iasim.run_frames(iasim.NetworkConfig(seed=0), "minil", range(1))
print(time.perf_counter() - t0)

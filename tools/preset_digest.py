"""SHA-256 digests of the seven preset CSVs, checked against presets.json.

    python3 tools/preset_digest.py                      # check this tree
    python3 tools/preset_digest.py --checkout ../other  # check another tree
    python3 tools/preset_digest.py --record             # re-record

Runs `iasim --preset figN --seed 0 --workers 2 --no-timestamp` for fig1
to fig7 from the checkout's `src/`, one preset after another, and
compares each CSV's SHA-256 with `tools/presets.json` next to this
script.  A change that keeps every result bit for bit reports "7/7
unchanged"; any other count lists the presets whose bytes moved and
exits 1.  `--record` writes the digests of the checkout instead.  BLAS
and OpenMP threads are pinned to 1.  The seven presets take about two
minutes on two cores.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PRESETS = [f"fig{i}" for i in range(1, 8)]
SEED = 0
WORKERS = 2
RECORD = Path(__file__).resolve().parent / "presets.json"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def preset_sha256(checkout: Path, name: str, out_dir: Path) -> str:
    """Run one preset from the checkout's source; the SHA-256 of its CSV."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               **{var: "1" for var in _THREAD_VARS})
    argv = [sys.executable, "-m", "iasim.cli", "--preset", name,
            "--seed", str(SEED), "--workers", str(WORKERS),
            "--no-timestamp", "--out", str(out_dir)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{name} exited {run.returncode}:\n{run.stderr}")
    return hashlib.sha256((out_dir / f"{name}.csv").read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository tree to run (default: this one)")
    parser.add_argument("--record", action="store_true",
                        help=f"write the digests to {RECORD.name}")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESETS:
            start = time.perf_counter()
            digests[name] = preset_sha256(checkout, name, Path(tmp))
            print(f"{name} {digests[name][:16]} "
                  f"{time.perf_counter() - start:.1f} s", flush=True)
    if args.record:
        RECORD.write_text(json.dumps(
            {"seed": SEED, "workers": WORKERS, "sha256": digests},
            indent=2) + "\n")
        print(f"recorded {len(digests)} digests in {RECORD}")
        return 0
    recorded = json.loads(RECORD.read_text())["sha256"]
    moved = [name for name in PRESETS if digests[name] != recorded[name]]
    print(f"{len(PRESETS) - len(moved)}/{len(PRESETS)} unchanged"
          + (f"; moved: {', '.join(moved)}" if moved else ""))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden per-cell (bits, errors) counts and the structural checks.

Every repetition's cells are checked against the structural invariants
of the engine's stop rule.  Where `fingerprint.json` holds the seed, the
counts (and the sweep CSV's SHA-256) must also match the recording
exactly.  The sweep's recording comes from a serial run, so the two-worker
benchmark run also checks that counts do not depend on the worker count.

Regenerate the recording (from the repository root) with

    python3 perfbench/fingerprint.py --seeds 0-19
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from workloads import USES, WORKLOADS, Cell, RepResult, Workload

FINGERPRINT = Path(__file__).with_name("fingerprint.json")


def load(path=FINGERPRINT) -> dict:
    return json.loads(Path(path).read_text())


def _structural(cell: Cell, wl: Workload, bits: int, errors: int) -> str | None:
    """Why (bits, errors) cannot come from this cell's stop rule, or None."""
    if not 0 <= errors <= bits:
        return f"errors {errors} outside [0, bits={bits}]"
    frame_bits = cell.total_rate * USES
    chunk_bits = cell.chunk_frames * frame_bits
    if bits % chunk_bits:
        return f"bits {bits} not on a {chunk_bits}-bit chunk boundary"
    if wl.target_errors:
        if bits == 0:
            return "no chunk ran"
        if not (errors >= wl.target_errors or bits >= wl.max_bits):
            return "stopped before the error target or the bit cap"
        if bits - chunk_bits >= wl.max_bits:
            return "ran past the bit cap"
    elif bits != cell.frames * frame_bits:
        return f"bits {bits} != frames {cell.frames} x R x {USES}"
    return None


def check_rep(wl: Workload, seed: int, rep: RepResult,
              golden: dict) -> dict[str, str]:
    """Failed cell keys of one repetition, each with the reason."""
    failed = {}
    got = {}
    for res in rep.cells:
        if res.error is not None:
            failed[res.key] = res.error
        elif res.key in got:
            failed[res.key] = "cell reported twice"
        else:
            got[res.key] = (res.bits, res.errors)
    recorded = golden.get(wl.name, {}).get(str(seed))
    for cell in wl.cells:
        if cell.key in failed:
            continue
        if cell.key not in got:
            failed[cell.key] = "cell missing from the output"
            continue
        bits, errors = got[cell.key]
        why = _structural(cell, wl, bits, errors)
        if why is None and recorded is not None:
            if list(recorded["cells"].get(cell.key, ())) != [bits, errors]:
                why = (f"(bits, errors) = ({bits}, {errors}), fingerprint "
                       f"{recorded['cells'].get(cell.key)}")
            elif rep.csv_sha256 != recorded.get("csv_sha256"):
                why = "sweep CSV differs from the fingerprint's"
        if why is not None:
            failed[cell.key] = why
    for key in got.keys() - {c.key for c in wl.cells}:
        failed[key] = "unexpected cell in the output"
    return failed


def record(seeds, path=FINGERPRINT):
    """Run every workload serially for each seed and store the counts."""
    from workloads import run_rep

    golden = load(path) if Path(path).exists() else {}
    scratch = Path(__file__).resolve().parent.parent / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, wl in WORKLOADS.items():
            for seed in seeds:
                rep = run_rep(wl, seed, tmp, workers=1)
                bad = [c.key for c in rep.cells if c.error is not None]
                if bad:
                    raise RuntimeError(f"{name} seed {seed}: {bad} raised")
                entry = {"cells": {c.key: [c.bits, c.errors]
                                   for c in rep.cells}}
                if rep.csv_sha256 is not None:
                    entry["csv_sha256"] = rep.csv_sha256
                golden.setdefault(name, {})[str(seed)] = entry
                print(f"{name} seed {seed}: {len(rep.cells)} cells",
                      flush=True)
    Path(path).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-19",
                        help="inclusive range a-b or comma list")
    args = parser.parse_args(argv)
    if "-" in args.seeds:
        lo, hi = map(int, args.seeds.split("-"))
        seeds = range(lo, hi + 1)
    else:
        seeds = [int(s) for s in args.seeds.split(",")]
    record(seeds)
    return 0


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    sys.exit(main())

"""iasim benchmark: one workload at one seed, measured for a fixed time.

    python3 perfbench/run.py --workload ia_unloaded --seed 0 --seconds 25 --trace 0

Run from the repository root.  The workload is repeated until --seconds
have passed (at least once); every repetition's cells are checked against
the fingerprint or, for an unrecorded seed, the structural invariants.
With --trace 0 the end-to-end metrics are reported; with --trace 1 the
repetitions alternate traced and untraced and the per-layer metrics plus
the tracing overhead are reported.  The last line of standard output is
one JSON object; a fuller record goes to .perfbench_out/.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: 2 workers + parent on 2 cores
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import fingerprint  # noqa: E402
from tracing import LAYER_UNITS, ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, run_rep, warm_up  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
CPUS = sorted(os.sched_getaffinity(0))

E2E_UNITS = {"sweep_s": "s", "frames_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB"}
TRACE_UNITS = {**LAYER_UNITS, "trace.overhead_s": "s"}


def import_iasim():
    """Import iasim from this checkout's source tree, or exit non-zero."""
    if not (SRC / "iasim" / "__init__.py").is_file():
        sys.exit(f"error: no iasim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import iasim
    if SRC not in Path(iasim.__file__).resolve().parents:
        sys.exit(f"error: imported iasim from {iasim.__file__}, not {SRC}")


def pin(i: int):
    """Run this process (and what it starts) on the i-th allowed CPU, mod n.

    The CPUs of the 2-core box each run at their own speed, which drifts
    by up to 40% over tens of seconds as the host's other load moves.  A
    serial process stays on one CPU for long stretches and so reads that
    CPU's speed; the benchmark therefore moves serial work across the CPUs
    in turn, so that every repetition sees all of them.
    """
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def unpin():
    os.sched_setaffinity(0, CPUS)


def setup_seconds() -> list[float]:
    """`import iasim` plus a first frame, timed in fresh interpreters.

    One unmeasured probe first, so byte-code compilation is not counted.
    The probes take the CPUs in turn.
    """
    times = []
    try:
        for i in range(SETUP_PROBES + 1):
            pin(i)
            out = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                check=True, capture_output=True, text=True, timeout=120)
            times.append(float(out.stdout.strip().splitlines()[-1]))
    finally:
        unpin()
    return times[1:]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "iasim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def measure(wl, seed: int, seconds: int, tracer, out_dir: Path, golden):
    """Repeat the workload until `seconds` pass; returns per-rep records.

    With a tracer, even repetitions run traced and odd ones untraced, and
    at least one of each runs.  Serial cell i of repetition r runs on CPU
    i + r (see `pin`); the sweep's workers need every CPU and are not
    placed.
    """
    reps = []
    t_end = time.perf_counter() + seconds
    while (not reps or time.perf_counter() < t_end
           or (tracer is not None and len(reps) < 2)):
        r = len(reps)
        place = ((lambda i: pin(i + r)) if wl.workers == 1
                 else (lambda i: None))
        traced = tracer is not None and r % 2 == 0
        lo = len(tracer) if traced else 0
        t0 = time.perf_counter()
        if traced:
            tracer.counts = {}
            with tracer.installed():
                root = tracer.begin(ROOT_SPAN)
                rep = run_rep(wl, seed, out_dir, before_cell=place)
                tracer.finish(root)
            wall = tracer.end[root] - tracer.start[root]
        else:
            rep = run_rep(wl, seed, out_dir, before_cell=place)
            wall = time.perf_counter() - t0
        record = {"traced": traced, "wall_s": wall, "frames": rep.frames,
                  "failed": fingerprint.check_rep(wl, seed, rep, golden),
                  "cells": len(wl.cells)}
        if traced:
            tracer.merge_worker_spans()
            record["layers"] = layer_metrics(tracer.arrays(lo),
                                             tracer.counts)
        reps.append(record)
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    import_iasim()
    wl = WORKLOADS[args.workload]
    golden = fingerprint.load()
    has_golden = str(args.seed) in golden.get(wl.name, {})
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    warm_up(wl, args.seed)
    tracer = Tracer(out_dir / "spool") if args.trace else None
    try:
        reps = measure(wl, args.seed, args.seconds, tracer, out_dir, golden)
    finally:
        unpin()
    attempted = sum(r["cells"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)

    if args.trace:
        traced = [r for r in reps if r["traced"]]
        plain = [r for r in reps if not r["traced"]]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in LAYER_UNITS}
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
        units = TRACE_UNITS
        tracer.save(out_dir / "spans.npz")
    else:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup = setup_seconds()
        setup_s = statistics.median(setup)
        metrics = {
            "sweep_s": setup_s + statistics.median(r["wall_s"] for r in reps),
            "frames_per_s": statistics.median(r["frames"] / r["wall_s"]
                                              for r in reps),
            "setup_s": setup_s,
            # Pool workers run side by side; count the largest per worker.
            "peak_rss_mb": (own + (wl.workers * worker if wl.workers > 1
                                   else 0)) / 1024.0,
        }
        units = E2E_UNITS

    env = environment(args.seed)
    result = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "checked_against": "fingerprint" if has_golden else "invariants",
        "failed_cell_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "reps": [{k: v for k, v in r.items() if k != "layers"}
                 for r in reps],
        "setup_samples_s": None if args.trace else setup,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1))

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"reps {len(reps)}  checked against {result['checked_against']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  failed_cell_frac {failed}/{attempted} = {failed / attempted:g}")
    for r in reps:
        for key, why in r["failed"].items():
            print(f"  FAILED {key}: {why}")
    print(f"  env {json.dumps(env)}")
    print(f"  record {out_dir / 'result.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

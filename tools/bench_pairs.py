"""Alternating parent/change benchmark pairs, summarised as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr 18 \
        --pairs 10 --first-seed 400 --change-note "what the change does"

--parent and --change are two checkouts of the repository, each a clean
copy of its tree (for example `git archive <rev> | tar -x -C <dir>`).
The benchmark's command, workloads, seconds per run and end-to-end
metrics are read from the change's BENCHMARK.json.  Pair i runs every
workload at seed first_seed + i on both sides, each side from its own
checkout; the side that goes first flips from pair to pair.  The summary
gives, per workload and metric, the median and inclusive quartiles on
each side, the number of pairs the change wins and the ratio of the
medians, along with the failed and attempted cells and the SHA-256 of
each side's src/iasim.  Two verdicts come with each metric:
`within_bound`, the change's median is no worse than the parent's by
more than the metric's `bound` (a fraction of the parent's median), and
`claim_holds`, the change wins at least nine tenths of the pairs (ties
count for neither) and its median is better than the parent's by more
than the parent's quartile distance.  Every workload then runs once more
on each side with --trace 1, at seed first_seed + pairs, for the
per-layer metrics.  The record is written to BENCH_<pr>.json in the
working directory.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

PROTOCOL = ("alternating parent/change pairs, the side that runs first flips "
            "each pair; each side runs from its own clean copy of its tree; "
            "medians and quartiles (inclusive method) over pairs; "
            "change_wins counts pairs where the change is better")


def source_sha256(checkout: Path) -> str:
    """SHA-256 over src/iasim/*.py in name order, as perfbench/run.py
    reports it."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "iasim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(checkout: Path, command: list, workload: str, seed: int,
             seconds: int, trace: int = 0) -> dict:
    """One benchmark run; returns the JSON object on its last output line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited "
                           f"{out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def summarise(runs: list, metrics: list) -> dict:
    """Per-metric summaries of one workload's pairs."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        side = {s: [r[s]["metrics"][name]["value"] for r in runs]
                for s in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(side["parent"], side["change"]))
        parent, change = summary(side["parent"]), summary(side["change"])
        # How much better the change's median is, in the metric's units.
        gain = (parent["median"] - change["median"]) * (1 if lower else -1)
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "median_ratio_change_over_parent": round(
                statistics.median(side["change"])
                / statistics.median(side["parent"]), 4),
            "within_bound": (None if "bound" not in m else
                             -gain <= m["bound"] * abs(parent["median"])),
            "claim_holds": (wins >= 0.9 * len(runs)
                            and gain > parent["q3"] - parent["q1"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=400)
    parser.add_argument("--change-note", default="",
                        help="what the change does, for the record")
    parser.add_argument("--parent-commit", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    trace_seed = args.first_seed + args.pairs
    sides = {"parent": args.parent, "change": args.change}

    runs = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], bench["command"], w, seed,
                                      seconds)
            runs[w].append(pair)
            print(f"pair {i + 1}/{args.pairs} {w} seed {seed}: " + ", ".join(
                f"{s} {pair[s]['metrics'][m['name']]['value']:.4g}"
                for m in bench["end_to_end"][:2] for s in order),
                file=sys.stderr, flush=True)

    traced = {}
    for i, w in enumerate(workloads):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        traced[w] = {"first": order[0], **{
            side: {m: v["value"] for m, v in run_once(
                sides[side], bench["command"], w, trace_seed, seconds,
                trace=1)["metrics"].items()}
            for side in order}}

    record = {
        "change": args.change_note,
        "parent_commit": args.parent_commit,
        "change_commit": None,
        "change_commit_note": "the commit that records these runs; "
                              "source_sha256.change identifies the "
                              "src/iasim that was measured",
        "source_sha256": {
            **{s: source_sha256(path) for s, path in sides.items()},
            "note": "sha256 over src/iasim/*.py in name order on each side",
        },
        "command": " ".join(bench["command"]) + " --workload <name> --seed "
                   f"<seed> --seconds {seconds} --trace 0",
        "protocol": PROTOCOL,
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
        "workloads": {
            w: {
                "seeds": seeds,
                "pairs": len(pairs),
                "failed_cells": {s: sum(r[s]["failed"] for r in pairs)
                                 for s in sides},
                "attempted_cells": {s: sum(r[s]["attempted"] for r in pairs)
                                    for s in sides},
                "metrics": summarise(pairs, bench["end_to_end"]),
                "runs": [{"seed": r["seed"], "first": r["first"],
                          **{s: {m: v["value"]
                                 for m, v in r[s]["metrics"].items()}
                             for s in sides}}
                         for r in pairs],
            } for w, pairs in runs.items()
        },
        "trace": {
            "command": " ".join(bench["command"]) + " --workload <name> "
                       f"--seed {trace_seed} --seconds {seconds} --trace 1",
            "note": "one traced run per workload and side, for the "
                    "per-layer metrics; the side that runs first flips "
                    "from workload to workload",
            "workloads": traced,
        },
    }
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

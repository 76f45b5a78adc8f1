"""tools/bench_pairs.py on a fake benchmark whose results are known."""

import hashlib
import json
import sys
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

# Prints some lines, then the result line of perfbench/run.py.  The
# parent reads 2 s and 100 frames/s, the change 1.5 s and 150 frames/s;
# both add the seed's last digit, and each run logs its order.
FAKE_RUN = textwrap.dedent("""
    import argparse, json, pathlib
    p = argparse.ArgumentParser()
    for a in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(a)
    a = p.parse_args()
    side = pathlib.Path.cwd().name
    with open(pathlib.Path.cwd().parent / "order.log", "a") as f:
        f.write(f"{side} {a.workload} {a.seed} {a.seconds} {a.trace}\\n")
    d = int(a.seed) % 10
    s, fps = (2.0, 100.0) if side == "parent" else (1.5, 150.0)
    print("workload", a.workload)
    print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                      "metrics": {"sweep_s": {"value": s + d, "unit": "s"},
                                  "frames_per_s": {"value": fps + d,
                                                   "unit": "1/s"}}}))
""")

BENCH = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 25,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "frames_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.2},
    ],
}


def test_pairs_alternate_and_summarise(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(FAKE_RUN)
        (root / "src" / "iasim").mkdir(parents=True)
        (root / "src" / "iasim" / "a.py").write_text(f"SIDE = {side!r}\n")
        (root / "BENCHMARK.json").write_text(json.dumps(BENCH))
    assert bench_pairs.main([
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--pr", "99", "--pairs", "3",
        "--first-seed", "11", "--change-note", "faster"]) == 0

    # The side that goes first flips each pair; every run gets the seed,
    # BENCHMARK.json's run_seconds and an untraced run.  The traced runs
    # come after the pairs.
    runs = (tmp_path / "order.log").read_text().splitlines()
    assert runs[:12] == [f"{side} {w} {seed} 25 0"
                    for seed, order in ((11, ("parent", "change")),
                                        (12, ("change", "parent")),
                                        (13, ("parent", "change")))
                    for w in ("w1", "w2") for side in order]

    record = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert record["change"] == "faster"
    for side in ("parent", "change"):
        digest = hashlib.sha256(b"a.py\0" + f"SIDE = {side!r}\n".encode())
        assert record["source_sha256"][side] == digest.hexdigest()
    w1 = record["workloads"]["w1"]
    assert w1["seeds"] == [11, 12, 13] and w1["pairs"] == 3
    assert w1["failed_cells"] == {"parent": 0, "change": 0}
    assert w1["attempted_cells"] == {"parent": 12, "change": 12}
    sweep = w1["metrics"]["sweep_s"]
    assert (sweep["unit"], sweep["better"]) == ("s", "lower")
    assert sweep["parent"] == {"median": 4.0, "q1": 3.5, "q3": 4.5}
    assert sweep["change"] == {"median": 3.5, "q1": 3.0, "q3": 4.0}
    assert sweep["change_wins"] == 3
    assert sweep["median_ratio_change_over_parent"] == round(3.5 / 4.0, 4)
    fps = w1["metrics"]["frames_per_s"]
    assert fps["change_wins"] == 3
    assert fps["median_ratio_change_over_parent"] == round(152 / 102, 4)
    assert [r["first"] for r in w1["runs"]] == ["parent", "change", "parent"]
    assert w1["runs"][1]["change"] == {"sweep_s": 3.5, "frames_per_s": 152.0}

    # Both metrics are better and so within their bounds.  sweep_s wins
    # every pair, but its median gain (0.5 s) does not exceed the parent's
    # quartile distance (1 s); frames_per_s gains 50/s against 1/s.
    assert sweep["within_bound"] and fps["within_bound"]
    assert not sweep["claim_holds"]
    assert fps["claim_holds"]


def test_traced_run_per_workload_and_side(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(FAKE_RUN)
        (root / "src" / "iasim").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text(json.dumps(BENCH))
    assert bench_pairs.main([
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--pr", "98", "--pairs", "2",
        "--first-seed", "5"]) == 0
    # After the pairs at seeds 5 and 6, one traced run per workload and
    # side at the next seed, 7.
    runs = (tmp_path / "order.log").read_text().splitlines()
    assert runs[8:] == ["parent w1 7 25 1", "change w1 7 25 1",
                        "change w2 7 25 1", "parent w2 7 25 1"]
    trace = json.loads((tmp_path / "BENCH_98.json").read_text())["trace"]
    assert trace["command"].endswith("--seed 7 --seconds 25 --trace 1")
    assert trace["workloads"]["w2"] == {
        "first": "change",
        "parent": {"sweep_s": 9.0, "frames_per_s": 107.0},
        "change": {"sweep_s": 8.5, "frames_per_s": 157.0}}


def fake_runs(parent, change):
    """Pairs with the given sweep_s values, as summarise reads them."""
    return [{side: {"metrics": {"sweep_s": {"value": v}}}
             for side, v in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


def test_within_bound_is_relative_to_the_parent_median():
    lower = {"name": "sweep_s", "unit": "s", "better": "lower",
             "bound": 0.2}
    higher = dict(lower, better="higher")
    # Parent median 10; the change's median is 12 (20% worse when lower
    # is better) or 7.9 (21% worse when higher is better).
    runs = fake_runs([9.0, 10.0, 11.0], [11.0, 12.0, 13.0])
    assert bench_pairs.summarise(runs, [lower])["sweep_s"]["within_bound"]
    runs = fake_runs([9.0, 10.0, 11.0], [11.0, 12.01, 13.0])
    assert not bench_pairs.summarise(runs, [lower])["sweep_s"][
        "within_bound"]
    runs = fake_runs([9.0, 10.0, 11.0], [7.0, 7.9, 8.0])
    assert not bench_pairs.summarise(runs, [higher])["sweep_s"][
        "within_bound"]
    del lower["bound"]
    assert bench_pairs.summarise(runs, [lower])["sweep_s"][
        "within_bound"] is None


def test_claim_needs_nine_tenths_of_pairs_and_the_quartile_gap():
    metric = [{"name": "sweep_s", "unit": "s", "better": "lower"}]
    parent = [10.0 + 0.1 * i for i in range(10)]   # quartile distance 0.45

    def claim(change):
        return bench_pairs.summarise(fake_runs(parent, change), metric)[
            "sweep_s"]["claim_holds"]

    assert claim([p - 1.0 for p in parent])
    # A tie counts for neither side: 9 wins of 10 still hold.
    assert claim([p - 1.0 for p in parent[:9]] + [parent[9]])
    assert not claim([p - 1.0 for p in parent[:8]] + parent[8:])
    # Every pair won, by less than the parent's own spread.
    assert not claim([p - 0.4 for p in parent])

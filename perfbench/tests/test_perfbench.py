"""Tests of the benchmark itself: tracing, fingerprint checks, output.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fingerprint  # noqa: E402
import tracing  # noqa: E402
from tracing import ROOT_SPAN, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (WORKLOADS, Cell, CellResult, RepResult,  # noqa: E402
                       Workload, run_rep)

SMALL_SERIAL = Workload(
    name="small_serial", why="test",
    cells=(Cell("minil", 3, 2, 2, 0.0, 10.0, frames=4, chunk_frames=2),
           Cell("maxsinr", 4, 3, 2, 0.1, 10.0, frames=2, chunk_frames=2),
           Cell("svd", 3, 2, 2, 0.0, 30.0, frames=4, chunk_frames=4)),
    iterations=5)


def _bindings():
    import concurrent.futures
    import importlib

    out = {("concurrent.futures", "ProcessPoolExecutor"):
           concurrent.futures.ProcessPoolExecutor}
    for _, _, attr, callers in tracing.TARGETS:
        for mod in callers:
            out[(mod, attr)] = getattr(importlib.import_module(mod), attr)
    return out


def _traced_rep(wl, tmp_path, seed=3):
    tracer = Tracer(tmp_path / "spool")
    with tracer.installed():
        root = tracer.begin(ROOT_SPAN)
        rep = run_rep(wl, seed, tmp_path)
        tracer.finish(root)
    tracer.merge_worker_spans()
    return tracer, rep


def test_wrappers_removed_after_traced_block(tmp_path):
    before = _bindings()
    tracer = Tracer(tmp_path / "spool")
    with tracer.installed():
        during = _bindings()
        assert all(during[k] is not v for k, v in before.items())
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    run_rep(SMALL_SERIAL, 3, tmp_path)
    assert len(tracer) == 0


def test_wrappers_removed_when_the_traced_block_raises(tmp_path):
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer(tmp_path / "spool").installed():
            raise RuntimeError("boom")
    assert all(_bindings()[k] is v for k, v in before.items())


def test_self_times_add_up_to_traced_wall_time(tmp_path):
    tracer, rep = _traced_rep(SMALL_SERIAL, tmp_path)
    spans = tracer.arrays()
    wall = spans["end"][0] - spans["start"][0]
    assert spans["name"][0] == ROOT_SPAN
    assert self_times(spans).sum() == pytest.approx(wall, rel=1e-9)

    layers = layer_metrics(spans, tracer.counts)
    busy = sum(v for k, v in layers.items()
               if k.endswith("_s") and k != "simulate.dispatch_s")
    own = self_times(spans)[spans["name"] == ROOT_SPAN].sum()
    assert busy + own == pytest.approx(wall, rel=1e-9)
    assert layers["simulate.frames"] == rep.frames == 10
    assert layers["simulate.chunks"] == 4
    assert layers["solvers.frames_solved"] == 6
    assert layers["simulate.pools_created"] == 0


def test_worker_spans_hang_under_their_pool(tmp_path):
    wl = replace(WORKLOADS["loaded_sweep"],
                 cells=(Cell("svd", 3, 2, 2, 0.0, 0.0, loading=True),),
                 iterations=5)
    tracer, rep = _traced_rep(wl, tmp_path)
    spans = tracer.arrays()
    layers = layer_metrics(spans, tracer.counts)
    assert layers["simulate.pools_created"] == layers["simulate.chunks"] >= 1
    assert layers["simulate.frames"] == rep.frames
    workers = spans["pid"] != spans["pid"][0]
    assert workers.any()
    roots = workers & (spans["name"] == "simulate.run_frames")
    assert set(spans["name"][spans["parent"][roots]]) == {tracing.POOL_SPAN}
    assert 0 < layers["simulate.worker_busy_frac"] <= 1
    assert not list((tmp_path / "spool").iterdir())


def _golden_for(wl, rep, seed):
    return {wl.name: {str(seed): {"cells": {c.key: [c.bits, c.errors]
                                            for c in rep.cells},
                                  "csv_sha256": rep.csv_sha256}}}


def test_corrupted_fingerprint_entry_fails_its_cell():
    wl = SMALL_SERIAL
    cells = [CellResult(c.key, c.frames * c.total_rate * 100, 7)
             for c in wl.cells]
    rep = RepResult(cells, frames=10)
    golden = _golden_for(wl, rep, 0)
    assert fingerprint.check_rep(wl, 0, rep, golden) == {}
    key = wl.cells[1].key
    golden[wl.name]["0"]["cells"][key][1] += 1
    assert list(fingerprint.check_rep(wl, 0, rep, golden)) == [key]
    # An unrecorded seed falls back to the structural invariants.
    assert fingerprint.check_rep(wl, 1, rep, golden) == {}


def test_sweep_csv_hash_is_part_of_the_fingerprint():
    wl = WORKLOADS["loaded_sweep"]
    chunk = 400 * 6 * 100
    rep = RepResult([CellResult(c.key, wl.max_bits, 3) for c in wl.cells],
                    frames=0, csv_sha256="a" * 64)
    golden = _golden_for(wl, rep, 0)
    assert fingerprint.check_rep(wl, 0, rep, golden) == {}
    rep.csv_sha256 = "b" * 64
    assert len(fingerprint.check_rep(wl, 0, rep, golden)) == len(wl.cells)
    # Structural: a cell that stopped short of both limits, or off a chunk
    # boundary, or with more errors than bits, fails without a recording.
    rep.cells[0].bits = chunk
    rep.cells[1].bits = chunk + 1
    rep.cells[2].errors = wl.max_bits + 1
    assert set(fingerprint.check_rep(wl, 9, rep, {})) == {
        c.key for c in wl.cells[:3]}


def test_raising_cell_is_counted_as_failed(tmp_path):
    bad = replace(SMALL_SERIAL,
                  cells=(Cell("nosuchmode", 3, 2, 2, 0.0, 10.0, frames=2,
                              chunk_frames=2),) + SMALL_SERIAL.cells[:1])
    rep = run_rep(bad, 0, tmp_path)
    failed = fingerprint.check_rep(bad, 0, rep, {})
    assert list(failed) == [bad.cells[0].key]
    assert "unknown mode" in failed[bad.cells[0].key]


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run_bench(ROOT, "--workload", "svd_unloaded", "--seed", "12345",
                     "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH="")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svd_unloaded",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""

"""Spans around iasim's layer functions, recorded from outside the package.

`Tracer.installed()` swaps each traced function for a wrapper in the module
namespaces that call it (the package binds its functions with
``from .x import y``, so the binding in the caller is the one to replace),
and puts every binding back on exit.  Spans are kept in memory as
(name, start, end, parent, pid) rows and written out once, at the end.

Pool workers are forked while a wrapped call is open, so they inherit the
wrappers.  A worker keeps its spans from each `run_frames` call in a file
under the tracer's spool directory; the parent merges those files after a
repetition and hangs the worker spans under the pool span that forked them.
"""

import concurrent.futures
import contextlib
import functools
import importlib
import os
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module defining the function, attribute, modules whose
# binding is replaced).  Engine-side helpers from modem and network are
# replaced only where the engine calls them.
TARGETS = (
    ("cli.run_experiment", "iasim.cli", "run_experiment", ("iasim.cli",)),
    ("simulate.sweep", "iasim.simulate", "sweep", ("iasim.cli",)),
    ("simulate.estimate_ber", "iasim.simulate", "estimate_ber",
     ("iasim.simulate",)),
    ("simulate.run_frames", "iasim.simulate", "run_frames",
     ("iasim.simulate",)),
    ("network.substream", "iasim.network", "substream", ("iasim.simulate",)),
    ("network.complex_normal", "iasim.network", "complex_normal",
     ("iasim.simulate",)),
    ("solvers.minil", "iasim.solvers", "minil_solve_batch",
     ("iasim.simulate",)),
    ("solvers.maxsinr", "iasim.solvers", "maxsinr_solve_batch",
     ("iasim.simulate",)),
    ("solvers.cross_gains", "iasim.solvers", "cross_gains",
     ("iasim.simulate", "iasim.solvers")),
    ("linalg.min_eigvec", "iasim.linalg", "min_eigvec", ("iasim.solvers",)),
    ("linalg.solve_posdef", "iasim.linalg", "solve_posdef",
     ("iasim.solvers",)),
    ("bitload.greedy", "iasim.bitload", "greedy_bitload_table",
     ("iasim.simulate",)),
    ("bitload.ber_eval", "iasim.modem", "ber_awgn_instant",
     ("iasim.simulate",)),
    ("modem.modulate", "iasim.modem", "modulate", ("iasim.simulate",)),
    ("modem.demodulate", "iasim.modem", "demodulate", ("iasim.simulate",)),
)
POOL_SPAN = "simulate.pool"
ROOT_SPAN = "bench.rep"

# Per-layer metrics -> unit.  The same table is listed in BENCHMARK.json.
LAYER_UNITS = {
    "network.sample_s": "s",
    "network.draw_calls": "count",
    "solvers.minil_s": "s",
    "solvers.maxsinr_s": "s",
    "solvers.cross_gains_s": "s",
    "solvers.frames_solved": "count",
    "solvers.nonfinite_frames": "count",
    "linalg.min_eigvec_s": "s",
    "linalg.solve_posdef_s": "s",
    "bitload.greedy_s": "s",
    "bitload.ber_eval_s": "s",
    "bitload.frames_loaded": "count",
    "modem.modulate_s": "s",
    "modem.demodulate_s": "s",
    "modem.calls": "count",
    "simulate.engine_self_s": "s",
    "simulate.estimate_self_s": "s",
    "simulate.chunks": "count",
    "simulate.frames": "count",
    "simulate.pools_created": "count",
    "simulate.dispatch_s": "s",
    "simulate.worker_busy_frac": "ratio",
}


def _nonfinite_frames(sol) -> int:
    ok = (np.isfinite(sol.u).all(axis=(1, 2))
          & np.isfinite(sol.v).all(axis=(1, 2)))
    return int((~ok).sum())


# Counters taken from a traced call's arguments and result, per span name.
_COUNTERS = {
    "simulate.run_frames":
        lambda args, res: {"frames": len(res)},
    "solvers.minil":
        lambda args, res: {"frames_solved": len(args[0]),
                           "nonfinite_frames": _nonfinite_frames(res)},
    "solvers.maxsinr":
        lambda args, res: {"frames_solved": len(args[0]),
                           "nonfinite_frames": _nonfinite_frames(res)},
    "bitload.greedy":
        lambda args, res: {"frames_loaded": len(args[0])},
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.span_pid = array("i")
        self.current = -1
        self.counts: dict[str, float] = {}

    # -- span store ---------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self._intern(name))
        self.parent.append(self.current)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.span_pid.append(os.getpid())
        self.current = idx
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def count(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def __len__(self):
        return len(self.name_id)

    def arrays(self, lo: int = 0) -> dict:
        """Spans from index `lo` on, with parents renumbered from `lo`."""
        names = np.array(self.names, dtype=object)
        return {
            "name": names[np.frombuffer(self.name_id, np.int32)[lo:]],
            "parent": np.frombuffer(self.parent, np.int32)[lo:] - lo,
            "start": np.frombuffer(self.start, np.float64)[lo:].copy(),
            "end": np.frombuffer(self.end, np.float64)[lo:].copy(),
            "pid": np.frombuffer(self.span_pid, np.int32)[lo:].copy(),
        }

    # -- wrappers -------------------------------------------------------
    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        worker_entry = name == "simulate.run_frames"

        def traced(*args, **kwargs):
            if worker_entry and os.getpid() != self.pid:
                return self._worker_call(name, fn, counter, args, kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            self._count_call(name, counter, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _count_call(self, name, counter, args, result):
        if counter is not None:
            layer = name.split(".")[0]
            for key, value in counter(args, result).items():
                self.count(f"{layer}.{key}", value)

    def _worker_call(self, name, fn, counter, args, kwargs):
        """A forked worker's chunk: record it alone and spool it to disk."""
        pool_idx = self.current  # the pool span open when this was forked
        self._reset()
        idx = self.begin(name)
        result = fn(*args, **kwargs)
        self.finish(idx)
        self._count_call(name, counter, args, result)
        path = self.spool_dir / f"w{os.getpid()}-{time.perf_counter_ns()}.npz"
        data = self.arrays()
        np.savez(path, pool=pool_idx, names=np.array(data["name"], dtype=str),
                 parent=data["parent"], start=data["start"], end=data["end"],
                 pid=data["pid"], counts_k=np.array(list(self.counts), dtype=str),
                 counts_v=np.array(list(self.counts.values()), dtype=float))
        self.current = pool_idx
        return result

    def _reset(self):
        for arr in (self.name_id, self.parent, self.start, self.end,
                    self.span_pid):
            del arr[:]
        self.counts = {}
        self.current = -1

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._bench_span = tracer.begin(POOL_SPAN)
                self._bench_slots = self._max_workers

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    idx = self._bench_span
                    tracer.finish(idx)
                    tracer.count("simulate.pool_capacity_s",
                                 (tracer.end[idx] - tracer.start[idx])
                                 * self._bench_slots)

        return TracedPool

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        saved = []
        try:
            for name, home, attr, callers in TARGETS:
                fn = getattr(importlib.import_module(home), attr)
                traced = self._wrap(name, fn)
                for mod_name in callers:
                    mod = importlib.import_module(mod_name)
                    if getattr(mod, attr) is not fn:
                        raise RuntimeError(f"{mod_name}.{attr} is not "
                                           f"{home}.{attr}")
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, traced)
            pool = concurrent.futures.ProcessPoolExecutor
            saved.append((concurrent.futures, "ProcessPoolExecutor", pool))
            concurrent.futures.ProcessPoolExecutor = self._pool_class(pool)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def merge_worker_spans(self):
        """Append spooled worker spans under the pool spans that made them."""
        for path in sorted(self.spool_dir.glob("w*.npz")):
            with np.load(path) as npz:
                d = {key: npz[key] for key in npz.files}
            parent = d["parent"].astype(np.int64)
            parent = np.where(parent < 0, int(d["pool"]), parent + len(self))
            self.name_id.extend(self._intern(str(n)) for n in d["names"])
            self.parent.extend(parent.tolist())
            self.start.extend(d["start"].tolist())
            self.end.extend(d["end"].tolist())
            self.span_pid.extend(d["pid"].tolist())
            for key, value in zip(d["counts_k"], d["counts_v"]):
                self.count(str(key), float(value))
            path.unlink()

    def save(self, path):
        data = self.arrays()
        np.savez_compressed(path, name=np.array(data["name"], dtype=str),
                            parent=data["parent"], start=data["start"],
                            end=data["end"], pid=data["pid"])


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the part its same-process children cover.

    Children of one span in one process run one after another, so their
    durations add up to the covered part.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = (parent >= 0) & (parent < len(dur))
    child[child] &= spans["pid"][child] == spans["pid"][parent[child]]
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def layer_metrics(spans: dict, counts: dict) -> dict:
    """Per-layer metrics of one repetition's spans and counters."""
    names = spans["name"]
    selft = self_times(spans)
    dur = spans["end"] - spans["start"]

    def busy(*span_names):
        return float(selft[np.isin(names, span_names)].sum())

    def calls(*span_names):
        return int(np.isin(names, span_names).sum())

    pools = np.flatnonzero(names == POOL_SPAN)
    dispatch = 0.0
    worker_busy = 0.0
    for p in pools:
        kids = np.flatnonzero((spans["parent"] == p)
                              & (names == "simulate.run_frames"))
        slowest = float(dur[kids].max()) if len(kids) else 0.0
        dispatch += float(dur[p]) - slowest
        worker_busy += float(dur[kids].sum())
    capacity = counts.get("simulate.pool_capacity_s", 0.0)
    in_parent = spans["pid"] == spans["pid"][0]
    parent_chunks = int(((names == "simulate.run_frames") & in_parent).sum())
    return {
        "network.sample_s": busy("network.substream",
                                 "network.complex_normal"),
        "network.draw_calls": calls("network.complex_normal"),
        "solvers.minil_s": busy("solvers.minil"),
        "solvers.maxsinr_s": busy("solvers.maxsinr"),
        "solvers.cross_gains_s": busy("solvers.cross_gains"),
        "solvers.frames_solved": int(counts.get("solvers.frames_solved", 0)),
        "solvers.nonfinite_frames":
            int(counts.get("solvers.nonfinite_frames", 0)),
        "linalg.min_eigvec_s": busy("linalg.min_eigvec"),
        "linalg.solve_posdef_s": busy("linalg.solve_posdef"),
        "bitload.greedy_s": busy("bitload.greedy"),
        "bitload.ber_eval_s": busy("bitload.ber_eval"),
        "bitload.frames_loaded": int(counts.get("bitload.frames_loaded", 0)),
        "modem.modulate_s": busy("modem.modulate"),
        "modem.demodulate_s": busy("modem.demodulate"),
        "modem.calls": calls("modem.modulate", "modem.demodulate"),
        "simulate.engine_self_s": busy("simulate.run_frames"),
        "simulate.estimate_self_s": busy("simulate.estimate_ber", "simulate.sweep"),
        "simulate.chunks": parent_chunks + len(pools),
        "simulate.frames": int(counts.get("simulate.frames", 0)),
        "simulate.pools_created": len(pools),
        "simulate.dispatch_s": dispatch,
        "simulate.worker_busy_frac":
            worker_busy / capacity if capacity > 0 else 0.0,
    }


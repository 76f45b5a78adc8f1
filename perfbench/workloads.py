"""The benchmark's workloads: which cells each one runs and how.

A cell is one BER estimate.  The serial workloads call
`iasim.simulate.estimate_ber` once per cell with a fixed frame count; the
loaded sweep runs one experiment through `iasim.cli.run_experiment` with
two worker processes and the error-target stop rule.  Every call goes
through the module attribute, so a tracer that swaps it sees the call.
"""

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

USES = 100         # symbols per stream per frame in the engine
RATE_PER_PAIR = 2
NETWORKS = ((3, 2, 2), (4, 3, 2))   # (K, nt, nr)


@dataclass(frozen=True)
class Cell:
    mode: str
    k: int
    nt: int
    nr: int
    epsilon: float
    snr_db: float
    frames: int = 0        # fixed frame count; 0 = error-target stop rule
    chunk_frames: int = 400
    loading: bool = False

    @property
    def key(self) -> str:
        return (f"{self.mode}{'+load' if self.loading else ''}/"
                f"K{self.k}-{self.nt}x{self.nr}/eps{self.epsilon:g}/"
                f"snr{self.snr_db:g}")

    @property
    def total_rate(self) -> int:
        return self.k * RATE_PER_PAIR


@dataclass
class CellResult:
    key: str
    bits: int | None = None
    errors: int | None = None
    error: str | None = None     # exception text when the cell raised


@dataclass
class RepResult:
    cells: list          # CellResult per cell, in workload order
    frames: int          # frames simulated in the repetition
    csv_sha256: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple
    workers: int = 1
    # Error-target stop rule of the sweep workload.
    target_errors: int = 0
    max_bits: int = 0
    iterations: int = 100


def _frames(cell: Cell, bits: int) -> int:
    return bits // (cell.total_rate * USES)


def _run_serial(wl: Workload, seed: int, before_cell) -> RepResult:
    from iasim import simulate
    from iasim.network import NetworkConfig

    results = []
    frames = 0
    for i, cell in enumerate(wl.cells):
        before_cell(i)
        cfg = NetworkConfig(k_pairs=cell.k, nt=cell.nt, nr=cell.nr,
                            rate_per_pair=RATE_PER_PAIR, epsilon=cell.epsilon,
                            iterations=wl.iterations, seed=seed)
        max_bits = cell.frames * cell.total_rate * USES
        try:
            est = simulate.estimate_ber(
                cfg, cell.mode, cell.snr_db, target_errors=max_bits + 1,
                max_bits=max_bits, chunk_frames=cell.chunk_frames,
                workers=wl.workers)
        except Exception as exc:  # a failing cell is counted, not fatal
            results.append(CellResult(cell.key, error=repr(exc)))
            continue
        results.append(CellResult(cell.key, est.bits_sent, est.bit_errors))
        frames += _frames(cell, est.bits_sent)
    return RepResult(results, frames)


def _experiment(wl: Workload, seed: int):
    from iasim.cli import Experiment
    from iasim.network import NetworkConfig

    k, nt, nr = wl.cells[0].k, wl.cells[0].nt, wl.cells[0].nr
    modes = list(dict.fromkeys(c.mode for c in wl.cells))
    snrs = list(dict.fromkeys(c.snr_db for c in wl.cells))
    cfg = NetworkConfig(k_pairs=k, nt=nt, nr=nr, power_p=1.0,
                        rate_per_pair=RATE_PER_PAIR, iterations=wl.iterations,
                        seed=seed)
    return Experiment(name=wl.name, cfg=cfg, snr_db=snrs, epsilon=[0.0],
                      modes=modes, loading=[True],
                      target_errors=wl.target_errors, max_bits=wl.max_bits)


def _run_sweep(wl: Workload, seed: int, out_dir: Path,
               workers: int | None = None) -> RepResult:
    from iasim import cli

    by_key = {c.key: c for c in wl.cells}
    try:
        path = cli.run_experiment(_experiment(wl, seed), out_dir,
                                  workers=wl.workers if workers is None
                                  else workers, timestamp=False)
    except Exception as exc:  # the whole sweep failed: every cell did
        return RepResult([CellResult(c.key, error=repr(exc))
                          for c in wl.cells], 0)
    data = path.read_bytes()
    results = []
    frames = 0
    for row in csv.DictReader(data.decode().splitlines()):
        cell = Cell(mode=row["mode"], k=int(row["K"]), nt=int(row["nt"]),
                    nr=int(row["nr"]), epsilon=float(row["epsilon"]),
                    snr_db=float(row["snr_db"]), loading=row["loading"] == "1")
        bits, errors = int(row["bits"]), int(row["errors"])
        results.append(CellResult(cell.key, bits, errors))
        if cell.key in by_key:
            frames += _frames(cell, bits)
    return RepResult(results, frames, hashlib.sha256(data).hexdigest())


def run_rep(wl: Workload, seed: int, out_dir, workers: int | None = None,
            before_cell=lambda i: None) -> RepResult:
    """Run every cell of the workload once.

    `workers` overrides the sweep's worker count (the fingerprint is
    recorded serially).  A serial workload calls `before_cell(i)` before
    its cell i.
    """
    if wl.target_errors:
        return _run_sweep(wl, seed, Path(out_dir), workers)
    if workers is not None and workers != wl.workers:
        raise ValueError("the serial workloads run with one worker")
    return _run_serial(wl, seed, before_cell)


def warm_up(wl: Workload, seed: int):
    """Fill lazy tables and import pool machinery with two-frame cells."""
    from iasim import simulate
    from iasim.network import NetworkConfig

    for cell in wl.cells:
        cfg = NetworkConfig(k_pairs=cell.k, nt=cell.nt, nr=cell.nr,
                            rate_per_pair=RATE_PER_PAIR, epsilon=cell.epsilon,
                            iterations=wl.iterations, seed=seed)
        simulate.estimate_ber(cfg, cell.mode, cell.snr_db, max_bits=1,
                              loading=cell.loading, chunk_frames=2,
                              workers=wl.workers)


def _grid(modes, snrs, eps, frames, chunk):
    return tuple(Cell(mode, k, nt, nr, e, snr, frames, chunk)
                 for k, nt, nr in NETWORKS for e in eps for mode in modes
                 for snr in snrs)


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="ia_unloaded",
            why="serial unloaded MinIL/Max-SINR on 3-user 2x2 and 4-user "
                "3x2 at eps 0 and 0.1: solvers and linalg (2x2 closed form "
                "and 3x3 LAPACK) do most of the work",
            cells=_grid(("minil", "maxsinr"), (10.0,), (0.0, 0.1),
                        frames=200, chunk=200)),
        Workload(
            name="svd_unloaded",
            why="serial SVD-SM at 30 dB on the same networks: no iterative "
                "solver, so modem, channel draws and engine glue do the work",
            cells=_grid(("svd",), (30.0,), (0.0, 0.1), frames=1200,
                        chunk=400)),
        Workload(
            name="loaded_sweep",
            why="fig6-style loaded sweep (4 modes, 0-20 dB) through "
                "cli.run_experiment with 2 workers and the error-target "
                "stop: bit loading, adaptive, one pool per chunk",
            cells=tuple(Cell(mode, 3, 2, 2, 0.0, snr, loading=True)
                        for mode in ("minil", "maxsinr", "svd", "adaptive")
                        for snr in (0.0, 5.0, 10.0, 15.0, 20.0)),
            workers=2, target_errors=200, max_bits=4 * 400 * 6 * USES,
            iterations=20),
    )
}

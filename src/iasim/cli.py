"""Command-line front end: experiment configs, figure presets, CSV output.

Config files are flat key=value text ('#' comments).  Scalar grids accept
comma lists (0,5,10) or inclusive ranges (start:stop:step).  Presets
fig1..fig7 reproduce the standard experiment sweeps; everything lands in
one CSV per experiment.
"""

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from .network import NetworkConfig, check_count
from .simulate import (MODE_ADAPTIVE, MODE_MAXSINR, MODE_MINIL, MODE_SVD,
                       RUN_MODES, check_mode_config, fig1_stats, sweep)

_CONFIG_KEYS = {
    "k", "nt", "nr", "rate_per_pair", "epsilon", "snr_db", "modes",
    "loading", "iterations", "seed", "target_errors", "max_bits",
}

_CSV_COLUMNS = ["experiment", "mode", "loading", "K", "nt", "nr", "snr_db",
                "epsilon", "bits", "errors", "ber", "ci95", "analytic_ber"]

_FIG1_COLUMNS = ["experiment", "power", "avg_desired_power",
                 "avg_interference", "minil_baseline", "beamforming_power"]

FIG1_POWERS = [1e0, 1e1, 1e2, 1e3, 1e4]  # linear powers of the fig1 table


@dataclass
class Experiment:
    """A network configuration plus the sweep to run over it."""

    name: str
    cfg: NetworkConfig
    snr_db: list
    epsilon: list
    modes: list
    loading: list
    target_errors: int = 200
    max_bits: int = 20_000_000
    special: str | None = None  # "fig1" runs the power-statistics table


def _parse_values(text: str) -> list:
    """Grid syntax: scalar, comma list, or inclusive start:stop:step.

    Every number must be finite.
    """
    text = text.strip()
    sep = ":" if ":" in text else ","
    values = [float(x) for x in text.split(sep) if x.strip()]
    if not all(math.isfinite(x) for x in values):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if sep == ",":
        return values
    if len(values) != 3 or values[2] <= 0:
        raise ValueError(f"bad range syntax {text!r}, want start:stop:step")
    start, stop, step = values
    out = []
    x = start
    while x <= stop + 1e-9:
        out.append(round(x, 10))
        x += step
    return out


def parse_config(path) -> Experiment:
    """Load and validate a flat key=value experiment file.

    Unknown keys are rejected by name; infeasible mode/antenna combos get
    a diagnostic citing the alignment counting condition.
    """
    path = Path(path)
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value

    def integer(key, text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not value.is_integer():
            raise ValueError(f"{path}: {key} must be an integer, got {text!r}")
        return int(value)

    def geti(key, default):
        return integer(key, raw[key]) if key in raw else default

    cfg = NetworkConfig(
        k_pairs=geti("k", 3), nt=geti("nt", 2), nr=geti("nr", 2),
        power_p=1.0, rate_per_pair=geti("rate_per_pair", 2),
        epsilon=0.0, iterations=geti("iterations", 100),
        seed=geti("seed", 0))
    snr_db = _parse_values(raw.get("snr_db", "0:30:5"))
    epsilon = _parse_values(raw.get("epsilon", "0"))
    for eps in epsilon:
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"epsilon {eps} outside [0, 1]")
    modes = [m.strip().lower() for m in raw.get("modes", "minil").split(",")]
    for mode in modes:
        if mode not in RUN_MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {RUN_MODES}")
    loading_txt = raw.get("loading", "0")
    loading = [integer("loading", x.strip()) for x in loading_txt.split(",")]
    if not set(loading) <= {0, 1}:
        raise ValueError(
            f"{path}: loading must be 0 or 1, got {loading_txt!r}")
    loading = [bool(x) for x in loading]

    exp = Experiment(name=path.stem, cfg=cfg, snr_db=snr_db, epsilon=epsilon,
                     modes=modes, loading=loading,
                     target_errors=geti("target_errors", 200),
                     max_bits=geti("max_bits", 20_000_000))
    validate_experiment(exp)
    return exp


def validate_experiment(exp: Experiment):
    """Feasibility checks shared by config files and presets."""
    cfg = exp.cfg
    if not cfg.is_proper and any(
            m in (MODE_MINIL, MODE_MAXSINR, MODE_ADAPTIVE) for m in exp.modes):
        print(f"warning: nt + nr = {cfg.nt + cfg.nr} < K + 1 = "
              f"{cfg.k_pairs + 1}; single-stream alignment is not proper "
              "for this configuration", file=sys.stderr)
    for mode in exp.modes:
        for loading in exp.loading:
            check_mode_config(cfg, mode, loading)


def preset(name: str) -> Experiment:
    """Built-in experiment definitions fig1..fig7, at seed 0.

    Callers that want another seed replace `cfg.seed` on the result.
    """
    base = dict(power_p=1.0, rate_per_pair=2, iterations=100, seed=0)
    full_modes = [MODE_MINIL, MODE_MAXSINR, MODE_SVD]
    snr = [0, 5, 10, 15, 20, 25, 30]
    if name == "fig1":
        exp = Experiment(name=name,
                         cfg=NetworkConfig(k_pairs=3, nt=3, nr=2, **base),
                         snr_db=[], epsilon=[0.0], modes=[MODE_MAXSINR],
                         loading=[False], special="fig1")
    elif name == "fig2":
        exp = Experiment(name=name,
                         cfg=NetworkConfig(k_pairs=3, nt=2, nr=2, **base),
                         snr_db=snr, epsilon=[0.0, 0.05, 0.1],
                         modes=full_modes, loading=[False])
    elif name == "fig3":
        exp = Experiment(name=name,
                         cfg=NetworkConfig(k_pairs=3, nt=3, nr=2, **base),
                         snr_db=snr, epsilon=[0.0, 0.05, 0.1],
                         modes=full_modes, loading=[False])
    elif name == "fig4":
        exp = Experiment(name=name,
                         cfg=NetworkConfig(k_pairs=4, nt=3, nr=2, **base),
                         snr_db=snr, epsilon=[0.0, 0.05, 0.1],
                         modes=full_modes, loading=[False])
    elif name == "fig5":
        exp = Experiment(name=name,
                         cfg=NetworkConfig(k_pairs=3, nt=2, nr=2, **base),
                         snr_db=[20.0],
                         epsilon=[0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5],
                         modes=full_modes, loading=[False])
    elif name == "fig6":
        exp = Experiment(name=name,
                         cfg=NetworkConfig(k_pairs=3, nt=2, nr=2, **base),
                         snr_db=snr, epsilon=[0.0],
                         modes=full_modes + [MODE_ADAPTIVE], loading=[True])
    elif name == "fig7":
        exp = Experiment(name=name,
                         cfg=NetworkConfig(k_pairs=3, nt=2, nr=2, **base),
                         snr_db=[15.0],
                         epsilon=[0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5],
                         modes=full_modes + [MODE_ADAPTIVE], loading=[True])
    else:
        raise ValueError(f"unknown preset {name!r} (fig1..fig7)")
    validate_experiment(exp)
    return exp


def run_experiment(exp: Experiment, out_dir, workers: int = 1,
                   timestamp: bool = True) -> Path:
    """Run one experiment and write its CSV; returns the file path."""
    check_count("workers", workers)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{exp.name}.csv"
    if exp.special == "fig1":
        rows = fig1_stats(exp.cfg, FIG1_POWERS)
        for row in rows:
            row["experiment"] = exp.name
        columns = _FIG1_COLUMNS
    else:
        rows = sweep(exp.cfg, exp.snr_db, exp.epsilon, exp.modes,
                     exp.loading, target_errors=exp.target_errors,
                     max_bits=exp.max_bits, workers=workers)
        for row in rows:
            row["experiment"] = exp.name
        columns = _CSV_COLUMNS
    with out_path.open("w", newline="") as fh:
        if timestamp:
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            fh.write(f"# generated {stamp}\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            if out.get("analytic_ber") is None:
                out["analytic_ber"] = ""
            writer.writerow({c: out.get(c, "") for c in columns})
    return out_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iasim",
        description="Interference-network link simulator: BER sweeps and "
                    "figure reproductions")
    parser.add_argument("--config", type=Path, help="experiment file")
    parser.add_argument("--preset", help="built-in experiment (fig1..fig7)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="processes for frame simulation (results are "
                             "worker-count independent)")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory")
    parser.add_argument("--target-errors", type=int, default=None)
    parser.add_argument("--max-bits", type=int, default=None)
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the generation-time header line")
    args = parser.parse_args(argv)

    if bool(args.config) == bool(args.preset):
        parser.error("specify exactly one of --config or --preset")
    try:
        if args.config:
            exp = parse_config(args.config)
        else:
            exp = preset(args.preset)
        if args.seed is not None:
            exp.cfg = replace(exp.cfg, seed=args.seed)
        if args.target_errors is not None:
            exp.target_errors = args.target_errors
        if args.max_bits is not None:
            exp.max_bits = args.max_bits
        path = run_experiment(exp, args.out, workers=args.workers,
                              timestamp=not args.no_timestamp)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: experiment configs, figure presets, CSV output.

Config files are flat key=value text ('#' comments).  Scalar grids accept
comma lists (0,5,10) or inclusive ranges (start:stop:step).  Presets
fig1..fig7 reproduce the standard experiment sweeps; everything lands in
one CSV per experiment.  simulate.sweep_cells, the one cell plan, checks
a sweep's settings before any output; the rows name the CSV columns.
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
                       fig1_stats, sweep, sweep_cells)

# Integer config keys: those of the network, with the NetworkConfig field
# each sets, and those of the stop rule.
_NETWORK_KEYS = {"k": "k_pairs", "nt": "nt", "nr": "nr",
                 "rate_per_pair": "rate_per_pair",
                 "iterations": "iterations", "seed": "seed"}
_STOP_KEYS = ("target_errors", "max_bits")
_CONFIG_KEYS = {*_NETWORK_KEYS, *_STOP_KEYS, "epsilon", "snr_db", "modes",
                "loading"}

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

    A grid needs at least one value, every number must be finite, and a
    range's step must move it.
    """
    text = text.strip()
    sep = ":" if ":" in text else ","
    values = [float(x) for x in text.split(sep) if x.strip()]
    if not all(math.isfinite(x) for x in values):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if sep == ":":
        if len(values) != 3 or values[2] <= 0:
            raise ValueError(
                f"bad range syntax {text!r}, want start:stop:step")
        start, stop, step = values
        values = []
        x = start
        while x <= stop + 1e-9:
            values.append(round(x, 10))
            if x + step == x:
                raise ValueError(f"range step {step:g} is below the float "
                                 f"spacing at {x:g} in {text!r}")
            x += step
    if not values:
        raise ValueError(f"grid {text!r} has no values")
    return values


def parse_config(path) -> Experiment:
    """Load and validate a flat key=value experiment file.

    Unknown or repeated keys are rejected by name; infeasible mode/antenna
    combos get a diagnostic citing the alignment counting condition.
    """
    path = Path(path)
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line "
                             f"{first_line[key]}")
        raw[key], first_line[key] = value, lineno

    def integer(key, text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not value.is_integer():
            raise ValueError(f"{path}: {key} must be an integer, got {text!r}")
        return int(value)

    def present(keys):
        return {key: integer(key, raw[key]) for key in keys if key in raw}

    cfg = NetworkConfig(power_p=1.0, **{
        _NETWORK_KEYS[key]: value
        for key, value in present(_NETWORK_KEYS).items()})
    snr_db = _parse_values(raw.get("snr_db", "0:30:5"))
    epsilon = _parse_values(raw.get("epsilon", "0"))
    modes = [m.strip().lower() for m in raw.get("modes", "minil").split(",")]
    loading_txt = raw.get("loading", "0")
    loading = [integer("loading", x.strip()) for x in loading_txt.split(",")]
    if not set(loading) <= {0, 1}:
        raise ValueError(
            f"{path}: loading must be 0 or 1, got {loading_txt!r}")
    loading = [bool(x) for x in loading]

    exp = Experiment(name=path.stem, cfg=cfg, snr_db=snr_db, epsilon=epsilon,
                     modes=modes, loading=loading, **present(_STOP_KEYS))
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
    if exp.special != "fig1":
        sweep_cells(cfg, exp.snr_db, exp.epsilon, exp.modes, exp.loading)


_SNR = [0, 5, 10, 15, 20, 25, 30]
_EPS = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5]
_FULL = [MODE_MINIL, MODE_MAXSINR, MODE_SVD]
# name: ((K, nt, nr), snr_db, epsilon, modes, loading, special)
_PRESETS = {
    "fig1": ((3, 3, 2), [], [0.0], [MODE_MAXSINR], [False], "fig1"),
    "fig2": ((3, 2, 2), _SNR, [0.0, 0.05, 0.1], _FULL, [False], None),
    "fig3": ((3, 3, 2), _SNR, [0.0, 0.05, 0.1], _FULL, [False], None),
    "fig4": ((4, 3, 2), _SNR, [0.0, 0.05, 0.1], _FULL, [False], None),
    "fig5": ((3, 2, 2), [20.0], _EPS, _FULL, [False], None),
    "fig6": ((3, 2, 2), _SNR, [0.0], _FULL + [MODE_ADAPTIVE], [True], None),
    "fig7": ((3, 2, 2), [15.0], _EPS, _FULL + [MODE_ADAPTIVE], [True], None),
}


def preset(name: str) -> Experiment:
    """Built-in experiment definitions fig1..fig7, at seed 0.

    Callers that want another seed replace `cfg.seed` on the result.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r} (fig1..fig7)")
    (k, nt, nr), snr_db, epsilon, modes, loading, special = _PRESETS[name]
    cfg = NetworkConfig(k_pairs=k, nt=nt, nr=nr, power_p=1.0,
                        rate_per_pair=2, iterations=100, seed=0)
    exp = Experiment(name=name, cfg=cfg, snr_db=list(snr_db),
                     epsilon=list(epsilon), modes=list(modes),
                     loading=list(loading), special=special)
    validate_experiment(exp)
    return exp


def run_experiment(exp: Experiment, out_dir, workers: int = 1,
                   timestamp: bool = True) -> Path:
    """Run one experiment and write its CSV; returns the file path."""
    check_count("workers", workers)
    check_count("target_errors", exp.target_errors)
    check_count("max_bits", exp.max_bits)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{exp.name}.csv"
    if exp.special == "fig1":
        rows = fig1_stats(exp.cfg, FIG1_POWERS)
    else:
        rows = sweep(exp.cfg, exp.snr_db, exp.epsilon, exp.modes,
                     exp.loading, target_errors=exp.target_errors,
                     max_bits=exp.max_bits, workers=workers)
    with out_path.open("w", newline="") as fh:
        if timestamp:
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            fh.write(f"# generated {stamp}\n")
        writer = csv.DictWriter(fh, fieldnames=["experiment", *rows[0]])
        writer.writeheader()
        # A missing analytic_ber (None) is written as an empty field.
        writer.writerows({"experiment": exp.name, **row} for row in rows)
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
        stop = {key: getattr(args, key) for key in _STOP_KEYS
                if getattr(args, key) is not None}
        if stop and exp.special == "fig1":
            raise ValueError("fig1 takes no stop rule: --target-errors and "
                             "--max-bits apply to BER sweeps")
        exp = replace(exp, **stop)
        if args.seed is not None:
            exp.cfg = replace(exp.cfg, seed=args.seed)
        path = run_experiment(exp, args.out, workers=args.workers,
                              timestamp=not args.no_timestamp)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

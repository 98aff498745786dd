"""Command-line experiment runner.

Reads a flat key-value config, executes the named experiment (or a sweep
when the config carries a sweep axis), and writes versioned CSV tables plus
a JSON metadata sidecar.  Repeated runs with the same config and seed are
byte-identical in the CSV bodies; only the sidecar carries timestamps.  The
process's affinity mask sets the cores a run forks on (``core.USABLE_CORES``):
``taskset -c 0 cavens ...`` runs on one.

Exit codes: 0 success, 2 config error (also a sweep its experiment cannot
run, and an ``--out`` whose directory cannot be made, found before the
solve), 3 solver failure, 4 partial failure (failed sweep points, powers or
bins; the others are written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .config import ConfigError, load_config
from .core import ParameterError
from .experiments import SOLVER_ERRORS, ExperimentResult, Table, run_experiment, run_sweep

CSV_SCHEMA = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PARTIAL = 4


def write_table(table: Table, path: str) -> None:
    """The table as CSV; its cells are ints, floats and strs (``str`` of a float is its repr)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema={CSV_SCHEMA}\n")
        fh.write(",".join(table.columns) + "\n")
        for row in table.rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_outputs(result: ExperimentResult, prefix: str, extra_meta: dict) -> list[str]:
    out_dir = os.path.dirname(os.path.abspath(prefix))
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for table in result.tables:
        path = f"{prefix}_{table.name}.csv"
        write_table(table, path)
        paths.append(path)
    meta = dict(extra_meta)
    meta.update(result.metadata)
    meta["tables"] = [os.path.basename(p) for p in paths]
    meta["failures"] = result.failures
    meta_path = f"{prefix}_metadata.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
    paths.append(meta_path)
    return paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavens",
        description="Driven inhomogeneous cavity-ensemble experiments",
    )
    parser.add_argument("--config", required=True, help="experiment config file (key = value)")
    parser.add_argument("--out", default="cavens_run", help="output path prefix")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed; recorded in the metadata for "
                             "provenance only (no solver draws random numbers)")
    parser.add_argument("--experiment", default=None,
                        help="override the experiment named in the config")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        cfg = load_config(args.config, experiment_override=args.experiment)
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    except (ConfigError, ParameterError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = args.seed if args.seed is not None else cfg.seed
    try:
        result = run_sweep(cfg) if cfg.sweep_axis is not None else run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    extra = {
        "experiment": cfg.experiment,
        "config": cfg.resolved,
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.monotonic() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    paths = write_outputs(result, args.out, extra)
    for p in paths:
        print(p)
    if result.failures:
        print(f"{len(result.failures)} point(s) failed", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

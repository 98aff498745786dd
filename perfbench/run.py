"""Benchmark of cavens: whole CLI runs, each in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run makes its inputs from the seed, times a few set-up-only processes
(``import cavens`` plus ``config.load_config``), then repeats whole runs
(load the config, run the experiment, write the outputs) until S seconds
have passed, at least once.  Every run's outputs are checked against the
oracles in ``oracles.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` points, and the metrics,
the end-to-end ones with ``--trace 0`` and the per-layer ones (from runs
with every layer wrapped, see ``spans.py``) with ``--trace 1``.

The program's processes keep the BLAS library's default thread count, as a
user's run does.  This process runs the checks on one BLAS thread.
"""

from __future__ import annotations

import os

CHILD_ENV = dict(os.environ)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # the whole benchmark run, checks included

END_TO_END = {"wall_s": "s", "setup_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}

# name -> unit; a name absent from a traced run's spans reads 0
PER_LAYER = {
    "import.cavens.s": "s",
    "config.load_config.s": "s",
    "meanfield.reflection_spectrum.calls": "count",
    "meanfield.reflection_spectrum.s": "s",
    "meanfield.solve_selfconsistent_x.calls": "count",
    "meanfield.solve_selfconsistent_x.s": "s",
    "analysis.fit_lorentzian_dip.calls": "count",
    "analysis.fit_lorentzian_dip.s": "s",
    "analysis.fit_cit_power_laws.s": "s",
    "ensemble.bin_lorentzian.s": "s",
    "ensemble.incoherent_scurve.self_s": "s",
    "dicke.pulsed_block_emission.calls": "count",
    "dicke.pulsed_block_emission.s": "s",
    "dicke.build_block_generator.calls": "count",
    "dicke.build_block_generator.misses": "count",
    "dicke.build_block_generator.s": "s",
    "dicke.block_evolve.calls": "count",
    "dicke.block_evolve.s": "s",
    "dicke.block_evolve.max_dim": "count",
    "dicke.block_observables.s": "s",
    "lindblad.build_generator.s": "s",
    "lindblad.evolve.calls": "count",
    "lindblad.evolve.s": "s",
    "lindblad.Liouvillian.matvec.calls": "count",
    "lindblad.evolve_expm.s": "s",
    "lindblad.collective_operators.s": "s",
    "experiments.run_experiment.s": "s",
    "experiments.run_experiment.self_s": "s",
    "cli.write_outputs.s": "s",
    "cli.write_outputs.bytes": "bytes",
    "trace.wall_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def spawn(src: str, workdir: str, config: str, tag: str, *flags: str, timeout: float) -> dict:
    """One fresh process; returns its result with the spawn time added."""
    result = os.path.join(workdir, f"{tag}.pkl")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), src, config,
           os.path.join(workdir, "out", tag), result, *flags]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise ChildFailed(f"{tag} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result, "rb") as fh:
        out = pickle.load(fh)
    out["t_spawn"] = t_spawn
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_begin = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cavens", "__init__.py")):
        print("perfbench: no cavens sources at ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import cavens

    workdir = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    threads = CHILD_ENV.get("OPENBLAS_NUM_THREADS", f"the default, one per core ({os.cpu_count()})")
    print(f"{args.workload}, seed {args.seed}: {workload.points} points a run; "
          f"{workload.describe()}; BLAS threads in the program: {threads}", flush=True)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - t_begin)

    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            probe = spawn(src, workdir, workload.config, f"setup{k}", "--setup-only",
                          timeout=remaining())
            setups.append(probe["t_configured"] - probe["t_start"])

    runs, layers = [], []
    attempted = failed = 0
    correct = True
    t_measure = time.monotonic()
    for n in itertools.count():
        if n and time.monotonic() - t_measure >= args.seconds:
            break
        tag = f"run{n}"
        flags = ("--trace", os.path.join(workdir, f"{tag}.spans.json")) if args.trace else ()
        attempted += workload.points
        try:
            run = spawn(src, workdir, workload.config, tag, *flags, timeout=remaining())
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"run {tag} failed: {exc}", file=sys.stderr)
            failed += workload.points
            correct = False
            break
        setups.append(run["t_configured"] - run["t_start"])
        if "error" in run:
            print(f"{tag}: the program raised {run['error']}", file=sys.stderr)
            failed += workload.points
            continue
        verdict = workload.check(run, cavens)
        failed += len(verdict.flagged | verdict.wrong)
        for problem in verdict.problems:
            print(f"{tag}: check failed: {problem}", file=sys.stderr)
        correct = correct and not verdict.problems
        runs.append(run)
        if args.trace:
            with open(flags[1], encoding="utf-8") as fh:
                traced = json.load(fh)
            metrics = layer_metrics(traced["spans"], traced["counters"])
            metrics["cli.write_outputs.bytes"] = run["bytes_written"]
            metrics["trace.wall_s"] = run["t_written"] - run["t_spawn"]
            layers.append(metrics)

    if not runs:
        print("perfbench: no run finished, so there is nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        values = {name: statistics.median(m.get(name, 0) for m in layers) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(r["t_written"] - r["t_spawn"] for r in runs),
            "setup_s": statistics.median(setups),
            "points_per_s": statistics.median(workload.points / (r["t_solved"] - r["t_configured"])
                                              for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = END_TO_END
    print(f"{len(runs)} run(s), {len(setups)} set-ups, {time.monotonic() - t_begin:.1f} s "
          f"in all", flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

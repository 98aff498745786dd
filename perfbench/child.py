"""One benchmark run of cavens in a fresh process, as the CLI does it:
``config.load_config``, ``experiments.run_experiment``, ``cli.write_outputs``.

Usage: python3 child.py SRC CONFIG PREFIX RESULT [--setup-only] [--trace SPANS]

Writes a pickle to RESULT with the phase timestamps (``time.monotonic``,
comparable with the parent's clock), the peak resident memory once the
outputs are written, the returned tables, metadata and failures, and the
non-converged spectrum points.  With ``--trace`` it wraps each layer's
public functions (see ``spans.py``) and writes the spans to SPANS.
"""

import time

T_START = time.monotonic()

import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    src, config_path, prefix, result_path = argv[:4]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    sys.path.insert(0, src)
    t_import0 = time.perf_counter()
    import cavens
    from cavens import analysis, cli, config, dicke, ensemble, experiments, lindblad, meanfield
    t_import1 = time.perf_counter()
    t_imported = time.monotonic()

    # The tables of cit-power-sweep drop the per-point convergence flags,
    # so the non-converged points of every spectrum solve are noted as
    # (solve index, point index) on the way out.
    not_converged: list[tuple[int, int]] = []
    n_solves = [0]
    solve_spectrum = meanfield.reflection_spectrum

    def reflection_spectrum(*args, **kwargs):
        spec = solve_spectrum(*args, **kwargs)
        not_converged.extend((n_solves[0], int(i)) for i in (~spec.converged).nonzero()[0])
        n_solves[0] += 1
        return spec

    meanfield.reflection_spectrum = reflection_spectrum

    tracer = None
    if spans_path is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.record("import.cavens", t_import0, t_import1)
        tracer.install({"config": config, "experiments": experiments, "cli": cli,
                        "meanfield": meanfield, "analysis": analysis, "ensemble": ensemble,
                        "dicke": dicke, "lindblad": lindblad})

    out = {"t_start": T_START, "t_imported": t_imported}
    cfg = config.load_config(config_path)
    out["t_configured"] = time.monotonic()
    if not setup_only:
        try:
            result = experiments.run_experiment(cfg)
        except Exception as exc:  # every solver error flags the whole run
            out["error"] = f"{type(exc).__name__}: {exc}"
            result = None
        out["t_solved"] = time.monotonic()
        if result is not None:
            extra = {"experiment": cfg.experiment, "config": cfg.resolved, "seed": cfg.seed,
                     "version": cavens.__version__,
                     "wall_time_s": out["t_solved"] - out["t_imported"],
                     "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
            paths = cli.write_outputs(result, prefix, extra)
            out["t_written"] = time.monotonic()
            out["bytes_written"] = sum(os.path.getsize(p) for p in paths)
            out["tables"] = {t.name: (t.columns, t.rows) for t in result.tables}
            out["metadata"] = result.metadata
            out["failures"] = result.failures
        out["not_converged"] = not_converged
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "wb") as fh:
        pickle.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

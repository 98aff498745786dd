"""Named experiments binding the solver modules to tabular outputs.

Each experiment returns CSV-ready tables plus metadata extras; the CLI
writes them.  Sweeps re-run an experiment along one axis with deterministic
ordered aggregation regardless of worker scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import analysis, dicke, ensemble as ensemble_mod, lindblad, meanfield
from .config import ConfigError, ExperimentConfig
from .core import (
    CapabilityError,
    EmitterEnsemble,
    ParameterError,
    derive_rates,
    mu_from_power,
    power_from_mu,
    propagate,
    validate_assumptions,
)
from .units import TWO_PI, angular_to_hz


class SolverFailure(RuntimeError):
    """An experiment's solver failed outright."""


#: The failures a run reports as a solver failure rather than a bug.
SOLVER_ERRORS = (SolverFailure, meanfield.SelfConsistencyError, CapabilityError, ParameterError,
                 analysis.FitError)


@dataclass
class Table:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple]


@dataclass
class ExperimentResult:
    tables: list[Table]
    metadata: dict = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)


def _resolve_powers(cfg: ExperimentConfig) -> np.ndarray:
    """Power list in watts from the power grid or the single drive values."""
    if cfg.power_grid is not None:
        return cfg.power_grid.values()
    if cfg.power_w is not None:
        return np.array([cfg.power_w])
    if cfg.mu is not None:
        return np.array([power_from_mu(cfg.mu, cfg.model.cavity)])
    raise ConfigError("experiment needs grid.power, drive.power_w, or drive.mu")


def _single_drive(cfg: ExperimentConfig) -> tuple[float, float]:
    """The drive power (W) and mu of an experiment that takes one power."""
    powers = _resolve_powers(cfg)
    if len(powers) != 1:
        raise ConfigError(f"{cfg.experiment} takes a single power (drive.power_w or drive.mu)")
    return float(powers[0]), mu_from_power(powers[0], cfg.model.cavity)


def _need(value, key: str):
    if value is None:
        raise ConfigError(f"missing required key for this experiment", key=key)
    return value


def _spectrum_ensemble(cfg: ExperimentConfig) -> EmitterEnsemble:
    ens = cfg.model.ensemble
    if cfg.quantiles is not None:
        ens = ens.to_explicit(cfg.quantiles)
    return ens


def run_reflection_spectrum(cfg: ExperimentConfig) -> ExperimentResult:
    grid_hz = _need(cfg.freq_grid, "grid.freq.start_hz").values()
    grid = grid_hz * TWO_PI
    ens = _spectrum_ensemble(cfg)
    powers = _resolve_powers(cfg)
    tables = []
    not_converged = []
    threads = 1
    for i, p in enumerate(powers):
        mu = mu_from_power(p, cfg.model.cavity)
        spec = meanfield.reflection_spectrum(ens, mu, grid, cfg.model.cavity,
                                             cfg.model.decoherence)
        not_converged.append(int(np.count_nonzero(~spec.converged)))
        threads = max(threads, spec.response_threads)
        rows = [(f, float(r.real), float(r.imag), float(refl), float(ph), int(ok))
                for f, r, refl, ph, ok in zip(grid_hz, spec.r_complex, spec.reflectance,
                                              spec.phase, spec.converged)]
        tables.append(Table(name=f"spectrum_{i:03d}",
                            columns=("freq_hz", "r_real", "r_imag", "reflectance",
                                     "phase_rad", "converged"),
                            rows=rows))
    meta = {"powers_w": [float(p) for p in powers],
            "mu": [float(mu_from_power(p, cfg.model.cavity)) for p in powers],
            "not_converged": not_converged, "response_threads": threads}
    return ExperimentResult(tables=tables, metadata=meta)


def run_cit_power_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    grid_hz = _need(cfg.freq_grid, "grid.freq.start_hz").values()
    grid = grid_hz * TWO_PI
    powers = _need(cfg.power_grid, "grid.power.start_w").values()
    ens = _spectrum_ensemble(cfg)
    cav = cfg.model.cavity
    norm = analysis.DipNormalization(cavity_min=(1.0 - 2.0 * cav.coupling_ratio) ** 2,
                                     dir_max=1.0)
    rows = []
    fitted = []
    not_converged = []
    failures = []
    threads = 1
    for i, p in enumerate(powers):
        mu = mu_from_power(p, cfg.model.cavity)
        spec = meanfield.reflection_spectrum(ens, mu, grid, cav, cfg.model.decoherence)
        not_converged.append(int(np.count_nonzero(~spec.converged)))
        threads = max(threads, spec.response_threads)
        try:
            fit = analysis.fit_lorentzian_dip(spec, norm)
        except analysis.FitError as exc:
            failures.append({"power_index": i, "error": str(exc)})
            fit = None
        if fit is None:
            rows.append((float(p), float(mu), math.nan, math.nan, math.nan, math.nan, math.nan))
        else:
            fitted.append((p, fit))
            rows.append((float(p), float(mu), angular_to_hz(fit.width),
                         angular_to_hz(fit.stderr["width"]), fit.depth,
                         fit.stderr["depth"], angular_to_hz(fit.center)))
    meta: dict = {"not_converged": not_converged, "response_threads": threads}
    if len(fitted) >= 5:
        try:
            law = analysis.fit_cit_power_laws([p for p, _ in fitted],
                                              [f.width for _, f in fitted],
                                              [f.depth for _, f in fitted])
            meta["power_law"] = law.as_dict()
        except analysis.FitError as exc:
            meta["power_law_error"] = str(exc)
    table = Table(name="cit_power_sweep",
                  columns=("power_w", "mu", "width_hz", "width_stderr_hz",
                           "depth", "depth_stderr", "center_hz"),
                  rows=rows)
    return ExperimentResult(tables=[table], metadata=meta, failures=failures)


def run_emission_trace(cfg: ExperimentConfig) -> ExperimentResult:
    times = _need(cfg.time_grid, "grid.time.start_s").values()
    pulse = _need(cfg.pulse_length, "drive.pulse_length_s")
    power, mu = _single_drive(cfg)
    res = lindblad.pulsed_emission(cfg.model, mu, pulse, times,
                                   laser_detuning=cfg.laser_detuning * TWO_PI)
    tr = res.trace
    rows = [(float(t), float(j), float(ind), float(corr), float(c.real), float(c.imag),
             float(cp))
            for t, j, ind, corr, c, cp in zip(tr.times, tr.jpjm, tr.individual,
                                              tr.correlation, tr.coherent_amp, tr.cavity_pop)]
    table = Table(name="emission_trace",
                  columns=("time_s", "jpjm", "individual", "correlation",
                           "coherent_real", "coherent_imag", "cavity_pop"),
                  rows=rows)
    meta = {"peak_instant": res.peak_instant, "peak_counts": res.peak_counts,
            "mu": float(mu), "power_w": power}
    return ExperimentResult(tables=[table], metadata=meta)


def _identical_count_and_g(cfg: ExperimentConfig) -> tuple[int, float]:
    ens = cfg.model.ensemble
    if ens.is_parametric:
        if ens.g is None:
            raise ConfigError("this experiment needs a single coupling g (ensemble.g_hz)")
        return ens.n, ens.g
    gs = ens.couplings()
    if np.ptp(gs) > 1e-9 * gs[0]:
        raise ConfigError("this experiment needs identical emitters (ensemble.kind = identical)")
    return ens.n, float(gs[0])


def _identical_detuning(cfg: ExperimentConfig) -> float:
    """Emitter-minus-laser detuning (rad/s) of an identical group: its
    detuning from the center (a parametric line's group sits at the
    center), plus the center, minus ``drive.laser_detuning_hz``.
    ``cavity.delta_c`` is taken as configured."""
    ens = cfg.model.ensemble
    offset = 0.0
    if not ens.is_parametric:
        ds = ens.detunings()
        if np.ptp(ds) > 0:
            raise ConfigError("this experiment needs emitters at one detuning "
                              "(ensemble.kind = identical)")
        offset = float(ds[0])
    return offset + ens.center - cfg.laser_detuning * TWO_PI


def run_s_curve(cfg: ExperimentConfig) -> ExperimentResult:
    pulse = _need(cfg.pulse_length, "drive.pulse_length_s")
    powers = _need(cfg.power_grid, "grid.power.start_w").values()
    n, g = _identical_count_and_g(cfg)
    if cfg.bins_n is not None:
        ens = cfg.model.ensemble
        if ens.delta_inh is None:
            raise ConfigError("binned s-curve needs ensemble.kind = lorentzian")
        width = cfg.bins_width * TWO_PI if cfg.bins_width is not None else \
            ensemble_mod.default_bin_width(derive_rates(cfg.model.cavity,
                                                        cfg.model.decoherence, ens))
        subs = ensemble_mod.bin_lorentzian(ens.n, ens.delta_inh, cfg.bins_n, width, g,
                                           center=ens.center)
        res = ensemble_mod.incoherent_scurve(subs, powers, pulse, cfg.model,
                                             peak_mode=cfg.peak_mode,
                                             laser_detuning=cfg.laser_detuning * TWO_PI)
        rows = [(float(p), float(mu), float(tot))
                for p, mu, tot in zip(res.powers, res.mu, res.total)]
        tables = [Table("s_curve", ("power_w", "mu", "peak"), rows)]
        sub_rows = []
        for j, sub in enumerate(subs.entries):
            for i, p in enumerate(powers):
                sub_rows.append((float(p), angular_to_hz(sub.detuning), sub.n_ions,
                                 float(res.per_subensemble[i, j])))
        tables.append(Table("s_curve_subensembles",
                            ("power_w", "detuning_hz", "n_ions", "peak"), sub_rows))
        failures = [{"power_index": i, "subensemble": j, "error": msg}
                    for i, j, msg in res.failures]
        return ExperimentResult(tables=tables,
                                metadata={"bin_counts": [e.n_ions for e in subs.entries],
                                          "bin_width_hz": angular_to_hz(width)},
                                failures=failures)
    detuning = _identical_detuning(cfg)
    counts = cfg.peak_mode == "counts"
    rows = []
    for p in powers:
        mu = mu_from_power(p, cfg.model.cavity)
        res = dicke.pulsed_block_emission(n, g, mu, cfg.model.cavity, cfg.model.decoherence,
                                          pulse, detuning=detuning, compute_counts=counts)
        w = res.weights
        rows.append((float(p), float(mu), res.peak_counts if counts else res.peak_instant,
                     res.peak_instant, w["ground"], w["superradiant_ladder"], w["subradiant"]))
    table = Table("s_curve", ("power_w", "mu", "peak", "peak_instant", "ground",
                              "superradiant_ladder", "subradiant"), rows)
    return ExperimentResult(tables=[table])


def run_dicke_populations(cfg: ExperimentConfig) -> ExperimentResult:
    pulse = _need(cfg.pulse_length, "drive.pulse_length_s")
    _power, mu = _single_drive(cfg)
    n, g = _identical_count_and_g(cfg)
    res = dicke.pulsed_block_emission(n, g, mu, cfg.model.cavity, cfg.model.decoherence,
                                      pulse, detuning=_identical_detuning(cfg))
    pops = res.state_end.jm_populations()
    rows = [(j, m, float(p)) for (j, m), p in sorted(pops.items(), reverse=True)]
    table = Table("dicke_populations", ("j", "m", "population"), rows)
    return ExperimentResult(tables=[table],
                            metadata={"weights": res.weights, "mu": float(mu),
                                      "peak_instant": res.peak_instant,
                                      "peak_counts": res.peak_counts})


def run_rate_map(cfg: ExperimentConfig) -> ExperimentResult:
    n, g = _identical_count_and_g(cfg)
    rates = derive_rates(cfg.model.cavity, cfg.model.decoherence, cfg.model.ensemble)
    rmap = dicke.rate_map(n, gamma_c=4.0 * g**2 / cfg.model.cavity.kappa,
                          gamma_s=cfg.model.decoherence.gamma_s,
                          gamma_d=cfg.model.decoherence.gamma_d)
    table = Table("rate_map", ("J_from", "M_from", "J_to", "M_to", "rate_hz", "channel"),
                  rmap.to_rows())
    return ExperimentResult(tables=[table],
                            metadata={"dark_states": [list(d) for d in rmap.dark_states],
                                      "purcell_hz": angular_to_hz(rates.purcell)})


def run_beat_note(cfg: ExperimentConfig) -> ExperimentResult:
    times = _need(cfg.time_grid, "grid.time.start_s").values()
    pulse = _need(cfg.pulse_length, "drive.pulse_length_s")
    _power, mu = _single_drive(cfg)
    n, g = _identical_count_and_g(cfg)
    detuning = _identical_detuning(cfg)
    cav, dec = cfg.model.cavity, cfg.model.decoherence
    space = dicke.GroupSpace(np.full(n, detuning), np.full(n, g))
    end = dicke.group_pulse(space, mu, cav, dec, pulse, 4.0 * g**2 / cav.kappa,
                            compute_counts=False).end
    jm = space.rows["jm"]
    amp = np.array([complex(jm @ v) for v in propagate(dicke.group_generator(space, 0.0, cav, dec),
                                                       end, times)])
    lo = cfg.lo_offset * TWO_PI
    fit = analysis.beat_spectrum(times, amp, lo, window=cfg.beat_window)
    rows = [(float(t), float(a.real), float(a.imag)) for t, a in zip(times, amp)]
    table = Table("coherent_amplitude", ("time_s", "jminus_real", "jminus_imag"), rows)
    meta = {"gamma_beat_hz": angular_to_hz(fit.gamma_beat), "a_beat": fit.a_beat,
            "center_hz": angular_to_hz(fit.center), "mu": float(mu)}
    return ExperimentResult(tables=[table], metadata=meta)


def run_phase_map(cfg: ExperimentConfig) -> ExperimentResult:
    grid_hz = _need(cfg.freq_grid, "grid.freq.start_hz").values()
    _n, g = _identical_count_and_g(cfg)
    dec = cfg.model.decoherence
    sz = cfg.sigma_z
    rows = []
    for d_hz in grid_hz:
        d = d_hz * TWO_PI
        single = meanfield.single_contribution(d, g, sz, dec)
        pair = meanfield.pair_contribution(d, g, sz, dec)
        rows.append((float(d_hz), float(single.real), float(single.imag),
                     float(np.angle(single)), float(abs(single)),
                     float(pair.real), float(pair.imag), float(abs(pair))))
    table = Table("phase_map", ("delta_hz", "single_real", "single_imag",
                                "single_phase_rad", "single_mag",
                                "pair_real", "pair_imag", "pair_mag"), rows)
    return ExperimentResult(tables=[table])


_RUNNERS = {
    "reflection-spectrum": run_reflection_spectrum,
    "cit-power-sweep": run_cit_power_sweep,
    "emission-trace": run_emission_trace,
    "s-curve": run_s_curve,
    "dicke-populations": run_dicke_populations,
    "rate-map": run_rate_map,
    "beat-note": run_beat_note,
    "phase-map": run_phase_map,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the configured experiment; attach derived rates and the
    assumption report to the metadata."""
    result = _RUNNERS[cfg.experiment](cfg)
    rates = derive_rates(cfg.model.cavity, cfg.model.decoherence, cfg.model.ensemble)
    result.metadata.setdefault("derived_rates", {
        "gamma_total_hz": angular_to_hz(rates.gamma_total),
        "purcell_hz": angular_to_hz(rates.purcell),
        "cooperativity": rates.cooperativity,
    })
    try:
        mu_probe = cfg.mu if cfg.mu is not None else (
            mu_from_power(float(_resolve_powers(cfg)[0]), cfg.model.cavity))
    except ConfigError:
        mu_probe = 0.0
    report = validate_assumptions(cfg.model, mu_probe)
    result.metadata.setdefault("assumptions", report.as_dict())
    return result


def _apply_axis(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "power_w":
        return replace(cfg, power_w=float(value), power_grid=None, mu=None)
    if axis == "detuning_hz":
        return replace(cfg, laser_detuning=float(value))
    if axis == "n_ions":
        n = int(value)
        ens = cfg.model.ensemble
        if ens.is_parametric:
            new_ens = EmitterEnsemble.lorentzian(n_ions=n, delta_inh=ens.delta_inh,
                                                 g=ens.g, center=ens.center,
                                                 g_hist=ens.g_hist)
        else:  # build_config admits only emitters at one (detuning, g)
            d, g = ens.emitters[0]
            new_ens = EmitterEnsemble.identical(n, g, detuning=d)
        model = replace(cfg.model, ensemble=new_ens)
        return replace(cfg, model=model)
    raise ConfigError(f"unknown sweep axis '{axis}'")


def _sweep_point(args: tuple) -> tuple[int, Optional[ExperimentResult], Optional[str]]:
    index, cfg, axis, value = args
    try:
        return index, run_experiment(_apply_axis(cfg, axis, value)), None
    except (ConfigError,) + SOLVER_ERRORS as exc:
        return index, None, f"{type(exc).__name__}: {exc}"


def _one_response_thread() -> None:
    """Set up a sweep's worker process: its response sums run on one
    thread, since the workers already fill the cores."""
    meanfield._THREADS = 1


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Ordered aggregation of per-point runs along the sweep axis.

    The primary (first) table of each point is concatenated with a leading
    axis column; per-point failures are recorded and the sweep continues.
    With ``jobs`` > 1 the points run in that many worker processes, each
    summing its responses on one thread; the rows do not depend on it.
    """
    assert cfg.sweep_axis is not None and cfg.sweep_values is not None
    tasks = [(i, cfg, cfg.sweep_axis, v) for i, v in enumerate(cfg.sweep_values)]
    results: dict[int, tuple[Optional[ExperimentResult], Optional[str]]] = {}
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_one_response_thread) as pool:
            for index, res, err in pool.map(_sweep_point, tasks):
                results[index] = (res, err)
    else:
        for task in tasks:
            index, res, err = _sweep_point(task)
            results[index] = (res, err)

    agg_rows: list[tuple] = []
    columns: Optional[tuple[str, ...]] = None
    failures: list[dict] = []
    meta_points = []
    for i, value in enumerate(cfg.sweep_values):
        res, err = results[i]
        if err is not None or res is None or not res.tables:
            failures.append({"axis_value": float(value), "error": err or "no output"})
            continue
        primary = res.tables[0]
        if columns is None:
            columns = (cfg.sweep_axis,) + primary.columns
        for row in primary.rows:
            agg_rows.append((float(value),) + row)
        meta_points.append({"axis_value": float(value), "metadata": res.metadata})
        failures.extend({"axis_value": float(value), **f} for f in res.failures)
    if columns is None:
        raise SolverFailure("every sweep point failed")
    table = Table(name=f"sweep_{cfg.experiment}", columns=columns, rows=agg_rows)
    return ExperimentResult(tables=[table],
                            metadata={"sweep_axis": cfg.sweep_axis,
                                      "sweep_values": [float(v) for v in cfg.sweep_values],
                                      "points": meta_points},
                            failures=failures)


__all__ = [
    "SolverFailure",
    "SOLVER_ERRORS",
    "Table",
    "ExperimentResult",
    "run_experiment",
    "run_sweep",
]

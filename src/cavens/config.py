"""Flat key-value experiment configuration.

Files are line-oriented ``key = value`` pairs with dotted section keys;
``#`` starts a comment.  Frequencies are in Hz, powers in watts, times in
seconds; conversion to internal angular units happens here.
"""

from __future__ import annotations

import csv
import importlib
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import CavityParams, DecoherenceParams, EmitterEnsemble, ParameterError, SystemModel
from .units import hz_to_angular

_DYNAMICS = ("scipy.sparse.linalg", "scipy.linalg")

#: Each experiment and the scipy modules its solvers use.  No module of the
#: package loads scipy at import; :func:`build_config` imports these once it
#: knows the experiment, so a run's set-up holds every import and its solve
#: none.  The mean-field spectra and rate tables need numpy alone, the fits
#: ``scipy.optimize``, and the pulsed dynamics ``scipy.sparse.linalg`` (it
#: loads ``scipy.sparse``; Krylov ``expm_multiply``) and ``scipy.linalg``
#: (dense ``expm``).
EXPERIMENTS = {
    "reflection-spectrum": (),
    "cit-power-sweep": ("scipy.optimize",),
    "emission-trace": _DYNAMICS,
    "s-curve": _DYNAMICS,
    "dicke-populations": _DYNAMICS,
    "rate-map": (),
    "beat-note": _DYNAMICS + ("scipy.optimize",),
    "phase-map": (),
}

SWEEP_AXES = ("power_w", "detuning_hz", "n_ions")


class ConfigError(ValueError):
    """Configuration problem, with the offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None, key: Optional[str] = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if key is not None:
            loc.append(f"key '{key}'")
        super().__init__(f"{message}" + (f" ({', '.join(loc)})" if loc else ""))
        self.line = line
        self.key = key


def parse_kv_text(text: str) -> dict[str, tuple[str, int]]:
    """Parse ``key = value`` lines into {key: (value, line_number)}."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in out:
            raise ConfigError(f"duplicate key '{key}'", line=lineno)
        out[key] = (value, lineno)
    return out


def _finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _integer(value: str) -> int:
    x = _finite(value)
    if x != int(x):
        raise ValueError("not an integer")
    return int(x)


class KeyView:
    """Typed access to parsed key-value pairs with error locations."""

    def __init__(self, kv: dict[str, tuple[str, int]]):
        self._kv = kv
        self.used: set[str] = set()

    def line(self, key: str) -> Optional[int]:
        return self._kv[key][1] if key in self._kv else None

    def _convert(self, key: str, conv, default):
        if key not in self._kv:
            if default is _REQUIRED:
                raise ConfigError("missing required key", key=key)
            return default
        value, lineno = self._kv[key]
        self.used.add(key)
        try:
            return conv(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cannot parse value {value!r}: {exc}", line=lineno, key=key)

    def get_float(self, key: str, default=None):
        return self._convert(key, _finite, default)

    def get_int(self, key: str, default=None):
        return self._convert(key, _integer, default)

    def get_str(self, key: str, default=None):
        return self._convert(key, str, default)

    def get_floats(self, key: str, default=None):
        return self._convert(key, lambda v: [_finite(tok) for tok in v.split(",") if tok.strip()],
                             default)

    def unknown_keys(self) -> list[str]:
        return sorted(set(self._kv) - self.used)


_REQUIRED = object()


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    num: int
    scale: str = "linear"

    def values(self) -> np.ndarray:
        if self.num < 1:
            raise ConfigError(f"grid num must be >= 1, got {self.num}")
        if self.num == 1:
            return np.array([self.start])
        if self.scale == "linear":
            return np.linspace(self.start, self.stop, self.num)
        if self.scale == "log":
            if self.start <= 0 or self.stop <= 0:
                raise ConfigError("log grid needs positive endpoints")
            return np.geomspace(self.start, self.stop, self.num)
        raise ConfigError(f"unknown grid scale '{self.scale}'")


def _read_grid(view: KeyView, prefix: str, unit_suffix: str) -> Optional[GridSpec]:
    start = view.get_float(f"{prefix}.start_{unit_suffix}")
    if start is None:
        return None
    stop = view.get_float(f"{prefix}.stop_{unit_suffix}", start)
    num = view.get_int(f"{prefix}.num", 1)
    scale = view.get_str(f"{prefix}.scale", "linear")
    return GridSpec(start=start, stop=stop, num=num, scale=scale)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: SystemModel
    seed: int
    freq_grid: Optional[GridSpec]
    power_grid: Optional[GridSpec]
    time_grid: Optional[GridSpec]
    mu: Optional[float]
    power_w: Optional[float]
    pulse_length: Optional[float]
    lo_offset: float
    beat_window: Optional[float]
    laser_detuning: float
    sigma_z: float
    bins_n: Optional[int]
    bins_width: Optional[float]
    peak_mode: str
    quantiles: Optional[int]
    sweep_axis: Optional[str]
    sweep_values: Optional[tuple[float, ...]]
    resolved: dict = field(default_factory=dict, compare=False)


def read_csv_columns(path: str, columns: tuple[str, ...],
                     error: type[Exception]) -> list[tuple[float, ...]]:
    """Float rows of the named columns of a CSV file with a header line;
    lines starting with ``#`` are skipped.  A missing column, or a cell that
    is empty or not a finite number, raises ``error``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise error(f"{path}: need columns {', '.join(columns)}")
        rows = []
        for k, rec in enumerate(reader, start=1):
            try:
                rows.append(tuple(_finite(rec[c]) for c in columns))
            except (TypeError, ValueError) as exc:
                raise error(f"{path}: data row {k}: {exc}") from exc
        return rows


def _build_ensemble(view: KeyView, base_dir: str) -> EmitterEnsemble:
    kind = view.get_str("ensemble.kind", "identical")
    if kind == "identical":
        n = view.get_int("ensemble.n_ions", _REQUIRED)
        g = view.get_float("ensemble.g_hz", _REQUIRED)
        det = view.get_float("ensemble.detuning_hz", 0.0)
        return EmitterEnsemble.identical(n, hz_to_angular(g), detuning=hz_to_angular(det))
    if kind == "lorentzian":
        n = view.get_int("ensemble.n_ions", _REQUIRED)
        dinh = view.get_float("ensemble.delta_inh_hz", _REQUIRED)
        center = view.get_float("ensemble.center_hz", 0.0)
        hist_file = view.get_str("ensemble.g_histogram_file")
        if hist_file is not None:
            from .ensemble import read_g_histogram_csv, truncate_g_histogram

            path = os.path.join(base_dir, hist_file)
            if not os.path.exists(path):
                raise ConfigError(f"histogram file not found: {path}", key="ensemble.g_histogram_file")
            g, p = np.array(read_g_histogram_csv(path)).reshape(-1, 2).T
            cutoff = view.get_float("ensemble.g_cutoff_hz")
            if cutoff is not None:
                try:
                    g, p, _kept = truncate_g_histogram(g, p, hz_to_angular(cutoff))
                except ParameterError:
                    raise ConfigError("no histogram mass above ensemble.g_cutoff_hz",
                                      key="ensemble.g_cutoff_hz") from None
            return EmitterEnsemble.lorentzian(n_ions=n, delta_inh=hz_to_angular(dinh),
                                              center=hz_to_angular(center),
                                              g_hist=tuple(zip(g, p)))
        g = view.get_float("ensemble.g_hz", _REQUIRED)
        return EmitterEnsemble.lorentzian(n_ions=n, delta_inh=hz_to_angular(dinh),
                                          g=hz_to_angular(g), center=hz_to_angular(center))
    if kind == "explicit":
        fname = view.get_str("ensemble.file", _REQUIRED)
        path = os.path.join(base_dir, fname)
        if not os.path.exists(path):
            raise ConfigError(f"emitter file not found: {path}", key="ensemble.file")
        rows = read_csv_columns(path, ("detuning_hz", "g_hz"), ConfigError)
        return EmitterEnsemble.explicit([(hz_to_angular(d), hz_to_angular(g)) for d, g in rows])
    raise ConfigError(f"unknown ensemble.kind '{kind}'", line=view.line("ensemble.kind"))


def load_config(path: str, experiment_override: Optional[str] = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return build_config(text, base_dir=os.path.dirname(os.path.abspath(path)),
                        experiment_override=experiment_override)


def build_config(text: str, base_dir: str = ".",
                 experiment_override: Optional[str] = None) -> ExperimentConfig:
    kv = parse_kv_text(text)
    view = KeyView(kv)
    experiment_in_file = view.get_str("experiment")
    experiment = experiment_override or experiment_in_file
    if experiment is None:
        raise ConfigError("missing required key", key="experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{experiment}' (choose from {', '.join(EXPERIMENTS)})",
                          line=view.line("experiment"))
    for module in EXPERIMENTS[experiment]:
        importlib.import_module(module)
    cavity = CavityParams.from_hz(
        kappa_hz=view.get_float("cavity.kappa_hz", _REQUIRED),
        kappa_c_hz=view.get_float("cavity.kappa_c_hz", _REQUIRED),
        delta_c_hz=view.get_float("cavity.delta_c_hz", 0.0),
        omega_hz=view.get_float("cavity.omega_hz", 304500e9),
    )
    dec = DecoherenceParams.from_hz(
        gamma_s_hz=view.get_float("decoherence.gamma_s_hz", _REQUIRED),
        gamma_d_hz=view.get_float("decoherence.gamma_d_hz", 0.0),
    )
    ens = _build_ensemble(view, base_dir)
    model = SystemModel(cavity=cavity, decoherence=dec, ensemble=ens)

    freq_grid = _read_grid(view, "grid.freq", "hz")
    power_grid = _read_grid(view, "grid.power", "w")
    time_grid = _read_grid(view, "grid.time", "s")
    for gspec, name in ((freq_grid, "grid.freq"), (power_grid, "grid.power"),
                        (time_grid, "grid.time")):
        if gspec is not None and gspec.num > 1:
            vals = gspec.values()
            if np.any(np.diff(vals) <= 0):
                raise ConfigError(f"{name} must be strictly increasing")

    sweep_axis = view.get_str("sweep.axis")
    sweep_values = view.get_floats("sweep.values")
    if sweep_axis is not None:
        if sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis must be one of {', '.join(SWEEP_AXES)}",
                              line=view.line("sweep.axis"))
        if not sweep_values:
            raise ConfigError("sweep.values required with sweep.axis", key="sweep.values")
    if sweep_axis == "power_w" and experiment in ("s-curve", "cit-power-sweep"):
        raise ConfigError(f"{experiment} takes its powers from grid.power, not a power_w sweep",
                          line=view.line("sweep.axis"), key="sweep.axis")
    if sweep_axis == "n_ions":
        if any(v < 1 or v != int(v) for v in sweep_values):
            raise ConfigError("n_ions sweep values must be positive integers",
                              line=view.line("sweep.values"), key="sweep.values")
        if ens.emitters is not None and len(set(ens.emitters)) > 1:
            raise ConfigError("an n_ions sweep of an explicit ensemble needs all emitters "
                              "at one detuning and g", line=view.line("sweep.axis"),
                              key="sweep.axis")

    peak_mode = view.get_str("peak_mode", "counts")
    if peak_mode not in ("counts", "instant"):
        raise ConfigError("peak_mode must be 'counts' or 'instant'",
                          line=view.line("peak_mode"), key="peak_mode")

    bins_n = view.get_int("bins.n")
    if bins_n is not None and not (1 <= bins_n <= ens.n and bins_n % 2):
        raise ConfigError(f"bins.n must be odd and within 1..ensemble.n_ions ({ens.n})",
                          line=view.line("bins.n"), key="bins.n")
    if bins_n is not None and sweep_axis == "n_ions" and min(sweep_values) < bins_n:
        raise ConfigError(f"n_ions sweep values must be at least bins.n ({bins_n})",
                          line=view.line("sweep.values"), key="sweep.values")
    bins_width = view.get_float("bins.width_hz")
    pulse_length = view.get_float("drive.pulse_length_s")
    for key, value in (("bins.width_hz", bins_width), ("drive.pulse_length_s", pulse_length)):
        if value is not None and value <= 0:
            raise ConfigError("must be positive", line=view.line(key), key=key)

    cfg = ExperimentConfig(
        experiment=experiment,
        model=model,
        seed=view.get_int("seed", 0),
        freq_grid=freq_grid,
        power_grid=power_grid,
        time_grid=time_grid,
        mu=view.get_float("drive.mu"),
        power_w=view.get_float("drive.power_w"),
        pulse_length=pulse_length,
        lo_offset=view.get_float("drive.lo_offset_hz", 0.0),
        beat_window=view.get_float("drive.window_s"),
        laser_detuning=view.get_float("drive.laser_detuning_hz", 0.0),
        sigma_z=view.get_float("phase_map.sigma_z", -1.0),
        bins_n=bins_n,
        bins_width=bins_width,
        peak_mode=peak_mode,
        quantiles=view.get_int("ensemble.explicit_quantiles"),
        sweep_axis=sweep_axis,
        sweep_values=tuple(sweep_values) if sweep_values else None,
        resolved={k: v for k, (v, _ln) in kv.items()},
    )
    unknown = view.unknown_keys()
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}",
                          line=kv[unknown[0]][1], key=unknown[0])
    return cfg


__all__ = [
    "EXPERIMENTS",
    "SWEEP_AXES",
    "ConfigError",
    "parse_kv_text",
    "KeyView",
    "GridSpec",
    "read_csv_columns",
    "ExperimentConfig",
    "load_config",
    "build_config",
]

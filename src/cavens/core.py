"""Parameter containers, derived rates, validity checks, and the one
propagator and pulse protocol that both dynamics layers share.

All rates are angular frequencies (rad/s).  Containers are frozen
dataclasses: they validate on construction, are immutable afterwards and
safe to share between concurrent tasks.
"""

from __future__ import annotations

import copyreg
import functools
import math
import os
import sys
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .units import HBAR, hz_to_angular


class ParameterError(ValueError):
    """A parameter bundle violates one of its invariants."""


def _check_finite(**fields: Optional[float]) -> None:
    """Raise :class:`ParameterError` naming the first given field that is
    NaN or infinite (None is skipped)."""
    for name, value in fields.items():
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def check_drive(value: float, name: str = "mu") -> None:
    """Raise :class:`ParameterError` unless the drive (mu or power) is finite and >= 0."""
    if not (value >= 0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be finite and >= 0, got {value}")


class CapabilityError(ValueError):
    """Requested system size exceeds a solver's capability limit."""


class SolverError(RuntimeError):
    """A solve or fit failed: names the ``point`` it was at, the ``method``
    and the ``residual`` it reached (NaN where the method reports none)."""

    def __init__(self, message: str, *, point: str, method: str, residual: float):
        super().__init__(f"{method} solve at {point}: {message} (residual {residual:.3e})")
        self.point, self.method, self.residual = point, method, residual

    def __reduce__(self):
        # without __init__, whose keyword-only fields unpickling cannot pass
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


@dataclass(frozen=True)
class CavityParams:
    """One-sided cavity: total decay ``kappa``, input coupling ``kappa_c``,
    detuning ``delta_c`` and optical carrier ``omega`` (all rad/s).

    ``delta_c`` is the cavity-minus-laser detuning for single-point
    operations; for frequency scans it is interpreted as the cavity
    detuning from the ensemble center (the laser-at-center value) and the
    per-point detuning is tracked by the solvers.
    """

    kappa: float
    kappa_c: float
    delta_c: float = 0.0
    omega: float = hz_to_angular(304500e9)

    def __post_init__(self) -> None:
        _check_finite(kappa=self.kappa, kappa_c=self.kappa_c, delta_c=self.delta_c,
                      omega=self.omega)
        if not self.kappa > 0:
            raise ParameterError(f"kappa must be positive, got {self.kappa}")
        if not (0 < self.kappa_c <= self.kappa):
            raise ParameterError(
                f"kappa_c must satisfy 0 < kappa_c <= kappa, got {self.kappa_c}"
            )
        if not self.omega > 0:
            raise ParameterError(f"omega must be positive, got {self.omega}")

    @classmethod
    def from_hz(cls, kappa_hz: float, kappa_c_hz: float, delta_c_hz: float = 0.0,
                omega_hz: float = 304500e9) -> "CavityParams":
        return cls(
            kappa=hz_to_angular(kappa_hz),
            kappa_c=hz_to_angular(kappa_c_hz),
            delta_c=hz_to_angular(delta_c_hz),
            omega=hz_to_angular(omega_hz),
        )

    @property
    def coupling_ratio(self) -> float:
        """kappa_c / kappa."""
        return self.kappa_c / self.kappa


@dataclass(frozen=True)
class DecoherenceParams:
    """Spontaneous decay ``gamma_s`` and excess dephasing ``gamma_d`` (rad/s)."""

    gamma_s: float
    gamma_d: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(gamma_s=self.gamma_s, gamma_d=self.gamma_d)
        if self.gamma_s < 0:
            raise ParameterError(f"gamma_s must be >= 0, got {self.gamma_s}")
        if self.gamma_d < 0:
            raise ParameterError(f"gamma_d must be >= 0, got {self.gamma_d}")

    @classmethod
    def from_hz(cls, gamma_s_hz: float, gamma_d_hz: float = 0.0) -> "DecoherenceParams":
        return cls(hz_to_angular(gamma_s_hz), hz_to_angular(gamma_d_hz))

    @property
    def gamma(self) -> float:
        """Total decoherence rate gamma = gamma_s/2 + gamma_d."""
        return 0.5 * self.gamma_s + self.gamma_d


#: Histogram of coupling strengths: tuple of (g, probability) pairs.
GHistogram = tuple[tuple[float, float], ...]

# Coprime stride used to decorrelate coupling quantiles from detuning
# quantiles in the parametric -> explicit conversion (golden-ratio based).
_DECORRELATION_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EmitterEnsemble:
    """Ensemble of two-level emitters.

    Either an explicit list of ``(detuning, coupling)`` pairs, with
    detunings relative to the ensemble center, or a parametric Lorentzian
    description (``n_ions``, FWHM ``delta_inh``, ``center``) whose coupling
    is a single value ``g`` or a histogram ``g_hist``.
    """

    emitters: Optional[tuple[tuple[float, float], ...]] = None
    n_ions: Optional[int] = None
    delta_inh: Optional[float] = None
    center: float = 0.0
    g: Optional[float] = None
    g_hist: Optional[GHistogram] = None

    def __post_init__(self) -> None:
        _check_finite(center=self.center, delta_inh=self.delta_inh, g=self.g)
        if self.emitters is not None:
            object.__setattr__(self, "emitters", tuple((float(d), float(g)) for d, g in self.emitters))
            if len(self.emitters) == 0:
                raise ParameterError("explicit ensemble must contain at least one emitter")
            if not np.isfinite(self.emitters).all():
                raise ParameterError("emitters must have finite detunings and couplings")
            if any(g <= 0 for _, g in self.emitters):
                raise ParameterError("all couplings g_j must be positive")
            if self.n_ions is not None and self.n_ions != len(self.emitters):
                raise ParameterError("n_ions disagrees with the explicit emitter list")
            object.__setattr__(self, "n_ions", len(self.emitters))
            return
        if self.n_ions is None or self.n_ions < 1:
            raise ParameterError("parametric ensemble needs n_ions >= 1")
        if self.delta_inh is None or not self.delta_inh > 0:
            raise ParameterError("parametric ensemble needs a positive FWHM delta_inh")
        if (self.g is None) == (self.g_hist is None):
            raise ParameterError("give exactly one of g or g_hist")
        if self.g is not None and not self.g > 0:
            raise ParameterError("g must be positive")
        if self.g_hist is not None:
            hist = tuple((float(g), float(p)) for g, p in self.g_hist)
            object.__setattr__(self, "g_hist", hist)
            if not np.isfinite(hist).all():
                raise ParameterError("g_hist must have finite couplings and weights")
            if any(g <= 0 for g, _ in hist) or any(p < 0 for _, p in hist):
                raise ParameterError("histogram needs positive g and non-negative weights")
            total = math.fsum(p for _, p in hist)
            if abs(total - 1.0) > 1e-12:
                raise ParameterError(f"histogram weights must sum to 1 (got {total!r})")

    @classmethod
    def explicit(cls, emitters: Sequence[tuple[float, float]], center: float = 0.0) -> "EmitterEnsemble":
        return cls(emitters=tuple(emitters), center=center)

    @classmethod
    def lorentzian(cls, n_ions: int, delta_inh: float, g: Optional[float] = None,
                   center: float = 0.0, g_hist: Optional[GHistogram] = None) -> "EmitterEnsemble":
        return cls(n_ions=n_ions, delta_inh=delta_inh, center=center, g=g, g_hist=g_hist)

    @classmethod
    def identical(cls, n_ions: int, g: float, detuning: float = 0.0) -> "EmitterEnsemble":
        """n_ions identical emitters at a common detuning from the center."""
        return cls(emitters=tuple((detuning, g) for _ in range(n_ions)))

    @property
    def is_parametric(self) -> bool:
        return self.emitters is None

    @property
    def n(self) -> int:
        assert self.n_ions is not None
        return self.n_ions

    def g_moments(self) -> tuple[float, float]:
        """Return (<g>, <g^2>) over the ensemble."""
        if self.emitters is not None:
            gs = np.array([g for _, g in self.emitters])
            return float(gs.mean()), float((gs**2).mean())
        if self.g is not None:
            return self.g, self.g**2
        assert self.g_hist is not None
        g = np.array([gv for gv, _ in self.g_hist])
        p = np.array([pv for _, pv in self.g_hist])
        return float(np.sum(p * g)), float(np.sum(p * g**2))

    @property
    def g_rms(self) -> float:
        return math.sqrt(self.g_moments()[1])

    @property
    def total_coupling(self) -> float:
        """Omega = sqrt(N <g^2>)."""
        return math.sqrt(self.n * self.g_moments()[1])

    def detunings(self) -> np.ndarray:
        """Emitter detunings relative to the ensemble center (explicit form)."""
        ens = self if self.emitters is not None else self.to_explicit()
        assert ens.emitters is not None
        return np.array([d for d, _ in ens.emitters])

    def couplings(self) -> np.ndarray:
        ens = self if self.emitters is not None else self.to_explicit()
        assert ens.emitters is not None
        return np.array([g for _, g in ens.emitters])

    def to_explicit(self, n: Optional[int] = None) -> "EmitterEnsemble":
        """Deterministic parametric -> explicit conversion.

        Detunings are Lorentzian quantile medians: emitter i of n sits at the
        median of equal-probability bin i.  A coupling histogram is expanded
        the same way (quantile medians of p(g)) and assigned to the
        detuning-sorted emitters through a fixed low-discrepancy stride so
        that g and detuning stay uncorrelated; a constant g is broadcast.
        """
        if self.emitters is not None:
            return self
        assert self.delta_inh is not None
        nn = self.n if n is None else int(n)
        if nn < 1:
            raise ParameterError("need at least one emitter")
        q = (np.arange(nn) + 0.5) / nn
        deltas = 0.5 * self.delta_inh * np.tan(math.pi * (q - 0.5))
        if self.g is not None:
            gs = np.full(nn, self.g)
        else:
            gs_sorted = _histogram_quantiles(self.g_hist, nn)  # type: ignore[arg-type]
            stride = max(1, round(_DECORRELATION_RATIO * nn))
            while math.gcd(stride, nn) != 1:
                stride += 1
            gs = gs_sorted[(np.arange(nn) * stride) % nn]
        return EmitterEnsemble.explicit(list(zip(deltas, gs)), center=self.center)


def _histogram_quantiles(hist: GHistogram, n: int) -> np.ndarray:
    """n quantile-median samples (sorted) of a discrete (g, p) histogram."""
    pairs = sorted(hist)
    gs = np.array([g for g, _ in pairs])
    cum = np.cumsum([p for _, p in pairs])
    q = (np.arange(n) + 0.5) / n
    idx = np.searchsorted(cum, q, side="left")
    return gs[np.clip(idx, 0, len(gs) - 1)]


@dataclass(frozen=True)
class SystemModel:
    """Cavity + decoherence + ensemble in one bundle."""

    cavity: CavityParams
    decoherence: DecoherenceParams
    ensemble: EmitterEnsemble


@dataclass(frozen=True)
class DerivedRates:
    """Rates derived from a model: total decoherence gamma, Purcell rate
    Gamma_c = 4<g^2>/kappa, and (parametric ensembles only) the cooperativity
    C = 4N<g^2>/(kappa Delta_inh)."""

    gamma_total: float
    purcell: float
    cooperativity: Optional[float] = None


def mu_from_power(power_in: float, cavity: CavityParams) -> float:
    """Bare-cavity mean photon number for a given input power:
    mu = kappa_c P_in / (((kappa/2)^2 + delta_c^2) hbar omega), at the
    configured ``cavity.delta_c``.
    """
    check_drive(power_in, "power_in")
    return cavity.kappa_c * power_in / (
        ((0.5 * cavity.kappa) ** 2 + cavity.delta_c**2) * HBAR * cavity.omega)


def power_from_mu(mu: float, cavity: CavityParams) -> float:
    """Inverse of :func:`mu_from_power`, at the configured ``cavity.delta_c``."""
    check_drive(mu)
    return mu * ((0.5 * cavity.kappa) ** 2 + cavity.delta_c**2) * HBAR * cavity.omega / cavity.kappa_c


def ensemble_cooperativity(cavity: CavityParams, ens: EmitterEnsemble,
                           delta_inh: Optional[float] = None) -> float:
    """C = 4 N <g^2> / (kappa Delta_inh).

    For explicit ensembles ``delta_inh`` must be supplied; parametric
    ensembles carry their own.
    """
    if delta_inh is None:
        delta_inh = ens.delta_inh
    if delta_inh is None:
        raise ParameterError("cooperativity needs delta_inh (parametric ensemble or explicit argument)")
    _, g2 = ens.g_moments()
    return 4.0 * ens.n * g2 / (cavity.kappa * delta_inh)


def derive_rates(cavity: CavityParams, dec: DecoherenceParams, ens: EmitterEnsemble) -> DerivedRates:
    """Gamma, Gamma_c from <g^2>, and C for parametric ensembles (else None)."""
    _, g2 = ens.g_moments()
    purcell = 4.0 * g2 / cavity.kappa
    coop = None
    if ens.is_parametric:
        coop = ensemble_cooperativity(cavity, ens)
    return DerivedRates(gamma_total=dec.gamma, purcell=purcell, cooperativity=coop)


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    ratio: float
    passed: bool


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]
    threshold: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "checks": {c.name: {"ratio": c.ratio, "passed": c.passed} for c in self.checks},
        }


def validate_assumptions(model: SystemModel, mu: float, ratio: float = 10.0,
                         fsr: Optional[float] = None) -> AssumptionReport:
    """Check the analytic-regime conditions at the bare-cavity photon number
    ``mu``; warn-level reporting, raises only for a negative or non-finite
    ``mu`` (:func:`check_drive`).

    Evaluated with ">>" interpreted as "larger by at least ``ratio``":

    - high_cooperativity: C >> 1
    - power_upper: (Delta_inh/4g)^2 (gamma_s/gamma) >> mu
    - power_lower: mu >> gamma gamma_s / (4 g^2)
    - inhomogeneity: Delta_inh / gamma >> C
    - tavis_cummings (when fsr given): FSR >> |W(omega_0)|

    The rms coupling stands in for g under inhomogeneous coupling.
    """
    check_drive(mu)
    cav, dec, ens = model.cavity, model.decoherence, model.ensemble
    gamma = dec.gamma
    _, g2 = ens.g_moments()
    checks = []

    def ratio_of(value: float, bound: float) -> float:
        if bound == 0.0:
            return math.inf if value > 0 else 0.0
        return value / bound

    if ens.delta_inh is not None:
        c = ensemble_cooperativity(cav, ens)
        checks.append(AssumptionCheck("high_cooperativity", c, c >= ratio))
        upper = (ens.delta_inh / (4.0 * math.sqrt(g2))) ** 2 * (dec.gamma_s / gamma if gamma > 0 else 0.0)
        r_up = ratio_of(upper, mu)
        checks.append(AssumptionCheck("power_upper", r_up, r_up >= ratio))
        lower = gamma * dec.gamma_s / (4.0 * g2)
        r_lo = ratio_of(mu, lower)
        checks.append(AssumptionCheck("power_lower", r_lo, r_lo >= ratio))
        r_inh = ratio_of(ens.delta_inh / gamma if gamma > 0 else math.inf, c)
        checks.append(AssumptionCheck("inhomogeneity", r_inh, r_inh >= ratio))
        if fsr is not None:
            w0 = ens.n * g2 / (gamma + 0.5 * ens.delta_inh)
            r_tc = ratio_of(fsr, w0)
            checks.append(AssumptionCheck("tavis_cummings", r_tc, r_tc >= ratio))
    return AssumptionReport(checks=tuple(checks), threshold=ratio)


# ---------------------------------------------------------------------------
# Propagation and the pulsed-emission protocol
# ---------------------------------------------------------------------------

#: Generators up to this dimension are exponentiated densely (one expm per
#: step length), on one BLAS thread (:func:`one_blas_thread`).  More
#: threads would split the sums by the core count, so the last bits would
#: depend on the machine; and up to a few hundred rows, the binned S-curve's
#: blocks, their start-up and synchronisation cost more than they save.
#: Independent solves use the cores instead, one BLAS thread in each
#: :func:`fork_map` worker.  Larger generators use Krylov ``expm_multiply``
#: per step.
DENSE_DIM_MAX = 1000

#: Detection window integrated after switch-off (one 128 ns bin).
PEAK_WINDOW = 128e-9


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS builds that numpy
    and scipy bundle, for each one this process has loaded; empty when none
    is found.  Looked up once per process."""
    import ctypes
    import glob

    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    controls = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
            try:  # RTLD_NOLOAD: find a library already loaded, load none
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
    return tuple(controls)


class _BlasPin:
    """Process-wide count of open :func:`one_blas_thread` blocks, and the
    thread counts to restore when the last one closes."""

    lock = threading.Lock()
    depth = 0
    saved: tuple = ()


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block on one thread of each OpenBLAS library numpy and scipy
    loaded, then restore their previous thread counts.

    Blocks nest, also across threads: the first to open saves the counts
    and sets them to 1, the last to close restores them.  Without a library
    whose thread count can be set, the block runs as it is."""
    controls = _openblas_thread_controls()
    with _BlasPin.lock:
        if _BlasPin.depth == 0:
            _BlasPin.saved = tuple(get() for get, _ in controls)
            for _, put in controls:
                put(1)
        _BlasPin.depth += 1
    try:
        yield
    finally:
        with _BlasPin.lock:
            _BlasPin.depth -= 1
            if _BlasPin.depth == 0:
                for (_, put), n in zip(controls, _BlasPin.saved):
                    put(n)


#: Usable cores, from the process's affinity mask: how many processes
#: :func:`fork_map` runs its tasks on.  A one-core run is ``taskset -c 0``.
USABLE_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)


def fork_workers(n_tasks: int) -> int:
    """How many processes :func:`fork_map` runs ``n_tasks`` tasks on: the
    usable cores, at most one per task; 1, this one, with one task or core
    (then importing nothing), without ``fork``, or in a worker, so no pool
    starts inside another."""
    workers = min(USABLE_CORES, n_tasks)
    if workers < 2:
        return 1
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None):
        return 1
    return workers


def fork_map(fn, tasks: Sequence) -> list:
    """``[fn(task) for task in tasks]``, on :func:`fork_workers` forked
    processes, or here if that is 1.  Spawned workers would import scipy
    and set the run up again.  Once ``scipy.linalg`` is loaded, the pool
    forks inside :func:`one_blas_thread`: a worker that set a BLAS thread
    count itself would start OpenBLAS's thread pool anew, spinning on the
    other workers' cores.  No worker outlives the call."""
    workers = fork_workers(len(tasks))
    if workers < 2:
        return [fn(task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with one_blas_thread() if "scipy.linalg" in sys.modules else nullcontext(), \
            ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, tasks))


def _krylov_step(a, vec: np.ndarray) -> np.ndarray:
    """exp(a) vec by ``expm_multiply``, the same bits on every run.

    Its norm estimates (``onenormest``) draw random sign vectors from numpy's
    global random state.  The state is seeded with 0 for the call and
    restored after it, so the result does not depend on what ran before,
    and the caller's random stream is left as it was."""
    from scipy.sparse.linalg import expm_multiply

    state = np.random.get_state()
    np.random.seed(0)
    try:
        return expm_multiply(a, vec)
    finally:
        np.random.set_state(state)


def _observe_times(times: Sequence[float]) -> np.ndarray:
    """``times`` as an array, if they are finite and non-decreasing from 0."""
    t = np.asarray(times, dtype=float)
    if t.size and not (t[0] >= 0 and math.isfinite(t[-1]) and (t[1:] >= t[:-1]).all()):
        raise ParameterError(f"times must be finite and non-decreasing from 0, got {t.tolist()}")
    return t


def propagate(matrix, vec: np.ndarray, times: Sequence[float],
              grid_end: float = 0.0) -> list[np.ndarray]:
    """exp(matrix t) vec at each of the non-decreasing ``times`` (measured
    from the present), for a sparse time-independent generator.  Dense
    propagation runs on one BLAS thread (see ``DENSE_DIM_MAX``).

    The times are known to the rounding of the grid they were cut from:
    4 ulps of its largest absolute time, ``grid_end`` or the last of
    ``times`` if that is larger.  A step no longer than that rounding is
    not taken (the present vector is returned).  A dense step reuses the
    exponential of the closest length computed so far if the two lengths
    differ by no more than the rounding, so a ``linspace`` grid, whose
    steps differ in their last bits, costs one exponential.  A new
    exponential is of the mean length of the run of steps from here that
    are within the rounding of this one, so a first step one rounding off
    the grid's spacing (the times after a pulse end) does not set it.  Each
    step runs from the time propagated so far, not from the last time asked
    for, so every state is that of a time within the rounding of its own,
    however many steps led there."""
    from scipy.linalg import expm

    times = _observe_times(times)
    slack = 4 * np.finfo(float).eps * np.max(times, initial=grid_end)
    dense = matrix.shape[0] <= DENSE_DIM_MAX
    lv = matrix.toarray() if dense else None
    steps: list[tuple[float, np.ndarray]] = []  # (length, exponential)
    out = []
    t_prev = lag = 0.0  # lag: the time propagated so far minus t_prev
    with one_blas_thread() if dense else nullcontext():
        for k, tk in enumerate(times):
            dt = (tk - t_prev) - lag  # the step that lands on tk
            t_prev = tk
            if dt <= slack:
                lag = -dt
            elif dense:
                length, step = min(steps, key=lambda s: abs(s[0] - dt), default=(math.inf, None))
                if abs(length - dt) > slack:
                    j = k  # the run of steps of this length from here; take their mean
                    while j + 1 < len(times) and abs(times[j + 1] - times[j] - dt) <= slack:
                        j += 1
                    length = (times[j] - tk + dt) / (j - k + 1)
                    step = expm(lv * length)
                    steps.append((length, step))
                vec = step @ vec
                lag = length - dt
            else:
                vec = _krylov_step(matrix * dt, vec)
                lag = 0.0
            out.append(vec)
    return out


@dataclass(frozen=True)
class PulseRun:
    """States at the observe times and at pulse end, and the two peaks."""

    observed: list
    end: np.ndarray
    peak_instant: float
    peak_counts: float


def pulse_protocol(gen_on, gen_off, vec0: np.ndarray, pulse_length: float,
                   jpjm_row: np.ndarray, purcell: float,
                   observe_times: Sequence[float] = (),
                   compute_counts: bool = True,
                   off_window: tuple | None = None) -> PulseRun:
    """Drive from ``vec0`` under ``gen_on`` for ``pulse_length``, then under
    ``gen_off`` (needed only for counts or later observe times).
    ``peak_instant`` is Gamma_c <J+J-> at pulse end, with <J+J-> =
    jpjm_row . vec; ``peak_counts`` integrates it over the 9-point
    PEAK_WINDOW after switch-off (NaN without ``compute_counts``).

    The window runs on ``off_window`` = (sector, ``gen_off`` restricted to
    the entries ``sector``), given by the caller, or on the whole space by
    default; the sector must be one that the drive-off generator leaves
    invariant and outside which ``jpjm_row`` vanishes.  States observed
    after switch-off stay whole.

    Both propagations take the grid's rounding (see :func:`propagate`)
    from max(last observe time, ``pulse_length``): the times after
    switch-off are measured from the pulse end, and their own last one
    would give a smaller slack than the rounding of the grid they were cut
    from.  So an observe time within that rounding of ``pulse_length``,
    such as linspace(1e-6, 30e-6, 30)[19] = 2e-5 - 3.4e-21 with a 20 us
    pulse, reports ``end`` itself."""
    if not (pulse_length > 0 and math.isfinite(pulse_length)):
        raise ParameterError(f"pulse_length must be finite and positive, got {pulse_length}")
    times = _observe_times(observe_times)
    during = times <= pulse_length
    grid_end = np.max(times, initial=pulse_length)
    on = propagate(gen_on, vec0, np.append(times[during], pulse_length), grid_end)
    end = on[-1]
    after = times[~during] - pulse_length
    observed = on[:-1] + (propagate(gen_off, end, after, grid_end) if len(after) else [])
    peak_instant = purcell * float(np.real(jpjm_row @ end))
    peak_counts = math.nan
    if compute_counts:
        sector, gen_window = off_window or (slice(None), gen_off)
        window = np.linspace(0.0, PEAK_WINDOW, 9)
        row = jpjm_row[sector]
        vals = [peak_instant] + [purcell * float(np.real(row @ v))
                                 for v in propagate(gen_window, end[sector], window[1:])]
        peak_counts = float(np.trapezoid(vals, window))
    return PulseRun(observed=observed, end=end, peak_instant=peak_instant,
                    peak_counts=peak_counts)


__all__ = [
    "ParameterError",
    "check_drive",
    "CapabilityError",
    "SolverError",
    "CavityParams",
    "DecoherenceParams",
    "EmitterEnsemble",
    "SystemModel",
    "DerivedRates",
    "mu_from_power",
    "power_from_mu",
    "ensemble_cooperativity",
    "derive_rates",
    "AssumptionCheck",
    "AssumptionReport",
    "validate_assumptions",
    "DENSE_DIM_MAX",
    "PEAK_WINDOW",
    "one_blas_thread",
    "fork_map",
    "fork_workers",
    "propagate",
    "PulseRun",
    "pulse_protocol",
]

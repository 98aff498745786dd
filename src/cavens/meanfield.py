"""Steady-state cavity reflection under the mean-field factorization.

Covers the weak-excitation reflection formula, the single-emitter closed
form with saturation, the nonlinear self-consistent solve for the ensemble
response x (with the cavity field <a> = -sqrt(mu)/(1+x)), full reflection
spectra, and the analytic transparency width/depth/center expressions.

One solver serves every self-consistent point: the bracketed Newton of
:func:`_newton`, vectorized over the frequency grid.  A spectrum and a
single point (:func:`solve_selfconsistent_x`, the one-row case) share it
through :func:`_solve`.  Its input, the ensemble response on the grid
(:class:`_Response`), does not depend on the drive: a spectrum builds it
once per (ensemble, grid, cavity, decoherence) and reuses it across drive
powers, and an explicit ensemble's response is summed in real arithmetic.
Where Newton misses, a spectrum flags the point ``converged = False`` and
the one-point solve raises :class:`~cavens.core.SolverError`.

Every solve runs on the calling thread.  The cores serve independent
solves: ``experiments`` runs an explicit ensemble's powers as
:func:`core.fork_map` tasks, one spectrum each.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import (
    CavityParams,
    DecoherenceParams,
    EmitterEnsemble,
    ParameterError,
    SolverError,
    SystemModel,
    check_drive,
    ensemble_cooperativity,
    validate_assumptions,
)
from .units import angular_to_hz


@dataclass(frozen=True)
class Spectrum:
    """Reflection spectrum on a laser-detuning grid (relative to the
    ensemble center).  ``phase`` is the unwrapped argument of the
    intracavity field <a>; ``converged`` flags per-point solver success."""

    freqs: np.ndarray
    r_complex: np.ndarray
    reflectance: np.ndarray
    phase: np.ndarray
    converged: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.array(self.freqs, dtype=float))  # not the caller's grid
        object.__setattr__(self, "r_complex", np.asarray(self.r_complex, dtype=complex))
        object.__setattr__(self, "reflectance", np.asarray(self.reflectance, dtype=float))
        object.__setattr__(self, "phase", np.asarray(self.phase, dtype=float))
        object.__setattr__(self, "converged", np.asarray(self.converged, dtype=bool))


def _make_spectrum(freqs: np.ndarray, r: np.ndarray, a_field: np.ndarray,
                   converged: np.ndarray) -> Spectrum:
    phase = np.angle(a_field)
    finite = np.isfinite(phase)  # a NaN point must not blank the phase after it
    phase[finite] = np.unwrap(phase[finite])
    return Spectrum(freqs=freqs, r_complex=r, reflectance=np.abs(r) ** 2,
                    phase=phase, converged=converged)


@dataclass(frozen=True)
class TransitionLine:
    """Inhomogeneously broadened transition for the weak-excitation formula:
    total coupling Omega, center, homogeneous linewidth gamma, FWHM."""

    total_coupling: float
    center: float
    gamma: float
    fwhm: float

    def __post_init__(self):
        if self.total_coupling < 0 or self.gamma < 0 or self.fwhm < 0:
            raise ParameterError("transition rates must be non-negative")
        if self.gamma + 0.5 * self.fwhm <= 0:
            raise ParameterError("need gamma + fwhm/2 > 0")

    def response(self, omega: np.ndarray | float) -> np.ndarray:
        """W(omega) = Omega^2 / (omega - center + i gamma + i fwhm/2)."""
        return self.total_coupling**2 / (
            np.asarray(omega, dtype=complex) - self.center + 1j * (self.gamma + 0.5 * self.fwhm)
        )


def reflection_weak_excitation(grid: Sequence[float], transitions: Sequence[TransitionLine],
                               cavity: CavityParams) -> Spectrum:
    """Weak-drive reflection R(w) = |1 - i kappa_c / (w - w_c + i kappa/2 - sum W_X)|^2.

    Grid frequencies and transition centers share the ensemble-center frame;
    the cavity sits at ``cavity.delta_c`` in that frame.
    """
    w = np.asarray(grid, dtype=float)
    wsum = np.zeros(len(w), dtype=complex)
    for tr in transitions:
        wsum += tr.response(w)
    denom = w - cavity.delta_c + 0.5j * cavity.kappa - wsum
    r = 1.0 - 1j * cavity.kappa_c / denom
    # <a> recovered from r = 1 + (2 kappa_c / kappa sqrt(mu)) <a>, mu-independent shape
    a_field = (r - 1.0) * cavity.kappa / (2.0 * cavity.kappa_c)
    return _make_spectrum(w, r, a_field, np.ones(len(w), dtype=bool))


@dataclass(frozen=True)
class SingleIonSteadyState:
    sigma_z: float
    sigma_minus: complex
    reflectance: float
    r_complex: complex


def single_ion_steady_state(delta: float, g: float, mu: float, cavity: CavityParams,
                            dec: DecoherenceParams) -> SingleIonSteadyState:
    """Closed-form saturation steady state of one emitter after adiabatic
    elimination of the cavity, plus the reflection including the bare-cavity
    interference term."""
    check_drive(mu)
    kappa = cavity.kappa
    gamma_eff = dec.gamma + 2.0 * g**2 / kappa
    gamma_s_eff = dec.gamma_s + 4.0 * g**2 / kappa
    sat = 1.0 + (4.0 * g**2 * mu / gamma_s_eff) * gamma_eff / (delta**2 + gamma_eff**2)
    sigma_z = -1.0 / sat
    sigma_minus = (1j * g * math.sqrt(mu) / (1j * delta + gamma_eff)) / sat
    bare = 1.0 - cavity.kappa_c / (1j * cavity.delta_c + 0.5 * kappa)
    if mu > 0:
        ion = -4j * cavity.kappa_c * g * sigma_minus / (kappa**2 * math.sqrt(mu))
    else:
        # sigma_minus is itself proportional to sqrt(mu); take the limit
        ion = -4j * cavity.kappa_c * g * ((1j * g / (1j * delta + gamma_eff)) / sat) / kappa**2
        sigma_minus = 0.0 + 0.0j
    r = ion + bare
    return SingleIonSteadyState(sigma_z=sigma_z, sigma_minus=sigma_minus,
                                reflectance=abs(r) ** 2, r_complex=r)


# ---------------------------------------------------------------------------
# Self-consistent ensemble response
# ---------------------------------------------------------------------------

#: Tolerance on the residual of x, relative to 1 + |x|.
_TOL = 1e-10

class _Response:
    """Ensemble response x at every point of a laser-detuning grid.

    x depends on itself only through t = |1 + x|^2 (t = 1 is the weak limit),
    so the self-consistent solve is a root-find in t.  Each row is a grid
    point with its own cavity detuning ``delta_c``, which sets the cavity
    factor and the effective drive mu_eff = mu / (1 + (2 delta_c / kappa)^2).
    Explicit ensembles sum over their emitters, with real and imaginary
    parts of each coefficient stored apart, so the sums are real products
    with the real saturation factors.  Parametric Lorentzian lines
    sum over coupling levels, each integrated over the line by residues:

        I = \\int rho(w) (gamma - i(w - w_L)) / (gamma^2 + y + (w - w_L)^2) dw
          = (gamma (G + h) / G + i d) / ((G + h)^2 + d^2),  G = sqrt(gamma^2 + y)

    with rho the line's Lorentzian of HWHM h, d = w_L - w_0 the laser
    offset and y = sat mu_eff / t.
    """

    def __init__(self, ens: EmitterEnsemble, offsets: np.ndarray, cavity: CavityParams,
                 dec: DecoherenceParams, delta_c: np.ndarray):
        self.gamma, self.gamma_s = dec.gamma, dec.gamma_s
        self.parametric = ens.is_parametric
        self.offset = offsets[:, None]  # laser minus ensemble center
        self.mu_scale = 1.0 / (1.0 + (2.0 * delta_c / cavity.kappa) ** 2)
        if self.parametric:
            assert ens.delta_inh is not None
            self.half_width = 0.5 * ens.delta_inh
            if ens.g is not None:
                weights, gs = np.array([ens.n * 1.0]), np.array([ens.g])
            else:
                assert ens.g_hist is not None
                weights, gs = np.array([(ens.n * p, g) for g, p in ens.g_hist if p > 0]).T
            self.coef = weights * (2.0 * gs**2 / (cavity.kappa + 2j * delta_c)[:, None])
            sat = 4.0 * gs**2 * self.gamma / self.gamma_s if self.gamma_s > 0 else 0.0 * gs
            self.sat = np.broadcast_to(sat, self.coef.shape)
        else:
            self._build_explicit(ens, cavity, delta_c)
        self.x_weak = self.x_of_t(0.0, np.ones(len(offsets)))  # the mu = 0 limit

    def _build_explicit(self, ens: EmitterEnsemble, cavity: CavityParams, delta_c: np.ndarray):
        """coef = 2 g^2 / (kappa_eff (gamma + i D)) per row and emitter, held
        as its real and imaginary parts, coef[:, 0] and coef[:, 1], with D =
        emitter minus laser.  Writing 2 / kappa_eff = p + i q and W = g^2 /
        (gamma^2 + D^2), coef = W ((p gamma + q D) + i (q gamma - p D)), so
        each part is built in place without a complex temporary."""
        gamma, gs = self.gamma, ens.couplings()
        deltas = ens.detunings() - self.offset
        den = deltas**2
        den += gamma**2
        self.sat = self.gamma_s * den
        np.divide(4.0 * gs**2 * gamma, self.sat, out=self.sat, where=self.sat > 0)
        np.divide(gs**2, den, out=den)  # W
        two_by_kappa = 2.0 / (cavity.kappa + 2j * delta_c)
        p, q = two_by_kappa.real[:, None], two_by_kappa.imag[:, None]
        self.coef = np.empty((len(deltas), 2, len(gs)))
        re, im = self.coef[:, 0], self.coef[:, 1]
        np.multiply(q, deltas, out=re)
        re += p * gamma
        re *= den
        np.multiply(-p, deltas, out=im)
        im += q * gamma
        im *= den

    #: The arrays with one row per grid point.
    ROW_ARRAYS = ("offset", "mu_scale", "coef", "sat", "x_weak")

    def rows(self, index) -> "_Response":
        """The response at the grid points ``index`` (an index array) alone."""
        sub = copy.copy(self)
        for name in self.ROW_ARRAYS:
            setattr(sub, name, getattr(self, name)[index])
        return sub

    def work(self) -> Optional[np.ndarray]:
        """Scratch for :meth:`x_of_t` on these rows; a parametric line needs none."""
        return None if self.parametric else np.empty((2,) + self.sat.shape)

    def x_of_t(self, mu: float, t, slope: bool = False, work: Optional[np.ndarray] = None):
        """x at each row's t; with ``slope``, the pair (x, dx/dt).

        An explicit ensemble's sums take two row-by-emitter arrays; ``work``
        (from :meth:`work`) lends them instead of fresh ones."""
        m = (mu * self.mu_scale / t)[:, None]  # mu_eff / t
        if self.parametric:
            gamma, h, d = self.gamma, self.half_width, self.offset
            y = self.sat * m
            width = np.sqrt(gamma**2 + y)  # G, the saturated homogeneous HWHM
            s = width + h
            num = gamma * s / width + 1j * d
            den = s * s + d * d
            x = (self.coef * (num / den)).sum(-1)
            if not slope:
                return x
            # dI/dG, and dG/dt = -y / (2 G t)
            di = -gamma * h / (width**2 * den) - 2.0 * s * num / den**2
            return x, -(self.coef * di * y / (2.0 * width)).sum(-1) / t
        # y = sat m and u = 1 / (1 + y), in place (without the slope, y is not
        # needed again and u takes its array); the row sums take no
        # grid-by-emitter temporary, and each is a real (re, im) pair read as
        # one complex number
        if work is None:
            work = np.empty((2 if slope else 1,) + self.sat.shape)
        y = np.multiply(self.sat, m, out=work[0])
        u = np.add(y, 1.0, out=work[-1 if slope else 0])
        np.reciprocal(u, out=u)
        x = np.einsum("rkj,rj->rk", self.coef, u, out=np.empty((len(m), 2))).view(complex)
        if not slope:
            return x[:, 0]
        # dx/dt = sum coef y u^2 / t, which is u (1 - u) without the cancellation
        y *= u
        y *= u
        dx = np.einsum("rkj,rj->rk", self.coef, y, out=np.empty((len(m), 2))).view(complex)
        return x[:, 0], dx[:, 0] / t


def _newton(resp: _Response, mu: float, x_weak: np.ndarray,
            tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton on h(t) = t - |1+x(t)|^2 at every grid point at
    once (``rtsafe``, Press et al., Numerical Recipes, 3rd ed., sec. 9.4).

    Each point keeps a bracket t_lo < t_hi with h(t_lo) < 0 < h(t_hi);
    every evaluation of h moves one end of it to the iterate.  h -> -1 as
    t -> 0 (full saturation), so t_lo starts at 0.  The iterate starts at
    the weak-excitation t and is raised by factors of 4 until h > 0, which
    sets t_hi; from there Newton comes down from above.  Where h is convex
    above its largest root, no step passes that root, so where h has three
    roots the solve lands on the largest, the branch connected to the
    weak-excitation solution (the tests check this against a root scan at
    bistable points).  A Newton step that leaves the bracket is
    replaced by bisection, unless the step has converged (below 1e-13
    relative), which may put it just past the edge it converged on.

    A point is done once its step is below that bound.  Once at most half
    of the rows being iterated are still open, the response is cut down to
    those rows (:meth:`_Response.rows`), so no copy is ever larger than half
    the grid-by-emitter arrays; until then done rows go on taking steps
    below the bound.  The scratch of the row sums (:meth:`_Response.work`)
    serves every iteration, and is freed before each cut and made again
    for the rows kept.  A response with one coupling level (a parametric
    line of one g, or a single emitter) is never cut down: its rows are
    single numbers, and the copy would cost more than the rows it drops.
    Points still open after 100 iterations are left to the residual check.

    Returns x and a flag for each point whose residual on x misses tol."""
    t = np.abs(1.0 + x_weak) ** 2
    rows = np.arange(len(t))  # grid indices of the rows of ``sub``
    sub, tv = resp, t
    lo, hi = np.zeros_like(t), np.full_like(t, np.nan)  # hi: NaN until some h > 0
    cut_down = resp.coef.shape[-1] > 1
    work = resp.work()
    for _ in range(100):
        x, dx = sub.x_of_t(mu, tv, slope=True, work=work)
        x += 1.0
        h = tv - np.abs(x) ** 2
        hp = 1.0 - 2.0 * np.real(np.conj(x) * dx)
        np.copyto(lo, tv, where=h < 0)
        np.copyto(hi, tv, where=h > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = h / hp  # hp = 0 gives a step that fails the bracket test
        eps = 1e-13 * (1.0 + tv)
        done = np.abs(dt) <= eps
        step = tv - dt
        out = ~(done | ((step > lo) & (step < hi)))
        if out.any():  # bisect, or raise t while no h > 0 has been seen
            mid = 0.5 * (lo[out] + hi[out])
            step[out] = np.where(np.isnan(mid), 4.0 * tv[out], mid)
            done[out] = np.abs(step[out] - tv[out]) <= eps[out]
        tv = step
        n_open = len(tv) - np.count_nonzero(done)
        if n_open == 0 or (cut_down and 2 * n_open <= len(tv)):
            t[rows] = tv
            if n_open == 0:
                break
            keep = np.flatnonzero(~done)
            work = None  # freed before the copy, so the two are never held at once
            sub, rows, tv, lo, hi = sub.rows(keep), rows[keep], tv[keep], lo[keep], hi[keep]
            work = sub.work()
    else:
        t[rows] = tv
    x = resp.x_of_t(mu, t)
    resid = np.abs(x - resp.x_of_t(mu, np.abs(1.0 + x) ** 2))
    return x, ~(resid < tol * (1.0 + np.abs(x)))


def _solve(resp: _Response, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """x at every row of ``resp`` and a flag for each row Newton missed.

    mu = 0 gives the weak-excitation x; without relaxation (gamma_s = 0)
    any finite drive fully saturates the ensemble, so x = 0."""
    x = resp.x_weak
    if mu > 0 and resp.gamma_s == 0:
        x = np.zeros(len(x), dtype=complex)
    elif mu > 0:
        return _newton(resp, mu, x, _TOL)
    return x, np.zeros(len(x), dtype=bool)


def solve_selfconsistent_x(ens: EmitterEnsemble, mu: float, omega_l: float,
                           cavity: CavityParams, dec: DecoherenceParams, *,
                           delta_c: Optional[float] = None) -> complex:
    """Self-consistent ensemble response x at one laser frequency.

    The one-row case of :func:`reflection_spectrum`'s solve, at the cavity
    detuning ``delta_c`` (default ``cavity.delta_c``).  Raises
    :class:`~cavens.core.SolverError` where Newton misses the tolerance,
    naming the laser offset from the ensemble center and the residual on x.
    """
    check_drive(mu)
    dc = cavity.delta_c if delta_c is None else delta_c
    if not (math.isfinite(omega_l) and math.isfinite(dc)):
        raise ParameterError(f"omega_l and delta_c must be finite (got {omega_l!r}, {dc!r})")
    resp = _Response(ens, np.array([omega_l - ens.center]), cavity, dec, np.array([dc]))
    x, missed = _solve(resp, mu)
    if missed[0]:
        residual = abs(x[0] - resp.x_of_t(mu, np.abs(1.0 + x) ** 2)[0])
        point = f"laser offset {angular_to_hz(resp.offset.item()):.6g} Hz from the ensemble center"
        raise SolverError(f"no convergence at mu={mu:.3e}", point=point, method="newton",
                          residual=residual)
    return complex(x[0])


def reflection_from_x(x: complex | np.ndarray, cavity: CavityParams,
                      delta_c: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """(r, <a>/sqrt(mu)) from the ensemble response x."""
    dc = cavity.delta_c if delta_c is None else delta_c
    r = 1.0 - 2.0 * cavity.kappa_c / ((cavity.kappa + 2j * dc) * (1.0 + np.asarray(x)))
    a_unit = -1.0 / ((1.0 + 2j * dc / cavity.kappa) * (1.0 + np.asarray(x)))
    return r, a_unit


def reflection_spectrum(ens: EmitterEnsemble, mu: float, grid: Sequence[float],
                        cavity: CavityParams, dec: DecoherenceParams) -> Spectrum:
    """Reflection spectrum from the nonlinear self-consistent solve.

    Grid = laser detuning from the ensemble center.  ``cavity.delta_c`` is
    the cavity offset from the center; the per-point cavity-laser detuning
    is tracked exactly.

    Solves h(t) = t - |1+x(t)|^2 = 0 at every grid point at once, for
    explicit emitter lists and parametric (closed-form) lines alike, by the
    safeguarded Newton of :func:`_newton`: each point keeps a bracket on
    which h changes sign and bisects when a step leaves it, only the points
    not yet converged are iterated, and the iterate comes down from above
    the weak-excitation t, so it lands on the largest-t root where h has
    three (the branch connected to the weak-excitation solution).  Points
    whose residual on x misses the tolerance are flagged as not converged
    and set to NaN rather than aborting the scan.

    The response on the grid does not depend on mu, so consecutive calls
    with equal ensemble, grid values, cavity and decoherence share one
    (:func:`_spectrum_response`).  Non-finite mu or grid values raise
    :class:`ParameterError`.
    """
    check_drive(mu)
    freqs = np.asarray(grid, dtype=float)
    if not np.isfinite(freqs).all():
        raise ParameterError("grid frequencies must be finite")
    x, missed = _solve(_spectrum_response(ens, freqs.tobytes(), cavity, dec), mu)
    dc = cavity.delta_c - freqs
    r, a = reflection_from_x(x, cavity, delta_c=dc)
    r[missed] = complex(np.nan, np.nan)
    a = np.where(missed, np.nan, a)
    return _make_spectrum(freqs, r, a, ~missed)


# One entry: power sweeps ask for one key many times in a row, and an
# explicit ensemble's entry holds three grid-by-emitter float arrays.
@lru_cache(maxsize=1)
def _spectrum_response(ens: EmitterEnsemble, grid: bytes, cavity: CavityParams,
                       dec: DecoherenceParams) -> _Response:
    """The response of ``reflection_spectrum`` on the grid whose float64
    bytes are ``grid``.  It does not depend on mu, so the solves of one
    grid at many drives share it; its arrays are read-only."""
    freqs = np.frombuffer(grid)
    resp = _Response(ens, freqs, cavity, dec, cavity.delta_c - freqs)
    for name in _Response.ROW_ARRAYS:
        getattr(resp, name).flags.writeable = False
    return resp


# ---------------------------------------------------------------------------
# Analytic transparency expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CitAnalytics:
    """Analytic transparency dip: FWHM ``width``, normalized ``depth``,
    ``center`` (cavity-detuning corrected), and the high-power floor
    ``width_min`` = Delta_inh / C."""

    width: float
    depth: float
    center: float
    width_min: float


def cit_power_factor(model: SystemModel, mu: float) -> float:
    """The saturation factor B = (2 N <g> / (Delta_inh kappa)) sqrt(gamma_s gamma / mu);
    equals C sqrt(gamma_s gamma / (4 g^2 mu)) for uniform coupling."""
    check_drive(mu)
    ens, dec, cav = model.ensemble, model.decoherence, model.cavity
    if ens.delta_inh is None:
        raise ParameterError("analytic dip expressions need a parametric ensemble")
    if mu <= 0:
        return math.inf
    g_mean, _ = ens.g_moments()
    return (2.0 * ens.n * g_mean / (ens.delta_inh * cav.kappa)) * math.sqrt(
        dec.gamma_s * dec.gamma / mu)


def cit_center(omega0: float, omega_cav: float, cooperativity: float,
               delta_inh: float, kappa: float) -> float:
    """Dip center for a detuned cavity:
    [omega_0 - (Delta_inh/(C kappa)) omega_c] / (1 - Delta_inh/(C kappa))."""
    eps = delta_inh / (cooperativity * kappa)
    return (omega0 - eps * omega_cav) / (1.0 - eps)


def cit_analytics(model: SystemModel, mu: float, *, check: bool = True) -> CitAnalytics:
    """Analytic width/depth/center of the transparency dip at drive mu.

    Raises :class:`~cavens.core.ParameterError` when mu is at or below the
    pole of the width formula (below the transparency threshold).  Warns (never aborts) when the validity conditions fail
    at the default ratio of :func:`cavens.core.validate_assumptions`.
    """
    ens, cav = model.ensemble, model.cavity
    c = ensemble_cooperativity(cav, ens)
    assert ens.delta_inh is not None
    if check:
        report = validate_assumptions(model, mu)
        if not report.passed:
            failing = [c_.name for c_ in report.checks if not c_.passed]
            warnings.warn(f"analytic dip expressions outside validity regime: {failing}",
                          stacklevel=2)
    b = cit_power_factor(model, mu)
    if 1.0 - b <= 0.0:
        raise ParameterError(
            f"below CIT threshold power: 1 - C sqrt(gamma_s gamma / 4 g^2 mu) = {1.0 - b:.3e}")
    width_min = ens.delta_inh / c
    width = width_min / (1.0 - b)
    kc_ratio = cav.coupling_ratio
    depth = ((1.0 - b) - kc_ratio * (1.0 - b) ** 2) / (1.0 - kc_ratio)
    center = cit_center(ens.center, ens.center + cav.delta_c, c, ens.delta_inh, cav.kappa)
    return CitAnalytics(width=width, depth=depth, center=center, width_min=width_min)


def single_contribution(delta: float, g: float, sigma_z: float, dec: DecoherenceParams) -> complex:
    """Relative coherence of one emitter, <sigma^-_D>/<a> = i g sigma_z (gamma - i D)/(gamma^2 + D^2)."""
    gamma = dec.gamma
    return 1j * g * sigma_z * (gamma - 1j * delta) / (gamma**2 + delta**2)


def pair_contribution(delta: float, g: float, sigma_z: float, dec: DecoherenceParams) -> complex:
    """Summed relative coherence of a symmetric +/-delta pair:
    i g sigma_z (2 gamma) / (gamma^2 + delta^2)."""
    gamma = dec.gamma
    return 1j * g * sigma_z * (2.0 * gamma) / (gamma**2 + delta**2)


__all__ = [
    "Spectrum",
    "TransitionLine",
    "reflection_weak_excitation",
    "SingleIonSteadyState",
    "single_ion_steady_state",
    "solve_selfconsistent_x",
    "reflection_from_x",
    "reflection_spectrum",
    "CitAnalytics",
    "cit_power_factor",
    "cit_center",
    "cit_analytics",
    "single_contribution",
    "pair_contribution",
]

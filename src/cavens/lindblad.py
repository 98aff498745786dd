"""Full-Hilbert-space open-system dynamics after adiabatic cavity elimination.

Builds the many-body generator

    drho/dt = -i[H_at, rho] + L_col + L_em + L_deph

for an explicit list of emitters (capability-limited, default N <= 8),
evolves it by matrix exponentials, runs the pulsed-emission protocol, and
projects states onto the coupled angular-momentum basis.  Propagation and
the pulse protocol are the ones the block solver uses
(:func:`cavens.core.propagate`, :func:`cavens.core.pulse_protocol`).

ODE stepping is kept only as independent test oracles: :func:`evolve`
(DOP853 on the matrix-free generator) and
:func:`mean_field_ode_steady_state`.  Both import ``scipy.integrate`` when
called, so no production run loads it.

Conventions pinned by tests:

- Coherent drive amplitude per emitter is g_j sqrt(mu) (validated against a
  cavity-included oracle; see tests).
- Dephasing enters as (gamma_d / 2) sum_j (sz rho sz - rho) so that the
  single-emitter coherence decays at gamma = gamma_s/2 + gamma_d exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .core import (
    CapabilityError,
    CavityParams,
    DecoherenceParams,
    EmitterEnsemble,
    ParameterError,
    SystemModel,
    propagate,
    pulse_protocol,
)
from .meanfield import single_ion_steady_state

#: Scale applied to the written dephasing form gamma_d (sz rho sz - rho);
#: 1/2 makes the single-emitter coherence decay at gamma_s/2 + gamma_d.
DEPHASING_LINDBLAD_SCALE = 0.5

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8

DEFAULT_N_MAX = 8


class IntegrationError(RuntimeError):
    """An ODE oracle's integrator failed (e.g. step-size underflow)."""


@dataclass(frozen=True)
class DensityState:
    """Density operator on the 2^N emitter space."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ParameterError(f"matrix shape {m.shape} != ({self.dim}, {self.dim})")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def ground(cls, n_emitters: int) -> "DensityState":
        dim = 2**n_emitters
        m = np.zeros((dim, dim), dtype=complex)
        m[dim - 1, dim - 1] = 1.0  # |g...g> is the last computational state
        return cls(dim=dim, matrix=m)

    @classmethod
    def from_pure(cls, vec: np.ndarray) -> "DensityState":
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(dim=len(v), matrix=np.outer(v, v.conj()))

    def validate(self, hermiticity_tol: float = HERMITICITY_TOL, trace_tol: float = TRACE_TOL,
                 positivity_tol: float = POSITIVITY_TOL) -> None:
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > hermiticity_tol:
            raise ParameterError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > trace_tol or abs(np.trace(m).imag) > trace_tol:
            raise ParameterError("density matrix trace differs from 1 beyond tolerance")
        evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if evals.min() < -positivity_tol:
            raise ParameterError(f"density matrix has negative eigenvalue {evals.min():.3e}")

    def expect(self, op: sp.spmatrix | np.ndarray) -> complex:
        return complex(np.trace(op @ self.matrix))


@dataclass(frozen=True)
class EmissionTrace:
    """Emission observables along a pulsed trajectory.  ``cavity_pop`` is
    Gamma_c <J+ J->, the adiabatic estimate of the cavity photon flux."""

    times: np.ndarray
    jpjm: np.ndarray
    individual: np.ndarray
    correlation: np.ndarray
    coherent_amp: np.ndarray
    cavity_pop: np.ndarray


# ---------------------------------------------------------------------------
# Spin operators
# ---------------------------------------------------------------------------

_SM = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))  # |g><e|
_SP = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
_SZ = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
_ID = sp.identity(2, dtype=complex, format="csr")


@lru_cache(maxsize=64)
def site_operator(n: int, site: int, which: str) -> sp.csr_matrix:
    """Single-site operator embedded in the n-emitter space; site 0 owns the
    most significant qubit (|e> first)."""
    table = {"sm": _SM, "sp": _SP, "sz": _SZ}
    op = table[which]
    mats = [op if k == site else _ID for k in range(n)]
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


@lru_cache(maxsize=64)
def collective_operators(n: int) -> dict:
    """J-, J+, Jz, J+J-, sum sp_i sm_i, and the cross-correlation operator
    sum_{i != j} sp_i sm_j."""
    jm = sum(site_operator(n, k, "sm") for k in range(n))
    jp = sum(site_operator(n, k, "sp") for k in range(n))
    jz = 0.5 * sum(site_operator(n, k, "sz") for k in range(n))
    individual = sum(site_operator(n, k, "sp") @ site_operator(n, k, "sm") for k in range(n))
    jpjm = (jp @ jm).tocsr()
    correlation = (jpjm - individual).tocsr()
    return {"jm": jm.tocsr(), "jp": jp.tocsr(), "jz": jz.tocsr(),
            "jpjm": jpjm, "individual": individual.tocsr(), "correlation": correlation}


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class Liouvillian:
    """Generator of drho/dt acting on 2^N density matrices.

    Stores the Hamiltonian and Lindblad channels at the operator level and
    applies them matrix-free; a column-stacked sparse superoperator is
    materialized on demand for exponential-based propagation.
    """

    def __init__(self, n: int, hamiltonian: sp.spmatrix,
                 collapse: Sequence[tuple[float, sp.spmatrix]],
                 purcell: float):
        self.n = n
        self.dim = 2**n
        self.hamiltonian = hamiltonian.tocsr()
        self.collapse = [(float(rate), op.tocsr(), op.conj().T.tocsr(),
                          (op.conj().T @ op).tocsr())
                         for rate, op in collapse if rate != 0.0]
        self.purcell = purcell
        self._superop: Optional[sp.csr_matrix] = None

    def apply(self, rho: np.ndarray) -> np.ndarray:
        h = self.hamiltonian
        out = -1j * (h @ rho - rho @ h)
        for rate, a, adag, ada in self.collapse:
            out += rate * ((a @ rho) @ adag - 0.5 * (ada @ rho + rho @ ada))
        return out

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        rho = vec.reshape(self.dim, self.dim)
        return self.apply(rho).reshape(-1)

    def superoperator(self) -> sp.csr_matrix:
        """Row-major-vec superoperator: vec(A X B) = kron(A, B^T) vec(X)."""
        if self._superop is None:
            d = self.dim
            eye = sp.identity(d, dtype=complex, format="csr")
            h = self.hamiltonian
            lv = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
            for rate, a, _adag, ada in self.collapse:
                lv = lv + rate * (sp.kron(a, a.conj())
                                  - 0.5 * sp.kron(ada, eye)
                                  - 0.5 * sp.kron(eye, ada.T))
            self._superop = lv.tocsr()
        return self._superop


def build_generator(ens: EmitterEnsemble, mu: float, cavity: CavityParams,
                    dec: DecoherenceParams, n_max: int = DEFAULT_N_MAX,
                    laser_detuning: float = 0.0) -> Liouvillian:
    """Adiabatically eliminated generator for an explicit ensemble.

    H_at = (Delta_c/((kappa/2)^2 + Delta_c^2)) Jg+ Jg- + (1/2) sum Delta_j sz_j
           - sum g_j sqrt(mu) (sp_j + sm_j),
    L_col = (kappa/((kappa/2)^2 + Delta_c^2)) D[Jg-],  Jg- = sum g_j sm_j,
    plus local emission gamma_s D[sm_j] and the dephasing channel (see module
    docstring).  Delta_j is emitter j's detuning plus the ensemble center,
    minus ``laser_detuning`` (laser frame); ``cavity.delta_c`` is taken as
    configured.
    """
    expl = ens.to_explicit() if ens.is_parametric else ens
    n = expl.n
    if n > n_max:
        raise CapabilityError(f"full-space generator limited to {n_max} emitters, got {n}")
    if not (mu >= 0 and math.isfinite(mu)):
        raise ParameterError(f"mu must be finite and >= 0, got {mu}")
    deltas = expl.detunings() + expl.center - laser_detuning
    gs = expl.couplings()
    dc = cavity.delta_c
    denom = (0.5 * cavity.kappa) ** 2 + dc**2

    jg_minus = sum(g * site_operator(n, k, "sm") for k, g in enumerate(gs))
    h = sp.csr_matrix((2**n, 2**n), dtype=complex)
    if dc != 0.0:
        h = h + (dc / denom) * (jg_minus.conj().T @ jg_minus)
    for k in range(n):
        h = h + 0.5 * deltas[k] * site_operator(n, k, "sz")
        if mu > 0:
            drive = gs[k] * math.sqrt(mu)
            h = h - drive * (site_operator(n, k, "sp") + site_operator(n, k, "sm"))

    collapse: list[tuple[float, sp.spmatrix]] = [(cavity.kappa / denom, jg_minus)]
    for k in range(n):
        if dec.gamma_s > 0:
            collapse.append((dec.gamma_s, site_operator(n, k, "sm")))
        if dec.gamma_d > 0:
            collapse.append((DEPHASING_LINDBLAD_SCALE * dec.gamma_d, site_operator(n, k, "sz")))
    purcell = 4.0 * float(np.mean(gs**2)) / cavity.kappa
    return Liouvillian(n, h, collapse, purcell)


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------


def evolve(state0: DensityState, gen: Liouvillian, times: Sequence[float], *,
           rtol: float = 1e-8, atol: float = 1e-10, method: str = "DOP853") -> list[DensityState]:
    """ODE trajectory at the requested times (strictly increasing from 0).
    Test oracle for :func:`evolve_expm`; no production path calls it."""
    from scipy.integrate import solve_ivp

    t = np.asarray(times, dtype=float)
    if len(t) == 0 or t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ParameterError("times must be strictly increasing and start at >= 0")
    y0 = state0.matrix.reshape(-1)
    t_eval = t
    prepend_zero = t[0] > 0
    if prepend_zero:
        t_eval = np.concatenate([[0.0], t])
    sol = solve_ivp(lambda _t, y: gen.matvec(y), (0.0, float(t[-1])), y0,
                    t_eval=t_eval, method=method, rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")
    states = [DensityState(gen.dim, sol.y[:, k].reshape(gen.dim, gen.dim))
              for k in range(int(prepend_zero), sol.y.shape[1])]
    return states


def evolve_expm(state0: DensityState, gen: Liouvillian, times: Sequence[float]) -> list[DensityState]:
    """Exponential-propagator trajectory for the time-independent generator
    at non-decreasing times (:func:`cavens.core.propagate`)."""
    d = gen.dim
    return [DensityState(d, v.reshape(d, d))
            for v in propagate(gen.superoperator(), state0.matrix.reshape(-1), times)]


@dataclass(frozen=True)
class PulsedEmission:
    trace: EmissionTrace
    peak_instant: float
    peak_counts: float
    pulse_length: float
    final_state: DensityState


def pulsed_emission(model: SystemModel, mu: float, pulse_length: float,
                    observe_times: Sequence[float], *, use_expm: bool = True,
                    laser_detuning: float = 0.0) -> PulsedEmission:
    """Drive on for ``pulse_length`` from all-ground, then drive off, by
    matrix exponentials (:func:`cavens.core.pulse_protocol`).

    ``peak_instant`` is Gamma_c <J+J-> right at pulse end; ``peak_counts``
    integrates it over the 128 ns detection window after the pulse.
    ``laser_detuning`` is subtracted from every emitter's detuning (see
    :func:`build_generator`).  ``use_expm=False`` raises ParameterError: ODE stepping survives only as
    the test oracle :func:`evolve`.
    """
    if not use_expm:
        raise ParameterError("pulsed_emission propagates by matrix exponentials only; "
                             "lindblad.evolve is the ODE oracle")
    times = np.asarray(observe_times, dtype=float)
    n, d = model.ensemble.n, 2**model.ensemble.n
    gen_on = build_generator(model.ensemble, mu, model.cavity, model.decoherence,
                             laser_detuning=laser_detuning)
    gen_off = build_generator(model.ensemble, 0.0, model.cavity, model.decoherence,
                              laser_detuning=laser_detuning)
    # weight rows w with <op> = tr(op rho) = w . vec(rho), row-major vec
    rows = {name: op.T.toarray().reshape(-1) for name, op in collective_operators(n).items()}
    run = pulse_protocol(gen_on.superoperator(), gen_off.superoperator(),
                         DensityState.ground(n).matrix.reshape(-1), pulse_length,
                         rows["jpjm"], gen_on.purcell, times)
    obs = np.array(run.observed, dtype=complex).reshape(len(times), d * d)
    jpjm = (obs @ rows["jpjm"]).real
    trace = EmissionTrace(times=times, jpjm=jpjm, individual=(obs @ rows["individual"]).real,
                          correlation=(obs @ rows["correlation"]).real,
                          coherent_amp=obs @ rows["jm"], cavity_pop=gen_on.purcell * jpjm)
    return PulsedEmission(trace=trace, peak_instant=run.peak_instant,
                          peak_counts=run.peak_counts, pulse_length=pulse_length,
                          final_state=DensityState(d, run.end.reshape(d, d)))


# ---------------------------------------------------------------------------
# Angular-momentum diagnostics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _jm_sectors(n: int) -> tuple:
    """For each excitation sector: (indices, eigenvectors, j values, M).

    Diagonalizes J^2 restricted to each fixed-excitation subspace; the
    eigenvectors enumerate the (J, M) states including multiplicity copies.
    """
    ops = collective_operators(n)
    j2 = (ops["jm"] @ ops["jp"] + ops["jz"] @ ops["jz"] + ops["jz"]).toarray()
    dim = 2**n
    n_exc = np.array([bin(i).count("1") for i in range(dim)])
    # site 0 is the most-significant bit with |e> = 0b0 index... computational
    # order: index bits with 0 = excited. Count ground bits instead.
    n_exc = n - n_exc  # bit set means |g> in our kron ordering ( |e> is row 0 )
    sectors = []
    for k in range(n + 1):
        idx = np.where(n_exc == k)[0]
        m_val = k - n / 2.0
        block = j2[np.ix_(idx, idx)]
        evals, evecs = np.linalg.eigh(block)
        js = 0.5 * (np.sqrt(4.0 * np.clip(evals, 0.0, None) + 1.0) - 1.0)
        js = np.round(2.0 * js) / 2.0
        sectors.append((idx, evecs, js, m_val))
    return tuple(sectors)


@dataclass(frozen=True)
class DickeProjection:
    """Populations per (J, M), aggregated over multiplicity copies."""

    n: int
    populations: dict
    ground: float
    superradiant_ladder: float
    subradiant: float


def dicke_projection(state: DensityState, n: int) -> DickeProjection:
    """Project a full-space state onto the |J, M> basis.

    The superradiant ladder aggregates J = N/2 excluding the global ground
    state; everything with J < N/2 counts as subradiant subspace.
    """
    if state.dim != 2**n:
        raise ParameterError("state dimension does not match emitter count")
    pops: dict = {}
    for idx, evecs, js, m_val in _jm_sectors(n):
        rho_sec = state.matrix[np.ix_(idx, idx)]
        diag = np.einsum("ik,ij,jk->k", evecs.conj(), rho_sec, evecs).real
        for j, p in zip(js, diag):
            key = (float(j), float(m_val))
            pops[key] = pops.get(key, 0.0) + float(p)
    jmax = n / 2.0
    ground = pops.get((jmax, -jmax), 0.0)
    ladder = sum(p for (j, m), p in pops.items() if j == jmax and m > -jmax)
    sub = sum(p for (j, _m), p in pops.items() if j < jmax)
    return DickeProjection(n=n, populations=pops, ground=ground,
                           superradiant_ladder=ladder, subradiant=sub)


@dataclass(frozen=True)
class SaturationCurves:
    mu: np.ndarray
    coherence_sq: np.ndarray
    excited: np.ndarray


def saturation_comparison(g: float, mu_grid: Sequence[float], cavity: CavityParams,
                          dec: DecoherenceParams) -> SaturationCurves:
    """|<sigma->|^2 (non-monotonic) vs excited population (monotonic) for one
    resonant emitter as functions of drive."""
    mu = np.asarray(mu_grid, dtype=float)
    coh = np.empty(len(mu))
    exc = np.empty(len(mu))
    for i, m in enumerate(mu):
        ss = single_ion_steady_state(0.0, g, m, cavity, dec)
        coh[i] = abs(ss.sigma_minus) ** 2
        exc[i] = 0.5 * (ss.sigma_z + 1.0)
    return SaturationCurves(mu=mu, coherence_sq=coh, excited=exc)


# ---------------------------------------------------------------------------
# Mean-field ODE oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanFieldSteadyState:
    x: complex
    a_field: complex
    r_complex: complex
    sigma_minus: np.ndarray
    sigma_z: np.ndarray


def mean_field_ode_steady_state(ens: EmitterEnsemble, mu: float, omega_l: float,
                                cavity: CavityParams, dec: DecoherenceParams, *,
                                ss_tol: float = 1e-9, max_chunks: int = 64,
                                rtol: float = 1e-10, atol: float = 1e-12) -> MeanFieldSteadyState:
    """Integrate the factorized (mean-field) equations of motion from the
    ground state into the steady-state basin, then polish the fixed point by
    root-finding on the full equation set; independent route to the
    self-consistent response x."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import root

    if mu <= 0:
        raise ParameterError("the ODE oracle needs mu > 0")
    if dec.gamma_s <= 0:
        raise ParameterError("the ODE oracle needs gamma_s > 0 to relax")
    expl = ens.to_explicit() if ens.is_parametric else ens
    n = expl.n
    deltas = expl.detunings() + expl.center - omega_l
    gs = expl.couplings()
    gamma, gamma_s = dec.gamma, dec.gamma_s
    dc = cavity.delta_c
    kap = cavity.kappa
    drive = -0.5 * kap * math.sqrt(mu)

    def a_of(sm):
        return (-1j * np.sum(gs * sm) + drive) / (1j * dc + 0.5 * kap)

    def rhs(_t, y):
        sm = y[:n] + 1j * y[n:2 * n]
        sz = y[2 * n:]
        a = a_of(sm)
        dsm = -(1j * deltas + gamma) * sm + 1j * gs * sz * a
        dsz = -4.0 * gs * np.imag(np.conj(a) * sm) - gamma_s * (1.0 + sz)
        return np.concatenate([dsm.real, dsm.imag, dsz])

    y = np.concatenate([np.zeros(2 * n), -np.ones(n)])
    rate = gamma_s + 4.0 * float(np.min(gs) ** 2) / kap
    chunk = 8.0 / rate
    # DOP853's automatic first step scales with |y|/|y'|, which is huge for a
    # weakly driven ground state; such a step overflows the rhs.  Start
    # instead from a fraction of the fastest timescale of the problem.
    fastest = max(gamma, float(np.max(np.abs(deltas))), 4.0 * float(np.max(gs) ** 2) / kap)
    first_step = 0.1 / fastest
    scale = max(1.0, math.sqrt(mu))
    threshold = ss_tol * rate * scale
    resid = math.inf
    for _ in range(max_chunks):
        sol = solve_ivp(rhs, (0.0, chunk), y, method="DOP853", rtol=rtol, atol=atol,
                        first_step=first_step)
        if not sol.success:
            raise IntegrationError(sol.message)
        y = sol.y[:, -1]
        resid = float(np.max(np.abs(rhs(0.0, y))))
        if resid <= threshold:
            break
        if resid <= 1e-3 * rate * scale:
            polished = root(lambda v: rhs(0.0, v), y, method="hybr", tol=1e-13)
            y_pol = polished.x
            if float(np.max(np.abs(rhs(0.0, y_pol)))) <= threshold:
                y = y_pol
                break
    else:
        raise IntegrationError(
            f"mean-field ODE not stationary after {max_chunks} chunks (residual {resid:.3e})")
    sm = y[:n] + 1j * y[n:2 * n]
    sz = y[2 * n:]
    a = a_of(sm)
    x = drive / ((1j * dc + 0.5 * kap) * a) - 1.0
    r = 1.0 + 2.0 * cavity.kappa_c * a / (kap * math.sqrt(mu))
    return MeanFieldSteadyState(x=complex(x), a_field=complex(a), r_complex=complex(r),
                                sigma_minus=sm, sigma_z=sz)


__all__ = [
    "DEPHASING_LINDBLAD_SCALE",
    "DEFAULT_N_MAX",
    "CapabilityError",
    "IntegrationError",
    "DensityState",
    "EmissionTrace",
    "site_operator",
    "collective_operators",
    "Liouvillian",
    "build_generator",
    "evolve",
    "evolve_expm",
    "PulsedEmission",
    "pulsed_emission",
    "DickeProjection",
    "dicke_projection",
    "SaturationCurves",
    "saturation_comparison",
    "MeanFieldSteadyState",
    "mean_field_ode_steady_state",
]

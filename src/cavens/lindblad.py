"""Open-system dynamics of an explicit emitter list after adiabatic cavity
elimination.

:func:`build_generator` writes the many-body generator

    drho/dt = -i[H_at, rho] + L_col + L_em + L_deph

on the full 2^N space, up to N = 8 (``DIM_MAX`` = 4^8).  It, :func:`evolve_expm`
and the ODE oracle :func:`evolve` (DOP853; it imports ``scipy.integrate``
when called) are the references the tests and the benchmark checks use.
:func:`pulsed_emission` runs the same generator on the ensemble's
permutation-symmetric group space instead, through the one pulse driver
:func:`cavens.dicke.group_pulse`, and keeps the pulse-end state there.

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
    check_drive,
    propagate,
)
from .dicke import DIM_MAX, DickeBlockState, GroupSpace, group_pulse

#: Scale applied to the written dephasing form gamma_d (sz rho sz - rho);
#: 1/2 makes the single-emitter coherence decay at gamma_s/2 + gamma_d.
DEPHASING_LINDBLAD_SCALE = 0.5

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8


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

    def validate(self) -> None:
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ParameterError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ParameterError("density matrix trace differs from 1 beyond tolerance")
        evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if evals.min() < -POSITIVITY_TOL:
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


def _laser_frame(ens: EmitterEnsemble, cavity: CavityParams,
                 laser_detuning: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Laser-frame detunings, couplings and Purcell rate 4 <g^2> / kappa."""
    expl = ens.to_explicit() if ens.is_parametric else ens
    gs = expl.couplings()
    purcell = 4.0 * float(np.mean(gs**2)) / cavity.kappa
    return expl.detunings() + expl.center - laser_detuning, gs, purcell


def build_generator(ens: EmitterEnsemble, mu: float, cavity: CavityParams,
                    dec: DecoherenceParams, laser_detuning: float = 0.0) -> Liouvillian:
    """Adiabatically eliminated generator for an explicit ensemble.

    H_at = (Delta_c/((kappa/2)^2 + Delta_c^2)) Jg+ Jg- + (1/2) sum Delta_j sz_j
           - sum g_j sqrt(mu) (sp_j + sm_j),
    L_col = (kappa/((kappa/2)^2 + Delta_c^2)) D[Jg-],  Jg- = sum g_j sm_j,
    plus local emission gamma_s D[sm_j] and the dephasing channel (see module
    docstring).  Delta_j is emitter j's detuning plus the ensemble center,
    minus ``laser_detuning`` (laser frame); ``cavity.delta_c`` is taken as
    configured.
    """
    deltas, gs, purcell = _laser_frame(ens, cavity, laser_detuning)
    check_drive(mu)
    n = len(gs)
    if 4**n > DIM_MAX:
        raise CapabilityError(f"the 2^N generator of {n} emitters has dimension 4^{n} = {4**n}, "
                              f"above DIM_MAX = {DIM_MAX}")
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
    return Liouvillian(n, h, collapse, purcell)


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------


def evolve(state0: DensityState, gen: Liouvillian, times: Sequence[float]) -> list[DensityState]:
    """ODE trajectory (DOP853 at rtol 1e-10, atol 1e-13) at the requested
    times (strictly increasing from 0).  Test oracle for
    :func:`evolve_expm`; no production path calls it."""
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
                    t_eval=t_eval, method="DOP853", rtol=1e-10, atol=1e-13)
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
    final_state: tuple[DickeBlockState, ...]


def pulsed_emission(model: SystemModel, mu: float, pulse_length: float,
                    observe_times: Sequence[float], *, use_expm: bool = True,
                    laser_detuning: float = 0.0) -> PulsedEmission:
    """Drive on for ``pulse_length`` from all-ground, then drive off, on the
    ensemble's :class:`~cavens.dicke.GroupSpace` (:func:`cavens.dicke.group_pulse`).
    ``peak_instant`` is Gamma_c <J+J-> right at pulse end; ``peak_counts``
    integrates it over the 128 ns detection window after the pulse.
    ``final_state`` holds each group's reduced pulse-end state.
    ``laser_detuning`` is subtracted from every emitter's detuning (see
    :func:`build_generator`).  ``use_expm=False`` raises ParameterError: ODE
    stepping survives only as the test oracle :func:`evolve`."""
    if not use_expm:
        raise ParameterError("pulsed_emission propagates by matrix exponentials only; "
                             "lindblad.evolve is the ODE oracle")
    times = np.asarray(observe_times, dtype=float)
    deltas, gs, purcell = _laser_frame(model.ensemble, model.cavity, laser_detuning)
    space = GroupSpace(deltas, gs)
    run = group_pulse(space, mu, model.cavity, model.decoherence, pulse_length, purcell, times)
    rows = space.rows
    obs = np.array(run.observed).reshape(len(times), space.dim)
    pop = obs @ rows["jpjm"]
    emission = EmissionTrace(times=times, jpjm=pop, individual=obs @ rows["individual"],
                             correlation=obs @ (rows["jpjm"] - rows["individual"]),
                             coherent_amp=obs @ rows["jm"], cavity_pop=purcell * pop)
    return PulsedEmission(trace=emission, peak_instant=run.peak_instant,
                          peak_counts=run.peak_counts, pulse_length=pulse_length,
                          final_state=space.reduced(run.end))


__all__ = [
    "DEPHASING_LINDBLAD_SCALE",
    "DIM_MAX",
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
]

"""Open-system dynamics of an explicit emitter list after adiabatic cavity
elimination.

:func:`build_generator` writes the many-body generator

    drho/dt = -i[H_at, rho] + L_col + L_em + L_deph

on the full 2^N space (capability-limited, N <= 8).  :func:`pulsed_emission`
propagates the same generator on the permutation-symmetric space of the
ensemble instead (:class:`GroupSpace`, :func:`group_parts`): emitters
with the same (laser-frame detuning, g) form a group, and a group of n
sites needs C(n+3, 3) real coefficients rather than 4^n.  The 2^N
generator, :func:`evolve_expm` and the ODE oracle :func:`evolve` (DOP853 on
the matrix-free generator) are the references the tests compare it with.
Propagation and the pulse protocol are the ones the block solver uses
(:func:`cavens.core.propagate`, :func:`cavens.core.pulse_protocol`).
:func:`evolve` imports ``scipy.integrate`` when called, so no production
run loads it.  States are projected onto the coupled angular-momentum
basis by :func:`dicke_projection`.

Conventions pinned by tests:

- Coherent drive amplitude per emitter is g_j sqrt(mu) (validated against a
  cavity-included oracle; see tests).
- Dephasing enters as (gamma_d / 2) sum_j (sz rho sz - rho) so that the
  single-emitter coherence decays at gamma = gamma_s/2 + gamma_d exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
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
    """Laser-frame detunings, couplings and Purcell rate 4 <g^2> / kappa of
    at most ``DEFAULT_N_MAX`` emitters."""
    expl = ens.to_explicit() if ens.is_parametric else ens
    if expl.n > DEFAULT_N_MAX:
        raise CapabilityError(f"full-space dynamics limited to {DEFAULT_N_MAX} emitters, "
                              f"got {expl.n}")
    gs = expl.couplings()
    purcell = 4.0 * float(np.mean(gs**2)) / cavity.kappa
    return expl.detunings() + expl.center - laser_detuning, gs, purcell


def _check_mu(mu: float) -> None:
    if not (mu >= 0 and math.isfinite(mu)):
        raise ParameterError(f"mu must be finite and >= 0, got {mu}")


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
    _check_mu(mu)
    n = len(gs)
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
# Permutation-symmetric group space
# ---------------------------------------------------------------------------

#: Per-site Hermitian operator basis (|e><e|, sx, sy, |g><g|); |e> is index 0.
_BASIS = np.array([[[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[0, 0], [0, 1]]])
_BASIS_NORM = np.array([1.0, 2.0, 2.0, 1.0])  # tr(B_a B_a)
_EYE = np.eye(2)
_SM_D, _SP_D, _SZ_D = (op.toarray() for op in (_SM, _SP, _SZ))


def _site(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """4x4 matrix of X -> left X right on one site, in the basis ``_BASIS``."""
    images = [left @ b @ right for b in _BASIS]
    return np.einsum("aij,bji->ab", _BASIS, images) / _BASIS_NORM[:, None]


def _dissipator(a: np.ndarray) -> np.ndarray:
    """One-site D[a] X = a X a^+ - (a^+ a X + X a^+ a) / 2."""
    ada = a.conj().T @ a
    return _site(a, a.conj().T) - 0.5 * (_site(ada, _EYE) + _site(_EYE, ada))


_L_SM, _L_SP = _site(_SM_D, _EYE), _site(_SP_D, _EYE)  # X -> sm X, X -> sp X


@lru_cache(maxsize=16)
def _occupations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupation numbers (n_e, n_x, n_y, n_g) of one group of n sites, one
    row per basis vector of its symmetric space (C(n+3, 3) rows, all-ground
    first), and the row index of each (n_e, n_x, n_y)."""
    occ = np.array([(a, b, c, n - a - b - c) for a in range(n + 1)
                    for b in range(n + 1 - a) for c in range(n + 1 - a - b)])
    index = np.full((n + 1,) * 3, -1)
    index[occ[:, 0], occ[:, 1], occ[:, 2]] = np.arange(len(occ))
    return occ, index


def _symmetric_sum(n: int, s: np.ndarray) -> sp.csr_matrix:
    """The one-site superoperator ``s`` summed over a group of n sites, on
    the group's symmetric space: S|n> = sum_b s_bb n_b |n>
    + sum_{a != b} s_ab (n_a + 1) |n - e_b + e_a>."""
    occ, index = _occupations(n)
    rows, cols, vals = [np.arange(len(occ))], [np.arange(len(occ))], [occ @ np.diag(s)]
    for a in range(4):
        for b in range(4):
            if a == b or s[a, b] == 0:
                continue
            src = np.nonzero(occ[:, b])[0]
            dst = occ[src].copy()
            dst[:, a] += 1
            dst[:, b] -= 1
            rows.append(index[dst[:, 0], dst[:, 1], dst[:, 2]])
            cols.append(src)
            vals.append(s[a, b] * dst[:, a])
    d = len(occ)
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(d, d))


class GroupSpace:
    """Kronecker product of the permutation-symmetric operator spaces of the
    emitter groups (Xu, Tieri & Holland, PRA 87, 062101 (2013)).

    Emitters with the same (laser-frame detuning, g) form one group, in the
    order of their first appearance.  A state is a real coefficient vector
    c: rho = sum_n c_n prod_groups (sum of the basis products with group
    occupations n), over the per-site basis (|e><e|, sx, sy, |g><g|).  A
    group of n sites has dimension C(n+3, 3); N distinct emitters give 4^N.
    """

    def __init__(self, deltas: np.ndarray, gs: np.ndarray):
        sites: dict = {}
        for k, key in enumerate(zip(np.asarray(deltas, float).tolist(),
                                    np.asarray(gs, float).tolist())):
            sites.setdefault(key, []).append(k)
        self.n = len(gs)
        self.groups = [(delta, g, tuple(ks)) for (delta, g), ks in sites.items()]
        self.dims = [len(_occupations(len(ks))[0]) for _, _, ks in self.groups]
        self.dim = math.prod(self.dims)

    def embed(self, k: int, s: np.ndarray) -> sp.csr_matrix:
        """``s`` summed over the sites of group k, on the whole space."""
        before, after = math.prod(self.dims[:k]), math.prod(self.dims[k + 1:])
        m = _symmetric_sum(len(self.groups[k][2]), s)
        return sp.kron(sp.kron(sp.identity(before), m), sp.identity(after), format="csr")

    def ground(self) -> np.ndarray:
        """|g...g><g...g|: occupation (0, 0, 0, n) in every group."""
        return reduce(np.kron, [np.eye(d)[0] for d in self.dims])

    def trace_row(self) -> np.ndarray:
        """tr(rho) = trace_row . c: C(n, n_e) where n_x = n_y = 0."""
        rows = []
        for _, _, ks in self.groups:
            occ, _ = _occupations(len(ks))
            pure = (occ[:, 1] == 0) & (occ[:, 2] == 0)
            rows.append(np.where(pure, [math.comb(len(ks), int(e)) for e in occ[:, 0]], 0.0))
        return reduce(np.kron, rows)

    def _columns(self) -> np.ndarray:
        """Index of c for each of the 4^N per-site basis products (site 0 is
        the most significant base-4 digit)."""
        digits = (np.arange(4**self.n)[:, None] // 4 ** np.arange(self.n - 1, -1, -1)) % 4
        col = np.zeros(4**self.n, dtype=int)
        for k, (_, _, ks) in enumerate(self.groups):
            _, index = _occupations(len(ks))
            counts = [np.count_nonzero(digits[:, list(ks)] == b, axis=1) for b in range(3)]
            col += math.prod(self.dims[k + 1:]) * index[counts[0], counts[1], counts[2]]
        return col

    def lift(self, vec: np.ndarray) -> DensityState:
        """The 2^N density matrix of a coefficient vector: each occupation
        vector expanded over its arrangements."""
        n = self.n
        x = np.asarray(vec)[self._columns()].reshape((4,) * n)
        to_entries = _BASIS.reshape(4, 4).T  # (row-major 2x2 entry, basis index)
        for k in range(n):
            x = np.moveaxis(np.tensordot(to_entries, x, axes=([1], [k])), 0, k)
        order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        return DensityState(2**n, x.reshape((2, 2) * n).transpose(order).reshape(2**n, 2**n))


def _hamiltonian_part(h: np.ndarray) -> np.ndarray:
    """One-site X -> -i[h, X] for a Hermitian h (real in the basis)."""
    return (-1j * (_site(h, _EYE) - _site(_EYE, h))).real


@dataclass(frozen=True)
class GroupParts:
    """:func:`build_generator` on a :class:`GroupSpace` as two real
    matrices, the generator at drive mu being ``base + sqrt(mu) * drive``,
    and the rows w of <J->, <J+J-> and sum_j <sp_j sm_j> = w . c."""

    base: sp.csr_matrix
    drive: sp.csr_matrix
    jm: np.ndarray
    jpjm: np.ndarray
    individual: np.ndarray


def group_parts(space: GroupSpace, cavity: CavityParams, dec: DecoherenceParams) -> GroupParts:
    """Every term is a product of one-site sums (:meth:`GroupSpace.embed`).
    The generator is real, as the Lindbladian preserves Hermiticity and the
    basis is Hermitian, so it is built from real matrices only: with
    L(Jg-) = A + iB and L(Jg+) = C + iD, the right products are
    R(Jg+) = A - iB and R(Jg-) = C - iD (X O^+ = (O X)^+), so
    D[Jg-] = AA + BB - (CA - DB) and -i[Jg+ Jg-, .] = 2 (CB + DA)."""
    dc = cavity.delta_c
    denom = (0.5 * cavity.kappa) ** 2 + dc**2
    rate = cavity.kappa / denom
    gs = [g for _, g, _ in space.groups]
    # per group: S of the real and imaginary parts of X -> sm X and X -> sp X
    lm = [(space.embed(k, _L_SM.real), space.embed(k, _L_SM.imag)) for k in range(len(gs))]
    lp = [(space.embed(k, _L_SP.real), space.embed(k, _L_SP.imag)) for k in range(len(gs))]
    a, b = (sum(g * e[i] for g, e in zip(gs, lm)) for i in (0, 1))
    c, d = (sum(g * e[i] for g, e in zip(gs, lp)) for i in (0, 1))
    base = rate * (a @ a + b @ b - c @ a + d @ b)
    if dc != 0.0:
        base = base + (2.0 * dc / denom) * (c @ b + d @ a)
    local = (dec.gamma_s * _dissipator(_SM_D)
             + DEPHASING_LINDBLAD_SCALE * dec.gamma_d * _dissipator(_SZ_D)).real
    for k, (delta, _, _) in enumerate(space.groups):
        base = base + space.embed(k, local + _hamiltonian_part(0.5 * delta * _SZ_D))
    drive_site = _hamiltonian_part(-(_SP_D + _SM_D))
    drive = sum(g * space.embed(k, drive_site) for k, g in enumerate(gs))
    # rows: <O> = tr(O rho) = trace . L(O); the unweighted L(J-) is A' + iB'
    trace = space.trace_row()
    a1, b1 = (sum(e[i] for e in lm) for i in (0, 1))
    jm_re, jm_im = a1.T @ trace, b1.T @ trace
    individual = sum(space.embed(k, _site(_SP_D @ _SM_D, _EYE).real)
                     for k in range(len(gs))).T @ trace
    base, drive = base.tocsr(), drive.tocsr()
    base.eliminate_zeros()
    drive.eliminate_zeros()
    return GroupParts(base=base, drive=drive, jm=jm_re + 1j * jm_im,
                      jpjm=a1.T @ jm_re + b1.T @ jm_im,  # trace . L(J-) R(J+)
                      individual=individual)


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
    final_state: DensityState


def pulsed_emission(model: SystemModel, mu: float, pulse_length: float,
                    observe_times: Sequence[float], *, use_expm: bool = True,
                    laser_detuning: float = 0.0) -> PulsedEmission:
    """Drive on for ``pulse_length`` from all-ground, then drive off, by
    matrix exponentials (:func:`cavens.core.pulse_protocol`) on the
    :class:`GroupSpace` of the ensemble, with :func:`group_parts`.

    ``peak_instant`` is Gamma_c <J+J-> right at pulse end; ``peak_counts``
    integrates it over the 128 ns detection window after the pulse.
    ``final_state`` is the pulse-end state lifted to the 2^N space.
    ``laser_detuning`` is subtracted from every emitter's detuning (see
    :func:`build_generator`).  ``use_expm=False`` raises ParameterError: ODE
    stepping survives only as the test oracle :func:`evolve`.
    """
    if not use_expm:
        raise ParameterError("pulsed_emission propagates by matrix exponentials only; "
                             "lindblad.evolve is the ODE oracle")
    times = np.asarray(observe_times, dtype=float)
    deltas, gs, purcell = _laser_frame(model.ensemble, model.cavity, laser_detuning)
    _check_mu(mu)
    space = GroupSpace(deltas, gs)
    parts = group_parts(space, model.cavity, model.decoherence)
    gen_on = parts.base + math.sqrt(mu) * parts.drive
    run = pulse_protocol(gen_on, parts.base, space.ground(), pulse_length, parts.jpjm,
                         purcell, times)
    obs = np.array(run.observed).reshape(len(times), space.dim)
    pop = obs @ parts.jpjm
    emission = EmissionTrace(times=times, jpjm=pop, individual=obs @ parts.individual,
                             correlation=obs @ (parts.jpjm - parts.individual),
                             coherent_amp=obs @ parts.jm, cavity_pop=purcell * pop)
    return PulsedEmission(trace=emission, peak_instant=run.peak_instant,
                          peak_counts=run.peak_counts, pulse_length=pulse_length,
                          final_state=space.lift(run.end))


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
    # a set bit is |g>, so the excitation number is n minus the popcount
    n_exc = n - np.array([bin(i).count("1") for i in range(2**n)])
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
    "GroupSpace",
    "GroupParts",
    "group_parts",
    "evolve",
    "evolve_expm",
    "PulsedEmission",
    "pulsed_emission",
    "DickeProjection",
    "dicke_projection",
    "SaturationCurves",
    "saturation_comparison",
]

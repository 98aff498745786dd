"""Open-system dynamics of an explicit emitter list after adiabatic cavity
elimination.

:func:`build_generator` writes the many-body generator

    drho/dt = -i[H_at, rho] + L_col + L_em + L_deph

on the full 2^N space.  :func:`pulsed_emission` propagates the same
generator on the permutation-symmetric space of the ensemble instead
(:class:`GroupSpace`, :func:`group_parts`): emitters with the same
(laser-frame detuning, g) form a group, and the space is the product of the
groups' Dicke block spaces (:mod:`cavens.dicke`), C(n+3, 3) real
coordinates for a group of n sites rather than 4^n.  Both are capped by
operator-space dimension, ``DIM_MAX`` = 4^8: the 2^N generator at N = 8,
the group space at 8 distinct emitters or, for example, one group of 64.
The pulse-end state stays in the group space, as each group's reduced
|J, M> block state.  The 2^N generator, :func:`evolve_expm` and the ODE
oracle :func:`evolve` (DOP853 on the matrix-free generator) are the
references the tests compare it with.  Propagation and the pulse protocol
are the ones the block solver uses (:func:`cavens.core.propagate`,
:func:`cavens.core.pulse_protocol`).  :func:`evolve` imports
``scipy.integrate`` when called, so no production run loads it.

Conventions pinned by tests:

- Coherent drive amplitude per emitter is g_j sqrt(mu) (validated against a
  cavity-included oracle; see tests).
- Dephasing enters as (gamma_d / 2) sum_j (sz rho sz - rho) so that the
  single-emitter coherence decays at gamma = gamma_s/2 + gamma_d exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
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
from .dicke import DickeBlockState, _observable_rows, block_ladder, block_parts, dicke_basis

#: Scale applied to the written dephasing form gamma_d (sz rho sz - rho);
#: 1/2 makes the single-emitter coherence decay at gamma_s/2 + gamma_d.
DEPHASING_LINDBLAD_SCALE = 0.5

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8

#: Largest operator-space dimension: 4^N of the 2^N generator, or the
#: group-space dimension of :func:`pulsed_emission` (8 distinct emitters).
DIM_MAX = 4**8


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
# Permutation-symmetric group space
# ---------------------------------------------------------------------------


class GroupSpace:
    """Kronecker product of the Dicke block spaces (:func:`dicke_basis`) of
    the emitter groups: the permutation-symmetric operator space of Xu,
    Tieri & Holland, PRA 87, 062101 (2013), in its J-block form.

    Emitters with the same (laser-frame detuning, g) form one group, in the
    order of their first appearance.  The block vector q of a Hermitian state
    is stored as the real vector r = Re q + Im q, so q = ((1 + i) r + (1 - i)
    P r) / 2 (:meth:`to_complex`), with P the transpose of every block.  A
    group of n sites has dimension C(n+3, 3); N distinct emitters give 4^N.
    A space above ``DIM_MAX`` raises :class:`CapabilityError`.
    """

    def __init__(self, deltas: np.ndarray, gs: np.ndarray):
        sites: dict = {}
        for k, key in enumerate(zip(np.asarray(deltas, float).tolist(),
                                    np.asarray(gs, float).tolist())):
            sites.setdefault(key, []).append(k)
        self.n = len(gs)
        self.groups = [(delta, g, tuple(ks)) for (delta, g), ks in sites.items()]
        bases = [dicke_basis(len(ks)) for _, _, ks in self.groups]
        self.dims = [int(b.offsets[-1]) for b in bases]
        self.dim = math.prod(self.dims)
        if self.dim > DIM_MAX:  # a parametric line of N ions gives N groups, so keep it short
            sizes = ", ".join(f"{count} of size {size}" for size, count
                              in Counter(len(ks) for _, _, ks in self.groups).items())
            dim = self.dim if self.dim < 10**15 else f"about 10^{math.log10(self.dim):.0f}"
            raise CapabilityError(f"the group space of {len(self.groups)} groups ({sizes}) has "
                                  f"dimension {dim}, above DIM_MAX = {DIM_MAX}")
        transposes = [np.concatenate([lo + np.arange(d * d).reshape(d, d).T.reshape(-1)
                                      for lo, d in zip(b.offsets[:-1], b.dims)]) for b in bases]
        self.transpose = reduce(lambda a, b: (a[:, None] * len(b) + b).reshape(-1), transposes)

    def embed(self, ops: dict) -> sp.csr_matrix:
        """The Kronecker product of ``ops[k]`` over the groups k, with the
        identity for every group not in ``ops``."""
        return reduce(lambda a, b: sp.kron(a, b, format="csr"),
                      [ops.get(k, sp.identity(d)) for k, d in enumerate(self.dims)])

    def to_complex(self, x: np.ndarray) -> np.ndarray:
        """The block vector q of real coordinates r, or the row w with
        w . r = x . q of a block-vector row x (the same map)."""
        return 0.5 * ((1 + 1j) * x + (1 - 1j) * x[self.transpose])

    def ground(self) -> np.ndarray:
        """|g...g><g...g|: the m = -n/2 population of every group's top block."""
        return reduce(np.kron, [DickeBlockState.all_ground(len(ks)).to_vec().real
                                for _, _, ks in self.groups])

    def reduced(self, vec: np.ndarray) -> tuple[DickeBlockState, ...]:
        """Each group's reduced state, in ``groups`` order: the block vector
        q with every other group's axis contracted against that group's
        ``trace`` observable row."""
        x = self.to_complex(np.asarray(vec)).reshape(self.dims)
        traces = [_observable_rows(len(ks))["trace"] for _, _, ks in self.groups]
        others = [reduce(np.kron, traces[:k] + traces[k + 1:], np.ones(1)) for k in range(len(traces))]
        return tuple(DickeBlockState.from_vec(len(ks), np.moveaxis(x, k, 0).reshape(d, -1) @ rest)
                     for k, ((_, _, ks), d, rest) in enumerate(zip(self.groups, self.dims, others)))


@dataclass(frozen=True)
class GroupParts:
    """:func:`build_generator` on a :class:`GroupSpace` as two real
    matrices, the generator at drive mu being ``base + sqrt(mu) * drive``,
    and the rows w of <J->, <J+J-> and sum_j <sp_j sm_j> = w . r."""

    base: sp.csr_matrix
    drive: sp.csr_matrix
    jm: np.ndarray
    jpjm: np.ndarray
    individual: np.ndarray


def group_parts(space: GroupSpace, cavity: CavityParams, dec: DecoherenceParams) -> GroupParts:
    """Each group's terms are its :func:`block_parts` (l0 + detuning * lz,
    g * ld).  With Jg- = sum_k g_k J-_k, the cross-group parts of
    (kappa / denom) D[Jg-] - i (Delta_c / denom) [Jg+ Jg-, .] are, for each
    ordered pair k != l, g_k g_l times (kappa / denom) (L(J-_k) R(J+_l)
    - L(J+_l) L(J-_k) / 2 - R(J-_k) R(J+_l) / 2) - i (Delta_c / denom)
    (L(J+_l) L(J-_k) - R(J-_k) R(J+_l)), with L(A) q = A q and
    R(A) q = q A (:func:`block_ladder`).  The complex generator L acts on
    the real coordinates as Re L + Im L P."""
    denom = (0.5 * cavity.kappa) ** 2 + cavity.delta_c**2
    rate, exch = cavity.kappa / denom, cavity.delta_c / denom
    parts = [block_parts(len(ks), g, cavity, dec) for _, g, ks in space.groups]
    obs = [bp.observables for bp in parts]
    gs = [g for _, g, _ in space.groups]
    pairs = list(itertools.permutations(range(len(gs)), 2))
    ladders = [block_ladder(len(ks)) for _, _, ks in space.groups] if pairs else []

    def real(m: sp.csr_matrix) -> sp.csr_matrix:
        """A term of L as it acts on the real coordinates."""
        return (m.real + m.imag[:, space.transpose]).tocsr()

    base = sum(real(space.embed({k: bp.l0 + delta * bp.lz}))
               for k, ((delta, _, _), bp) in enumerate(zip(space.groups, parts)))
    for k, l in pairs:
        lm, rm, lp, rp = ladders[k]["lm"], ladders[k]["rm"], ladders[l]["lp"], ladders[l]["rp"]
        base = base + real(gs[k] * gs[l] * (
            space.embed({k: lm, l: rate * rp - (0.5 * rate + 1j * exch) * lp})
            + space.embed({k: rm, l: (1j * exch - 0.5 * rate) * rp})))
    drive = sum(real(g * space.embed({k: bp.ld})) for k, (g, bp) in enumerate(zip(gs, parts)))
    base.eliminate_zeros()
    drive.eliminate_zeros()

    def row(terms: list) -> np.ndarray:
        """The real-coordinate row of the sum over ``terms`` of the
        products of their per-group rows (the trace for groups left out)."""
        return space.to_complex(sum(reduce(np.kron, [t.get(k, o["trace"]) for k, o in enumerate(obs)])
                                    for t in terms))

    each = {name: [{k: o[name]} for k, o in enumerate(obs)] for name in ("jm", "jpjm", "individual")}
    cross = [{k: obs[k]["jm"], l: obs[l]["jp"]} for k, l in pairs]  # <J+_l J-_k>
    return GroupParts(base=base, drive=drive, jm=row(each["jm"]),
                      jpjm=row(each["jpjm"] + cross).real,
                      individual=row(each["individual"]).real)


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
    """Drive on for ``pulse_length`` from all-ground, then drive off, by
    matrix exponentials (:func:`cavens.core.pulse_protocol`) on the
    :class:`GroupSpace` of the ensemble, with :func:`group_parts`.

    ``peak_instant`` is Gamma_c <J+J-> right at pulse end; ``peak_counts``
    integrates it over the 128 ns detection window after the pulse.
    ``final_state`` holds each group's reduced pulse-end state
    (:meth:`GroupSpace.reduced`).
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
    "GroupSpace",
    "GroupParts",
    "group_parts",
    "evolve",
    "evolve_expm",
    "PulsedEmission",
    "pulsed_emission",
]

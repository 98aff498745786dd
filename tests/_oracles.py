"""Brute-force oracles kept out of the production package.

The cavity-included model retains a truncated photon space and the raw
(un-eliminated) Hamiltonian and dissipators; it pins down the adiabatic
drive amplitude convention.  The damped-Picard continuation solves the
self-consistent ensemble response by a route independent of the package's
bracketed Newton, and is the reference the Newton spectra are checked
against.  The mean-field ODE integrates the factorized equations of motion
into their steady state, a third route to the same response.  The
full-space emission pulse propagates the 2^N generator, the reference for
the group space of ``lindblad.pulsed_emission``, and :func:`lift` maps
group-space vectors to 2^N density matrices.  :func:`block_pulse` sets up
one pulse of identical emitters straight from ``dicke.block_parts``, the
reference for their one-group case of ``dicke.group_pulse``.
:func:`complex_drive_off` sums a group space's complex drive-off generator
term by term, the reference for ``dicke.group_generator``, and
:func:`split_space` splits equal emitters into several groups.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import root

from cavens import meanfield
from cavens.core import PEAK_WINDOW, ParameterError, pulse_protocol
from cavens.dicke import (DickeBlockState, GroupSpace, _observable_rows, block_ladder, block_parts,
                          dicke_basis, real_generator, spin_block, to_complex)
from cavens.lindblad import (
    DensityState,
    IntegrationError,
    build_generator,
    collective_operators,
    evolve_expm,
)


def _saturation_scale(resp):
    """Largest saturation coefficient of a one-row response at mu = 1, t = 1."""
    if resp.gamma_s <= 0 or resp.gamma <= 0:
        return math.inf
    peak = float(np.max(resp.sat)) if resp.sat.size else 0.0
    if resp.parametric:
        peak /= resp.gamma**2  # the explicit kind's sat for an emitter at zero detuning
    return peak * resp.mu_scale.item()


def picard_x(resp, mu, *, tol=1e-10, max_iter=10_000, relaxation=0.5, steps_per_decade=10):
    """x on a one-row ``meanfield._Response`` by damped Picard iteration with
    geometric continuation in mu: start from the weak-excitation solution,
    step mu up by 10^(1/steps_per_decade), relaxing x <- (1-a) x + a F(x)
    until |dx| < tol (1 + |x|) at each step."""
    x = complex(resp.x_of_t(0.0, 1.0)[0])
    if mu == 0:
        return x
    if resp.gamma_s == 0:
        # no relaxation closure: any finite drive fully saturates, sigma_z -> 0
        return complex(0.0)
    sat = _saturation_scale(resp)
    mu_start = min(mu, 1e-3 / sat) if sat > 0 else mu
    n_steps = max(1, math.ceil(steps_per_decade * math.log10(mu / mu_start))) if mu > mu_start else 1
    mus = np.geomspace(mu_start, mu, n_steps + 1) if mu > mu_start else np.array([mu])
    for mu_k in mus:
        residual = math.inf
        for _ in range(max_iter):
            xn = complex(resp.x_of_t(mu_k, abs(1.0 + x) ** 2)[0])
            residual = abs(xn - x)
            x = (1.0 - relaxation) * x + relaxation * xn
            if residual < tol * (1.0 + abs(x)):
                break
        else:
            raise meanfield.SelfConsistencyError(
                f"no convergence after {max_iter} iterations at mu={mu_k:.3e}",
                offset=resp.offset.item(), method="picard", residual=residual)
    return x


def picard_reflection(ens, mu, grid, cavity, dec):
    """r at each laser detuning of ``grid`` (from the ensemble center), with
    x from :func:`picard_x` point by point; the cavity-laser detuning is
    tracked as in ``meanfield.reflection_spectrum``."""
    freqs = np.asarray(grid, dtype=float)
    dc = cavity.delta_c - freqs
    resp = meanfield._Response(ens, freqs, cavity, dec, dc)
    x = np.array([picard_x(resp.rows([i]), mu) for i in range(len(freqs))])
    return meanfield.reflection_from_x(x, cavity, delta_c=dc)[0]


@dataclass(frozen=True)
class MeanFieldSteadyState:
    x: complex
    a_field: complex
    r_complex: complex
    sigma_minus: np.ndarray
    sigma_z: np.ndarray


def mean_field_ode_steady_state(ens, mu, omega_l, cavity, dec):
    """Integrate the factorized (mean-field) equations of motion from the
    ground state into the steady-state basin, in at most 64 chunks of 8
    relaxation times, then polish the fixed point by root-finding on the full equation
    set; independent route to the self-consistent response x.  Stationary
    once every rate is below 1e-9 of the relaxation rate (times sqrt(mu)
    when that exceeds 1)."""
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
    threshold = 1e-9 * rate * scale
    resid = math.inf
    for _ in range(64):
        sol = solve_ivp(rhs, (0.0, chunk), y, method="DOP853", rtol=1e-10, atol=1e-12,
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
            f"mean-field ODE not stationary after 64 chunks (residual {resid:.3e})")
    sm = y[:n] + 1j * y[n:2 * n]
    sz = y[2 * n:]
    a = a_of(sm)
    x = drive / ((1j * dc + 0.5 * kap) * a) - 1.0
    r = 1.0 + 2.0 * cavity.kappa_c * a / (kap * math.sqrt(mu))
    return MeanFieldSteadyState(x=complex(x), a_field=complex(a), r_complex=complex(r),
                                sigma_minus=sm, sigma_z=sz)


def _kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def cavity_included_trajectory(n_emitters, g, mu, kappa, gamma_s, gamma_d, deltas,
                               times, n_photons=4, delta_c=0.0):
    """<sigma_z>(t) per emitter for the full cavity+emitter master equation.

    Drive normalization: sqrt(kappa_c) A_in = (kappa/2) sqrt(mu); dephasing
    uses the (gamma_d/2)(sz rho sz - rho) convention.
    """
    dim_c = n_photons + 1
    a_c = sp.diags(np.sqrt(np.arange(1, dim_c)), 1, format="csr")
    id_c = sp.identity(dim_c, format="csr")
    sm = sp.csr_matrix(np.array([[0, 0], [1, 0]], dtype=complex))
    sz = sp.csr_matrix(np.diag([1.0, -1.0]).astype(complex))
    id_q = sp.identity(2, format="csr")

    def emb_cavity(op):
        return _kron_all([op] + [id_q] * n_emitters)

    def emb_spin(op, k):
        return _kron_all([id_c] + [op if j == k else id_q for j in range(n_emitters)])

    a_full = emb_cavity(a_c)
    h = delta_c * (a_full.conj().T @ a_full)
    for k in range(n_emitters):
        h = h + 0.5 * deltas[k] * emb_spin(sz, k)
        h = h + g * (a_full.conj().T @ emb_spin(sm, k) + emb_spin(sm.conj().T.tocsr(), k) @ a_full)
    drive = 0.5 * kappa * math.sqrt(mu)
    h = h + (-1j) * drive * (a_full.conj().T - a_full)

    collapse = [(kappa, a_full)]
    for k in range(n_emitters):
        if gamma_s > 0:
            collapse.append((gamma_s, emb_spin(sm, k)))
        if gamma_d > 0:
            collapse.append((0.5 * gamma_d, emb_spin(sz, k)))

    dim = dim_c * 2**n_emitters
    eye = sp.identity(dim, format="csr", dtype=complex)
    lv = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for rate, op in collapse:
        ada = (op.conj().T @ op).tocsr()
        lv = lv + rate * (sp.kron(op, op.conj()) - 0.5 * sp.kron(ada, eye)
                          - 0.5 * sp.kron(eye, ada.T))
    lv = lv.toarray()

    rho = np.zeros((dim, dim), dtype=complex)
    ground_idx = 2**n_emitters - 1  # zero photons, all emitters |g>
    rho[ground_idx, ground_idx] = 1.0
    vec = rho.reshape(-1)
    sz_ops = [emb_spin(sz, k).toarray() for k in range(n_emitters)]
    out = np.empty((len(times), n_emitters))
    t_prev = 0.0
    for i, t in enumerate(times):
        if t > t_prev:
            vec = expm(lv * (t - t_prev)) @ vec
            t_prev = t
        rho_t = vec.reshape(dim, dim)
        for k in range(n_emitters):
            out[i, k] = np.trace(sz_ops[k] @ rho_t).real
    return out


def full_space_emission(model, mu, pulse, times, laser_detuning=0.0):
    """lindblad.pulsed_emission's trace columns and peaks from the 2^N
    generator (build_generator) and evolve_expm: the full-space reference
    for its permutation-symmetric group space."""
    ens, cav, dec = model.ensemble, model.cavity, model.decoherence
    n = ens.n
    gen_on = build_generator(ens, mu, cav, dec, laser_detuning=laser_detuning)
    gen_off = build_generator(ens, 0.0, cav, dec, laser_detuning=laser_detuning)
    ops = collective_operators(n)
    during = times <= pulse
    on = evolve_expm(DensityState.ground(n), gen_on, np.append(times[during], pulse))
    states = on[:-1] + evolve_expm(on[-1], gen_off, times[~during] - pulse)
    window = np.linspace(0.0, PEAK_WINDOW, 9)
    window_states = [on[-1]] + evolve_expm(on[-1], gen_off, window[1:])
    counts = [s.expect(ops["jpjm"]).real for s in window_states]
    jpjm = np.array([s.expect(ops["jpjm"]).real for s in states])
    jm = np.array([s.expect(ops["jm"]) for s in states])
    columns = {"jpjm": jpjm,
               "individual": np.array([s.expect(ops["individual"]).real for s in states]),
               "correlation": np.array([s.expect(ops["correlation"]).real for s in states]),
               "coherent_real": jm.real, "coherent_imag": jm.imag,
               "cavity_pop": gen_on.purcell * jpjm}
    return columns, gen_on.purcell * counts[0], gen_on.purcell * np.trapezoid(counts, window)


def block_pulse(n, g, mu, cavity, dec, pulse, detuning=0.0, compute_counts=True):
    """``dicke.pulsed_block_emission``'s pulse, set up from the block parts
    alone: l0 + detuning lz + g sqrt(mu) ld and l0 in real coordinates, the
    window on the populations (m = m'), the J+J- row and Gamma_c = 4 g^2 /
    kappa.  Returns the ``core.PulseRun``."""
    parts, basis = block_parts(n, g, cavity, dec), dicke_basis(n)
    on = parts.l0
    if detuning:
        on = on + detuning * parts.lz
    if mu:
        on = on + (g * math.sqrt(mu)) * parts.ld
    pops = np.concatenate([lo + np.arange(d) * (d + 1)
                           for lo, d in zip(basis.offsets[:-1], basis.dims)])
    off = real_generator(parts.l0, basis.transpose)
    return pulse_protocol(real_generator(on, basis.transpose), off,
                          DickeBlockState.all_ground(n).vec, pulse, _observable_rows(n)["jpjm"].real.copy(),
                          parts.purcell, compute_counts=compute_counts,
                          off_window=(pops, off[pops][:, pops]))


def complex_drive_off(space, cavity, dec):
    """The complex drive-off generator of a ``dicke.GroupSpace``, in the
    arithmetic of the sum that ``dicke._drive_off`` maps to the real
    coordinates: each group's l0 + detuning lz, and for each ordered pair
    k != l of groups g_k g_l ((kappa / denom) (L(J-_k) R(J+_l) - L(J+_l)
    L(J-_k) / 2 - R(J-_k) R(J+_l) / 2) - i (Delta_c / denom) (L(J+_l)
    L(J-_k) - R(J-_k) R(J+_l))), with L(A) q = A q and R(A) q = q A."""
    terms = []
    for k, (delta, g, ks) in enumerate(space.groups):
        parts = block_parts(len(ks), g, cavity, dec)
        terms.append(space.embed({k: parts.l0 + delta * parts.lz if delta else parts.l0}))
    denom = (0.5 * cavity.kappa) ** 2 + cavity.delta_c**2
    rate, exch = cavity.kappa / denom, cavity.delta_c / denom
    for k, l in itertools.permutations(range(len(space.groups)), 2):
        (_, g_k, ks), (_, g_l, ls) = space.groups[k], space.groups[l]
        ladder_k, ladder_l = block_ladder(len(ks)), block_ladder(len(ls))
        terms.append(g_k * g_l * (
            space.embed({k: ladder_k["lm"], l: rate * ladder_l["rp"] - (0.5 * rate + 1j * exch) * ladder_l["lp"]})
            + space.embed({k: ladder_k["rm"], l: (1j * exch - 0.5 * rate) * ladder_l["rp"]})))
    return sum(terms[1:], terms[0])


def split_space(delta, g, sizes):
    """A ``dicke.GroupSpace`` of sum(sizes) emitters of equal (delta, g),
    split into groups of ``sizes`` sites.  The constructor merges equal
    emitters, so the split is built from distinct placeholder detunings and
    every group then gets (delta, g)."""
    space = GroupSpace(np.repeat(np.arange(len(sizes), dtype=float), sizes),
                       np.full(sum(sizes), g))
    space.groups = tuple((delta, g, ks) for _, _, ks in space.groups)
    return space


def lift(space, vec):
    """The 2^N density matrix of a ``dicke.GroupSpace`` vector: each
    group's blocks q_J expanded as sum_copies sum_{m, m'} q_J[m, m']
    |J m><J m'| on its sites."""
    x = to_complex(np.asarray(vec), space.transpose).reshape(space.dims)
    for _, _, ks in space.groups:  # the leading axis becomes trailing (row, column) axes
        basis = dicke_basis(len(ks))
        x = sum(np.einsum("icm,mn...,jcn->...ij", states,
                          x[lo:hi].reshape((d, d) + x.shape[1:]), states)
                for lo, hi, d, states in zip(basis.offsets[:-1], basis.offsets[1:],
                                             basis.dims, _dicke_states(len(ks))))
    groups = len(space.groups)
    x = x.transpose(list(range(0, 2 * groups, 2)) + list(range(1, 2 * groups, 2)))
    sites = np.argsort([s for _, _, ks in space.groups for s in ks])  # qubit axis of each site
    x = x.reshape((2,) * (2 * space.n)).transpose(np.concatenate([sites, sites + space.n]))
    return DensityState(2**space.n, x.reshape(2**space.n, 2**space.n))


@lru_cache(maxsize=16)
def _dicke_states(n):
    """Per J block of ``dicke_basis``: the states |J, m> of n sites, one
    column per (copy, m), shape (2^n, d_n(J), 2J+1).  The copies at m = J
    span the null space of J+ there, and each descends by J- with the
    phases of ``spin_block``."""
    index = np.arange(2**n)
    jm = np.zeros((2**n, 2**n))  # a set bit is |g>; site 0 is the most significant
    for k in range(n):
        excited = index[index & (1 << (n - 1 - k)) == 0]
        jm[excited | (1 << (n - 1 - k)), excited] = 1.0
    basis, out = dicke_basis(n), []
    for j, copies in zip(basis.j_values, basis.degeneracies):
        sector = np.flatnonzero(np.bitwise_count(index) == round(n / 2.0 - j))  # m = J
        top = np.zeros((2**n, copies))
        top[sector] = np.linalg.svd(jm.T[:, sector])[2][len(sector) - copies:].T
        ladder = [top]
        for m in spin_block(j)["m"][:-1]:
            ladder.append(jm @ ladder[-1] / math.sqrt((j + m) * (j - m + 1.0)))
        out.append(np.stack(ladder, axis=2))
    return out

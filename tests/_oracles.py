"""Brute-force oracles kept out of the production package.

The cavity-included model retains a truncated photon space and the raw
(un-eliminated) Hamiltonian and dissipators; it pins down the adiabatic
drive amplitude convention.  The damped-Picard continuation solves the
self-consistent ensemble response by a route independent of the package's
bracketed Newton, and is the reference the Newton spectra are checked
against.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from cavens import meanfield


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

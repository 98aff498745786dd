"""Reference computations made apart from the solvers under test.

Mean-field reflection: the self-consistent ensemble response x depends on
itself only through the intracavity photon number n = mu_eff / t with
t = |1 + x|^2, so each frequency point is one real root of
h(t) = t - |1 + x(t)|^2.  Here x(t) is summed directly over an explicit
emitter list, or integrated by adaptive quadrature over a Lorentzian line,
and the root is bracketed on a log grid (which also counts the roots) and
refined with Brent's method.  The solvers under test use a residue closed
form with Picard continuation, and a finite-difference Newton iteration.

Full-space dynamics: Krylov propagation (``expm_multiply``) of a density
matrix under a sparse superoperator, with collective operators built here
from dense Kronecker products.

All rates are angular (rad/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import integrate, optimize
from scipy.constants import hbar
from scipy.sparse.linalg import expm_multiply

TWO_PI = 2.0 * math.pi
ROOT_SCAN_POINTS = 240  # log-grid points on which h(t) is scanned for sign changes


@dataclass(frozen=True)
class MeanFieldModel:
    """Cavity (total decay ``kappa``, input coupling ``kappa_c``, resonant
    with the ensemble center) and emitter decoherence (population decay
    ``gamma_s``, excess dephasing ``gamma_d``)."""

    kappa: float
    kappa_c: float
    gamma_s: float
    gamma_d: float

    @property
    def gamma(self) -> float:
        """Coherence decay rate of one emitter."""
        return 0.5 * self.gamma_s + self.gamma_d

    def point(self, laser: float) -> tuple[complex, float]:
        """(kappa_eff, n_scale) at laser detuning ``laser`` from the center:
        the cavity denominator kappa - 2i laser, and the factor with which
        the intracavity photon number n = |<a>|^2 = n_scale * mu / |1 + x|^2."""
        return self.kappa - 2j * laser, 1.0 / (1.0 + (2.0 * laser / self.kappa) ** 2)

    def reflection(self, x: complex, laser: float) -> complex:
        kappa_eff, _ = self.point(laser)
        return 1.0 - 2.0 * self.kappa_c / (kappa_eff * (1.0 + x))


def power_for_mu(mu: float, kappa: float, kappa_c: float, omega: float) -> float:
    """Input power (W) giving the resonant bare-cavity photon number mu."""
    return mu * (0.5 * kappa) ** 2 * hbar * omega / kappa_c


def cit_width(mu: float, n: int, g: float, delta_inh: float, model: MeanFieldModel) -> float:
    """The paper's transparency FWHM (Delta_inh / C) / (1 - C sqrt(gamma_s gamma / 4 g^2 mu))
    for uniform coupling g, with C = 4 N g^2 / (kappa Delta_inh)."""
    coop = 4.0 * n * g**2 / (model.kappa * delta_inh)
    b = coop * math.sqrt(model.gamma_s * model.gamma / (4.0 * g**2 * mu))
    return (delta_inh / coop) / (1.0 - b)


def lorentzian_quantiles(n: int, delta_inh: float) -> np.ndarray:
    """Detunings at the medians of n equal-probability bins of a Lorentzian
    of FWHM ``delta_inh`` centred at zero."""
    q = (np.arange(n) + 0.5) / n
    return 0.5 * delta_inh * np.tan(math.pi * (q - 0.5))


def solve_t(h, t_scale: float) -> list[float]:
    """Every root of h(t) = t - |1 + x(t)|^2 on t > 0.

    h tends to -1 as t -> 0 (full saturation, x -> 0) and to +inf as
    t -> inf, so the roots lie in a finite bracket: it is widened until h
    is positive at its top, scanned on a log grid for sign changes, and
    each change is refined with Brent's method."""
    hi = 4.0 * max(1.0, t_scale)
    while h(hi) <= 0.0:
        hi *= 4.0
    grid = np.geomspace(1e-12 * hi, hi, ROOT_SCAN_POINTS)
    vals = np.array([h(t) for t in grid])
    if vals[0] >= 0.0:
        raise ArithmeticError("h(t) is not negative at the bottom of the bracket")
    roots = []
    for k in np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]:
        roots.append(optimize.brentq(h, grid[k], grid[k + 1], xtol=1e-300, maxiter=500))
    return roots


@dataclass(frozen=True)
class SolvedPoint:
    r: complex
    n_roots: int


def _finish(model: MeanFieldModel, x_of_t, laser: float) -> SolvedPoint:
    t_weak = abs(1.0 + x_of_t(math.inf)) ** 2
    roots = solve_t(lambda t: t - abs(1.0 + x_of_t(t)) ** 2, t_weak)
    # the weak-excitation-connected branch is the largest-t root
    x = x_of_t(max(roots))
    return SolvedPoint(r=model.reflection(x, laser), n_roots=len(roots))


def direct_sum_point(model: MeanFieldModel, detunings: np.ndarray, couplings: np.ndarray,
                     mu: float, laser: float) -> SolvedPoint:
    """Self-consistent reflection at one laser detuning, summing the
    saturated Bloch response of each emitter:

    x = sum_j (2 g_j^2 / kappa_eff) (gamma - i D_j) / (gamma^2 + D_j^2 + 4 g_j^2 n gamma / gamma_s),

    D_j = emitter minus laser detuning, n = n_scale mu / t."""
    kappa_eff, n_scale = model.point(laser)
    dev = np.asarray(detunings, dtype=float) - laser
    g2 = np.asarray(couplings, dtype=float) ** 2
    gam = model.gamma
    pref = 2.0 * g2 / kappa_eff
    sat = 4.0 * g2 * gam / model.gamma_s

    def x_of_t(t: float) -> complex:
        y = sat * (n_scale * mu / t)
        return complex(np.sum(pref * (gam - 1j * dev) / (gam**2 + dev**2 + y)))

    return _finish(model, x_of_t, laser)


def lorentzian_line_point(model: MeanFieldModel, n: int, g: float, delta_inh: float,
                          mu: float, laser: float) -> SolvedPoint:
    """As :func:`direct_sum_point` for N emitters of coupling g spread on a
    Lorentzian line of FWHM ``delta_inh``: the sum becomes N times an
    integral over the line, done by adaptive quadrature in the variable
    theta = atan(2 w / delta_inh), in which the line has uniform weight
    1/pi, with a breakpoint at the laser."""
    kappa_eff, n_scale = model.point(laser)
    half = 0.5 * delta_inh
    gam = model.gamma
    pref = n * 2.0 * g**2 / kappa_eff
    theta_l = math.atan(laser / half)
    lo, hi = -0.5 * math.pi, 0.5 * math.pi

    def integral(y: float) -> complex:
        def re(th):
            d = half * math.tan(th) - laser
            return gam / (gam**2 + y + d * d)

        def im(th):
            d = half * math.tan(th) - laser
            return -d / (gam**2 + y + d * d)

        opts = dict(epsabs=0.0, epsrel=1e-12, limit=400)
        parts = [integrate.quad(f, a, b, **opts)[0]
                 for f in (re, im) for a, b in ((lo, theta_l), (theta_l, hi))]
        return complex(parts[0] + parts[1], parts[2] + parts[3]) / math.pi

    def x_of_t(t: float) -> complex:
        y = 4.0 * g**2 * gam * n_scale * mu / (model.gamma_s * t)
        return pref * integral(y)

    return _finish(model, x_of_t, laser)


# ---------------------------------------------------------------------------
# Full-space dynamics
# ---------------------------------------------------------------------------


def collective_ops(n: int) -> dict:
    """Dense J-, J+J- and the summed single-site excitation for n two-level
    emitters; |e> is basis state 0 and site 0 is the most significant."""
    sm = np.array([[0.0, 0.0], [1.0, 0.0]])
    eye = np.eye(2)

    def site(op, k):
        return reduce(np.kron, [op if i == k else eye for i in range(n)])

    jm = sum(site(sm, k) for k in range(n))
    ind = sum(site(sm.T @ sm, k) for k in range(n))
    return {"jm": jm, "jpjm": jm.T @ jm, "individual": ind}


def ground_vec(n: int) -> np.ndarray:
    """Row-major vec of the all-ground density matrix (every site in |g>)."""
    d = 2**n
    v = np.zeros(d * d, dtype=complex)
    v[d * d - 1] = 1.0
    return v


def propagate(superop, vec: np.ndarray, t: float) -> np.ndarray:
    """exp(L t) vec by Krylov propagation (Al-Mohy and Higham)."""
    return expm_multiply(superop * t, vec)


def expect(op: np.ndarray, vec: np.ndarray) -> complex:
    d = op.shape[0]
    return complex(np.trace(op @ vec.reshape(d, d)))

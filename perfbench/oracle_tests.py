"""The benchmark's oracles against closed forms.

Run from the repository root:

    python3 -m pytest -q perfbench/oracle_tests.py

(The file name keeps these tests out of the package's own test run.)
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
from oracles import TWO_PI  # noqa: E402

MODEL = oracles.MeanFieldModel(kappa=TWO_PI * 44e9, kappa_c=TWO_PI * 8.8e9,
                               gamma_s=TWO_PI * 600.0, gamma_d=TWO_PI * 6000.0)


def weak_line_reflection(model, n, g, delta_inh, laser):
    """r = 1 - i kappa_c / (w + i kappa/2 - W) for a cavity at the line center, with the line's
    weak-excitation response W = N g^2 / (w - w0 + i (gamma + Delta_inh/2))."""
    w = n * g**2 / (laser + 1j * (model.gamma + 0.5 * delta_inh))
    return 1.0 - 1j * model.kappa_c / (laser + 0.5j * model.kappa - w)


@pytest.mark.parametrize("laser_mhz", [0.0, 0.7, -12.0, 45.0, 90.0])
@pytest.mark.parametrize("mu", [0.0, 1e-22])
def test_quadrature_weak_limit(laser_mhz, mu):
    n, delta_inh = 1000, TWO_PI * 150e6
    g = math.sqrt(12.0 * MODEL.kappa * delta_inh / (4.0 * n))
    laser = TWO_PI * laser_mhz * 1e6
    got = oracles.lorentzian_line_point(MODEL, n, g, delta_inh, mu, laser)
    assert got.n_roots == 1
    assert abs(got.r - weak_line_reflection(MODEL, n, g, delta_inh, laser)) < 1e-10


def resonant_reflection(model, n, g, mu):
    """N identical emitters at the laser frequency, cavity on resonance.

    x = a t / (t + B) with a = 2 N g^2 / (kappa gamma) and B = 4 g^2 mu / (gamma_s gamma);
    with u = sqrt(t) = 1 + x, u^3 - (1 + a) u^2 + B u - B = 0, whose largest
    root is the weakly driven branch."""
    a = 2.0 * n * g**2 / (model.kappa * model.gamma)
    b = 4.0 * g**2 * mu / (model.gamma_s * model.gamma)
    roots = np.roots([1.0, -(1.0 + a), b, -b])
    u = max(r.real for r in roots if abs(r.imag) < 1e-9 * abs(r) and r.real > 0)
    x = a * u**2 / (u**2 + b)
    return 1.0 - 2.0 * model.kappa_c / (model.kappa * (1.0 + x))


@pytest.mark.parametrize("mu", [1e-9, 1e-7, 1e-5, 1e-3, 1e-1])
@pytest.mark.parametrize("n", [1, 7])
def test_direct_sum_saturated_emitters(mu, n):
    g = TWO_PI * 30e6
    got = oracles.direct_sum_point(MODEL, np.zeros(n), np.full(n, g), mu, 0.0)
    ref = resonant_reflection(MODEL, n, g, mu)
    assert abs(got.r - ref) < 1e-12 * max(1.0, abs(ref))


def test_direct_sum_saturates_to_bare_cavity():
    got = oracles.direct_sum_point(MODEL, np.zeros(3), np.full(3, TWO_PI * 30e6), 1e12, 0.0)
    assert abs(got.r - (1.0 - 2.0 * MODEL.kappa_c / MODEL.kappa)) < 1e-9


def test_lorentzian_quantiles_are_bin_medians():
    n, fwhm = 1000, 2.0
    d = oracles.lorentzian_quantiles(n, fwhm)
    cdf = 0.5 + np.arctan(2.0 * d / fwhm) / math.pi
    assert np.allclose(cdf, (np.arange(n) + 0.5) / n, rtol=0.0, atol=1e-14)


def test_cit_width_floor():
    n, delta_inh, g = 1000, TWO_PI * 150e6, TWO_PI * 140.7e6
    coop = 4.0 * n * g**2 / (MODEL.kappa * delta_inh)
    assert oracles.cit_width(1e30, n, g, delta_inh, MODEL) == pytest.approx(delta_inh / coop,
                                                                           rel=1e-12)


def test_collective_ops():
    ops = oracles.collective_ops(2)
    ee = np.zeros(4)
    ee[0] = 1.0
    assert ee @ ops["jpjm"] @ ee == pytest.approx(2.0)
    assert ee @ ops["individual"] @ ee == pytest.approx(2.0)
    rho0 = oracles.ground_vec(2).reshape(4, 4)
    assert oracles.expect(ops["individual"], rho0.reshape(-1)) == 0.0
    assert np.trace(rho0) == 1.0


def _one_emitter(g):
    from cavens.core import CavityParams, DecoherenceParams, EmitterEnsemble, SystemModel

    cavity = CavityParams.from_hz(44e9, 8.8e9)
    dec = DecoherenceParams.from_hz(6000.0, 600.0)
    return SystemModel(cavity, dec, EmitterEnsemble.explicit([(0.0, g)]))


def test_krylov_free_decay():
    """An excited emitter with the drive off decays at gamma_s + 4 g^2 / kappa."""
    from cavens import lindblad

    g = TWO_PI * 35e6
    model = _one_emitter(g)
    gen = lindblad.build_generator(model.ensemble, 0.0, model.cavity, model.decoherence)
    excited = np.zeros(4, dtype=complex)
    excited[0] = 1.0
    rate = model.decoherence.gamma_s + 4.0 * g**2 / model.cavity.kappa
    ops = oracles.collective_ops(1)
    for t in (1e-7, 1e-6, 5e-6):
        got = oracles.expect(ops["jpjm"], oracles.propagate(gen.superoperator(), excited, t))
        assert got.real == pytest.approx(math.exp(-rate * t), rel=1e-9)


@pytest.mark.parametrize("mu", [1e-6, 1e-4, 1e-2])
def test_full_space_pulse_steady_state(mu):
    """The full-space solver the S-curve check uses, on one emitter driven
    long enough to reach the closed-form steady state of the optical Bloch
    equations: H = -g sqrt(mu) (s+ + s-), population decay Gamma = gamma_s +
    4 g^2 / kappa, coherence decay Gamma/2 + gamma_d, and
    rho_ee = (4 W^2 g_p / Gamma) / (2 g_p^2 + 8 W^2 g_p / Gamma), W = g sqrt(mu)."""
    from cavens import lindblad

    g = TWO_PI * 35e6
    model = _one_emitter(g)
    purcell = 4.0 * g**2 / model.cavity.kappa
    gam = model.decoherence.gamma_s + purcell
    g_p = 0.5 * gam + model.decoherence.gamma_d
    w2 = g**2 * mu
    rho_ee = (4.0 * w2 * g_p / gam) / (2.0 * g_p**2 + 8.0 * w2 * g_p / gam)
    res = lindblad.pulsed_emission(model, mu, 60e-6, [60e-6], use_expm=True)
    assert res.peak_instant == pytest.approx(purcell * rho_ee, rel=1e-8)

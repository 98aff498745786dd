import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cavens import core, meanfield
from cavens.analysis import DipNormalization, fit_lorentzian_dip
from cavens.config import build_config
from cavens.core import (
    CavityParams,
    DecoherenceParams,
    EmitterEnsemble,
    ParameterError,
    SystemModel,
)
from cavens.experiments import run_reflection_spectrum
from cavens.meanfield import (
    CitThresholdError,
    SelfConsistencyError,
    _Response,
    TransitionLine,
    cit_analytics,
    cit_center,
    pair_contribution,
    reflection_from_x,
    reflection_spectrum,
    reflection_weak_excitation,
    single_contribution,
    single_ion_steady_state,
    solve_selfconsistent_x,
)
from cavens.units import TWO_PI, hz_to_angular

from _oracles import mean_field_ode_steady_state, picard_reflection
from conftest import coupling_for_cooperativity


def paper_like_ensemble(cavity, delta_inh, n=400, c=12.0):
    g = coupling_for_cooperativity(c, cavity, delta_inh, n)
    return EmitterEnsemble.lorentzian(n_ions=n, delta_inh=delta_inh, g=g)


def _largest_root_reflection(ens, mu, laser, cavity, dec):
    """(r, number of roots) at one laser detuning, from the largest root of
    h(t) = t - |1 + x(t)|^2 with x summed directly over the emitters:
    x = sum 2 g^2 (gamma - i D) / (kappa_eff (gamma^2 + D^2 + 4 g^2 gamma n / gamma_s)),
    D = emitter minus laser, n = mu_eff / t.  h is scanned on a log grid
    below a top where it is positive, and each sign change is refined by brentq."""
    from scipy.optimize import brentq

    kappa_eff = cavity.kappa + 2j * (cavity.delta_c - laser)
    mu_eff = mu / abs(kappa_eff / cavity.kappa) ** 2
    d = ens.detunings() - laser
    g2 = ens.couplings() ** 2
    gamma = dec.gamma

    def x_of(t):
        y = 4.0 * g2 * gamma * mu_eff / (dec.gamma_s * np.asarray(t)[..., None])
        return np.sum(2.0 * g2 * (gamma - 1j * d) / (gamma**2 + d**2 + y), axis=-1) / kappa_eff

    def h(t):
        return t - np.abs(1.0 + x_of(t)) ** 2

    top = 4.0 * max(1.0, abs(1.0 + x_of(np.inf)) ** 2)
    while h(top) <= 0.0:
        top *= 4.0
    ts = np.geomspace(1e-12 * top, top, 400)
    hs = h(ts)
    roots = [brentq(h, ts[k], ts[k + 1], xtol=1e-300)
             for k in np.flatnonzero(np.sign(hs[:-1]) != np.sign(hs[1:]))]
    x = x_of(max(roots))
    return 1.0 - 2.0 * cavity.kappa_c / (kappa_eff * (1.0 + x)), len(roots)


class TestWeakExcitation:
    def test_bare_cavity_without_emitters(self, cavity):
        grid = np.linspace(-60e9, 60e9, 301) * TWO_PI
        spec = reflection_weak_excitation(grid, [], cavity)
        # Lorentzian cavity response: minimum (1 - 2 kc/k)^2 at resonance
        i0 = np.argmin(np.abs(grid))
        assert math.isclose(spec.reflectance[i0], (1 - 2 * cavity.coupling_ratio) ** 2,
                            rel_tol=1e-9)
        assert spec.reflectance[0] > 0.9

    def test_three_transition_peaks(self, cavity, decoherence, delta_inh):
        omega_a = hz_to_angular(4.4e9)
        lines = [
            TransitionLine(omega_a, 0.0, decoherence.gamma, delta_inh),
            TransitionLine(omega_a, hz_to_angular(4e9), decoherence.gamma, delta_inh),
            TransitionLine(omega_a * math.sqrt(2), hz_to_angular(7e9), decoherence.gamma,
                           delta_inh),
        ]
        grid = np.linspace(-3e9, 10e9, 2601) * TWO_PI
        spec = reflection_weak_excitation(grid, lines, cavity)
        for center_hz in (0.0, 4e9, 7e9):
            i = np.argmin(np.abs(grid - hz_to_angular(center_hz)))
            assert spec.reflectance[i] > 0.9
        assert np.all(spec.reflectance <= 1.0 + 1e-9)

    def test_strong_single_transition_approaches_unity(self, cavity, decoherence, delta_inh):
        r_at_center = []
        for coupling_ghz in (1.0, 4.0, 16.0, 64.0):
            line = TransitionLine(hz_to_angular(coupling_ghz * 1e9), 0.0,
                                  decoherence.gamma, delta_inh)
            spec = reflection_weak_excitation([0.0], [line], cavity)
            r_at_center.append(spec.reflectance[0])
        assert np.all(np.diff(r_at_center) > 0)
        assert 1.0 - r_at_center[-1] < 1e-3


class TestSingleIon:
    def test_ground_state_limit(self, cavity, g35):
        # gamma << Gamma_c: the unsaturated emitter pushes reflection to ~1
        dec = DecoherenceParams.from_hz(600, 0.0)
        ss = single_ion_steady_state(0.0, g35, 0.0, cavity, dec)
        assert math.isclose(ss.sigma_z, -1.0)
        assert ss.reflectance > 0.98

    def test_saturation_limit(self, cavity, decoherence, g35):
        ss = single_ion_steady_state(0.0, g35, 1e9, cavity, decoherence)
        assert abs(ss.sigma_z) < 1e-6
        assert abs(ss.sigma_minus) < 1e-6
        assert math.isclose(ss.reflectance, 0.36, abs_tol=1e-6)


class TestSelfConsistentX:
    def test_empty_response(self, cavity, decoherence):
        ens = EmitterEnsemble.explicit([(0.0, 1.0)])
        x = solve_selfconsistent_x(ens, 0.0, 0.0, cavity, decoherence)
        assert x != 0  # weak response present
        tiny = EmitterEnsemble.explicit([(0.0, 1e-12)])
        assert abs(solve_selfconsistent_x(tiny, 1e-6, 0.0, cavity, decoherence)) < 1e-20

    def test_error_names_point_method_and_residual(self, cavity, decoherence, delta_inh,
                                                   monkeypatch):
        """Where Newton misses (forced here: it hands back the weak-limit x
        as a miss), the one-point solve raises with the laser offset, the
        method and the residual of the x it got."""
        ens = paper_like_ensemble(cavity, delta_inh, n=200).to_explicit()
        offset = hz_to_angular(2.5e6)
        weak = solve_selfconsistent_x(ens, 0.0, offset, cavity, decoherence)
        monkeypatch.setattr(meanfield, "_newton",
                            lambda resp, mu, x_weak, tol: (x_weak, np.ones(len(x_weak), bool)))
        with pytest.raises(SelfConsistencyError) as err:
            solve_selfconsistent_x(ens, 1e-5, offset, cavity, decoherence)
        e = err.value
        assert (e.method, e.offset) == ("newton", offset)
        resp = _Response(ens, np.array([offset]), cavity, decoherence,
                         np.array([cavity.delta_c]))
        residual = abs(weak - resp.x_of_t(1e-5, abs(1.0 + weak) ** 2)[0])
        assert residual > 1e-3 and e.residual == pytest.approx(residual, rel=1e-12)
        assert str(e) == ("newton solve at laser offset 2.5e+06 Hz from the ensemble center: "
                          f"no convergence at mu=1.000e-05 (residual {e.residual:.3e})")

    @pytest.mark.parametrize("kind", ["explicit", "parametric"])
    def test_zero_drive_is_weak_limit(self, cavity, decoherence, delta_inh, kind):
        """At mu = 0 the one-point solve is the weak-limit x, summed here
        directly: 2 g^2 / (kappa_eff (gamma + i D)) per emitter at D =
        emitter minus laser, and on the Lorentzian line of HWHM h the same
        with gamma + h in place of gamma and D = -offset."""
        ens = paper_like_ensemble(cavity, delta_inh, n=200)
        if kind == "explicit":
            ens = ens.to_explicit()
        gamma = decoherence.gamma
        for f_hz, dc_hz in ((0.0, 0.0), (7e6, 0.0), (-60e6, 3e9)):
            laser, dc = hz_to_angular(f_hz), hz_to_angular(dc_hz)
            x = solve_selfconsistent_x(ens, 0.0, laser, cavity, decoherence, delta_c=dc)
            kappa_eff = cavity.kappa + 2j * dc
            if kind == "explicit":
                d = ens.detunings() - laser
                ref = np.sum(2.0 * ens.couplings() ** 2 / (kappa_eff * (gamma + 1j * d)))
            else:
                ref = ens.n * 2.0 * ens.g**2 / (kappa_eff * (gamma + 0.5 * delta_inh - 1j * laser))
            assert abs(x - ref) < 1e-12 * abs(ref)

    @pytest.mark.parametrize("kind", ["explicit", "parametric"])
    def test_no_relaxation_saturates(self, cavity, delta_inh, kind):
        """At gamma_s = 0 any drive mu > 0 saturates every emitter: x = 0 exactly."""
        ens = paper_like_ensemble(cavity, delta_inh, n=200)
        if kind == "explicit":
            ens = ens.to_explicit()
        no_relaxation = DecoherenceParams.from_hz(0.0, 6000)
        for mu in (1e-12, 1e-6, 1.0):
            for laser in (0.0, hz_to_angular(-40e6)):
                assert solve_selfconsistent_x(ens, mu, laser, cavity, no_relaxation) == 0

    def test_weak_limit_matches_weak_excitation(self, cavity, decoherence, delta_inh):
        ens = paper_like_ensemble(cavity, delta_inh)
        omega = ens.total_coupling
        line = TransitionLine(omega, 0.0, decoherence.gamma, delta_inh)
        for f_hz in (0.0, 30e6, -80e6):
            f = hz_to_angular(f_hz)
            x = solve_selfconsistent_x(ens, 0.0, f, cavity, decoherence, delta_c=-f)
            r, _ = reflection_from_x(x, cavity, delta_c=-f)
            spec = reflection_weak_excitation([f], [line], cavity)
            assert abs(r - spec.r_complex[0]) < 1e-6 * abs(spec.r_complex[0])

    def test_closed_form_oracle(self):
        """Deep inside the validity regime (every ratio >= 30) the solver
        matches the explicit solution within 5% per component."""
        from cavens.core import CavityParams, validate_assumptions

        cav = CavityParams.from_hz(10e9, 2e9)
        dec = DecoherenceParams.from_hz(1e3, 0.0)
        n, g = 13900, hz_to_angular(30e6)
        dinh = hz_to_angular(100e6)
        ens = EmitterEnsemble.lorentzian(n_ions=n, delta_inh=dinh, g=g)
        model = SystemModel(cav, dec, ens)
        offset = hz_to_angular(0.1e6)
        for mu in np.geomspace(1e-4, 6e-4, 5):
            assert validate_assumptions(model, mu, ratio=30).passed
            x = solve_selfconsistent_x(ens, mu, offset, cav, dec)
            q = dinh * cav.kappa / (2 * n * g) * math.sqrt(mu / (dec.gamma_s * dec.gamma))
            x_ref = 1.0 / (q - 1.0) + 8j * offset * n * g**2 / (dinh**2 * cav.kappa)
            assert abs(x.real - x_ref.real) <= 0.05 * abs(x_ref.real)
            assert abs(x.imag - x_ref.imag) <= 0.05 * abs(x_ref.imag)

    def test_ode_oracle_equivalence_small_n(self, cavity, decoherence, g35):
        """Fixed point equals the integrated mean-field steady state (N <= 3)."""
        ens = EmitterEnsemble.explicit([(-hz_to_angular(2e6), 0.9 * g35),
                                        (hz_to_angular(0.5e6), g35),
                                        (hz_to_angular(3e6), 1.2 * g35)])
        for mu in (1e-7, 1e-4):
            x = solve_selfconsistent_x(ens, mu, 0.0, cavity, decoherence)
            ss = mean_field_ode_steady_state(ens, mu, 0.0, cavity, decoherence)
            r, _ = reflection_from_x(x, cavity)
            assert abs(abs(r) ** 2 - abs(ss.r_complex) ** 2) < 1e-6


class TestReflectionSpectrum:
    def test_mirror_symmetry(self, cavity, decoherence, delta_inh):
        ens = paper_like_ensemble(cavity, delta_inh).to_explicit()
        grid = np.linspace(-50e6, 50e6, 81) * TWO_PI
        spec = reflection_spectrum(ens, 1e-6, grid, cavity, decoherence)
        assert np.max(np.abs(spec.reflectance - spec.reflectance[::-1])) < 1e-9

    def test_reflectance_bounded(self, cavity, decoherence, delta_inh):
        ens = paper_like_ensemble(cavity, delta_inh).to_explicit()
        grid = np.linspace(-300e6, 300e6, 101) * TWO_PI
        for mu in (1e-8, 1e-5):
            spec = reflection_spectrum(ens, mu, grid, cavity, decoherence)
            assert np.all(spec.reflectance <= 1.0 + 1e-9)
            assert np.all(spec.reflectance >= 0.0)
            assert spec.converged.all()

    def test_newton_matches_picard(self, cavity, decoherence, delta_inh):
        ens = paper_like_ensemble(cavity, delta_inh, n=200).to_explicit()
        grid = np.array([-40e6, -5e6, 0.0, 2e6, 60e6]) * TWO_PI
        for mu in (1e-7, 1e-5, 1e-3):
            s_newton = reflection_spectrum(ens, mu, grid, cavity, decoherence)
            r_picard = picard_reflection(ens, mu, grid, cavity, decoherence)
            assert np.max(np.abs(s_newton.r_complex - r_picard)) < 1e-8

    @pytest.mark.parametrize("delta_c_hz", [0.0, 3e9])
    def test_newton_matches_picard_parametric(self, decoherence, delta_inh, delta_c_hz):
        """Parametric twin of test_newton_matches_picard: a uniform-g and a
        g-histogram Lorentzian line, with the cavity on and off the line."""
        cav = CavityParams.from_hz(44e9, 8.8e9, delta_c_hz)
        g = coupling_for_cooperativity(12.0, cav, delta_inh, 200)
        uniform = EmitterEnsemble.lorentzian(n_ions=200, delta_inh=delta_inh, g=g)
        hist = EmitterEnsemble.lorentzian(n_ions=200, delta_inh=delta_inh,
                                          g_hist=((0.6 * g, 0.4), (1.2 * g, 0.6)))
        grid = np.array([-40e6, -5e6, 0.0, 2e6, 60e6]) * TWO_PI
        for ens in (uniform, hist):
            for mu in (1e-7, 1e-5, 1e-3):
                s_newton = reflection_spectrum(ens, mu, grid, cav, decoherence)
                r_picard = picard_reflection(ens, mu, grid, cav, decoherence)
                assert s_newton.converged.all()
                assert np.max(np.abs(s_newton.r_complex - r_picard)) < 1e-8

    def test_parametric_zero_drive_and_no_relaxation(self, cavity, decoherence, delta_inh):
        """On a parametric line, mu = 0 gives the weak-excitation spectrum, and
        gamma_s = 0 saturates every emitter at any drive (x = 0, bare cavity);
        so does the Picard oracle."""
        ens = paper_like_ensemble(cavity, delta_inh)
        grid = np.linspace(-100e6, 100e6, 21) * TWO_PI
        line = TransitionLine(ens.total_coupling, 0.0, decoherence.gamma, delta_inh)
        weak = reflection_weak_excitation(grid, [line], cavity)
        no_relaxation = DecoherenceParams.from_hz(0.0, 6000)
        bare = 1.0 - 2.0 * cavity.kappa_c / (cavity.kappa + 2j * (cavity.delta_c - grid))
        for spec in (reflection_spectrum(ens, 0.0, grid, cavity, decoherence),
                     reflection_spectrum(ens, 1e-6, grid, cavity, no_relaxation)):
            assert spec.converged.all()
        for solve in (lambda *a: reflection_spectrum(*a).r_complex, picard_reflection):
            r = solve(ens, 0.0, grid, cavity, decoherence)
            assert np.max(np.abs(r - weak.r_complex)) < 1e-12
            r = solve(ens, 1e-6, grid, cavity, no_relaxation)
            assert np.max(np.abs(r - bare)) < 1e-15

    @pytest.mark.parametrize("kind", ["explicit", "parametric"])
    def test_response_slope_matches_central_difference(self, cavity, decoherence, delta_inh,
                                                       kind):
        ens = paper_like_ensemble(cavity, delta_inh, n=200)
        if kind == "explicit":
            ens = ens.to_explicit()
        freqs = np.array([-40e6, 0.0, 3e6, 70e6]) * TWO_PI
        resp = _Response(ens, freqs, cavity, decoherence, cavity.delta_c - freqs)
        for mu in (1e-7, 1e-5, 1e-3):
            for t0 in (0.05, 1.0, 30.0):
                t = np.full(len(freqs), t0)
                _, slope = resp.x_of_t(mu, t, slope=True)
                dt = 1e-4 * t0
                central = (resp.x_of_t(mu, t + dt) - resp.x_of_t(mu, t - dt)) / (2.0 * dt)
                assert np.all(np.abs(slope - central) <= 1e-6 * np.abs(slope))

    def test_parametric_response_matches_quadrature(self, cavity, decoherence, delta_inh):
        """The closed-form line integral of the parametric response against
        quadrature over the Lorentzian line, at drives that saturate it."""
        from scipy.integrate import quad

        ens = paper_like_ensemble(cavity, delta_inh)
        gamma, h = decoherence.gamma, 0.5 * delta_inh
        freqs = np.array([0.0, 7e6, -60e6]) * TWO_PI
        dc = cavity.delta_c - freqs
        resp = _Response(ens, freqs, cavity, decoherence, dc)
        t = np.array([0.3, 2.0, 40.0])
        for mu in (1e-7, 1e-4):
            x = resp.x_of_t(mu, t)
            mu_eff = mu / (1.0 + (2.0 * dc / cavity.kappa) ** 2)
            y = 4.0 * ens.g**2 * mu_eff * gamma / (decoherence.gamma_s * t)
            for k, d in enumerate(freqs):
                def part(theta, re):  # w = h tan(theta) maps the line to a uniform measure
                    w = h * math.tan(theta)
                    v = (gamma - 1j * (w - d)) / (gamma**2 + y[k] + (w - d) ** 2) / math.pi
                    return v.real if re else v.imag
                scale = 1.0 / (h + math.sqrt(gamma**2 + y[k]))  # |I| at the line center
                kw = dict(points=[math.atan(d / h)], epsabs=1e-13 * scale, epsrel=1e-12,
                          limit=400)
                line = (quad(part, -0.5 * math.pi, 0.5 * math.pi, args=(True,), **kw)[0]
                        + 1j * quad(part, -0.5 * math.pi, 0.5 * math.pi, args=(False,), **kw)[0])
                ref = ens.n * 2.0 * ens.g**2 / (cavity.kappa + 2j * dc[k]) * line
                assert abs(x[k] - ref) < 1e-9 * abs(ref)

    def test_missed_points_flagged(self, cavity, decoherence, delta_inh, monkeypatch):
        """Newton converges at every point of the 1000-quantile line at
        mu = 3e-7, and of the continuum line.  Where it misses the tolerance
        (forced here at grid points 129 and 231), the point is flagged as not
        converged with a NaN r and phase, and every other point, its phase
        included, is unchanged."""
        parametric = paper_like_ensemble(cavity, delta_inh, n=1000)
        explicit = parametric.to_explicit()
        grid = np.linspace(-90e6, 90e6, 361) * TWO_PI
        quantile = reflection_spectrum(explicit, 3e-7, grid, cavity, decoherence)
        assert quantile.converged.all()
        assert reflection_spectrum(parametric, 3e-7, grid, cavity, decoherence).converged.all()
        newton = meanfield._newton

        def missing_two(*args):
            x, missed = newton(*args)
            missed[[129, 231]] = True
            return x, missed

        monkeypatch.setattr(meanfield, "_newton", missing_two)
        forced = reflection_spectrum(explicit, 3e-7, grid, cavity, decoherence)
        assert np.flatnonzero(~forced.converged).tolist() == [129, 231]
        assert np.isnan(forced.r_complex[[129, 231]]).all()
        assert np.isnan(forced.r_complex.imag[[129, 231]]).all()
        assert np.isnan(forced.reflectance[[129, 231]]).all()
        assert np.isnan(forced.phase[[129, 231]]).all()
        kept = np.delete(np.arange(len(grid)), [129, 231])
        assert np.array_equal(forced.r_complex[kept], quantile.r_complex[kept])
        assert np.array_equal(forced.phase[kept], quantile.phase[kept])

    def test_largest_root_at_bistable_points(self, cavity, decoherence, delta_inh):
        """On the 1000-quantile line at mu = 3e-7, h(t) has three roots at six
        grid points.  There, and at every other point, the spectrum is the
        largest-t root of an independent direct sum, found by scanning h on a
        log grid and refining each sign change with brentq."""
        ens = paper_like_ensemble(cavity, delta_inh, n=1000).to_explicit()
        grid = np.linspace(-90e6, 90e6, 361) * TWO_PI
        mu = 3e-7
        spec = reflection_spectrum(ens, mu, grid, cavity, decoherence)
        n_roots = np.zeros(len(grid), dtype=int)
        for k, laser in enumerate(grid):
            r, n_roots[k] = _largest_root_reflection(ens, mu, laser, cavity, decoherence)
            assert abs(spec.r_complex[k] - r) < 1e-9
        assert np.flatnonzero(n_roots == 3).tolist() == [77, 117, 132, 228, 243, 283]
        assert set(n_roots) == {1, 3}

    def test_quantile_powers_without_fallback(self, cavity, decoherence, delta_inh):
        """Over the 20 powers mu = 3e-7 ... 1e-3 of the 1000-quantile line on
        361 points, Newton converges at every point and agrees with the Picard
        oracle to 1e-8 at 13 grid points per power (among them points where
        an unbracketed Newton step used to leave the root)."""
        ens = paper_like_ensemble(cavity, delta_inh, n=1000).to_explicit()
        grid = np.linspace(-90e6, 90e6, 361) * TWO_PI
        some = [22, 44, 65, 86, 129, 167, 180, 193, 231, 274, 295, 316, 340]
        for mu in np.geomspace(3e-7, 1e-3, 20):
            s_newton = reflection_spectrum(ens, mu, grid, cavity, decoherence)
            assert s_newton.converged.all()
            r_picard = picard_reflection(ens, mu, grid[some], cavity, decoherence)
            assert np.max(np.abs(s_newton.r_complex[some] - r_picard)) < 1e-8

    def test_deep_saturation(self, cavity, decoherence, delta_inh):
        """At mu = 0.1 and 10 both ensemble kinds converge, match the Picard
        oracle to 1e-8, and approach the bare cavity as mu grows; so
        saturated, the quantile stand-in and the continuum line coincide."""
        parametric = paper_like_ensemble(cavity, delta_inh, n=1000)
        grid = np.array([-40e6, -5e6, 0.0, 2e6, 60e6]) * TWO_PI
        bare = 1.0 - 2.0 * cavity.kappa_c / (cavity.kappa + 2j * (cavity.delta_c - grid))
        off_bare = {}
        for mu in (1e-1, 1e1):
            r = {}
            for ens in (parametric, parametric.to_explicit()):
                s_newton = reflection_spectrum(ens, mu, grid, cavity, decoherence)
                r_picard = picard_reflection(ens, mu, grid, cavity, decoherence)
                assert s_newton.converged.all()
                assert np.max(np.abs(s_newton.r_complex - r_picard)) < 1e-8
                r[ens.is_parametric] = s_newton.r_complex
            assert np.max(np.abs(r[True] - r[False])) < 1e-9
            off_bare[mu] = np.max(np.abs(r[True] - bare))
        assert off_bare[1e1] < 0.1 * off_bare[1e-1]

    def test_low_power_shows_dir_no_dip(self, cavity, decoherence, delta_inh):
        # continuum ensemble: a weak scan sees the broad reflectivity peak only
        ens = paper_like_ensemble(cavity, delta_inh)
        grid = np.linspace(-100e6, 100e6, 201) * TWO_PI
        spec = reflection_spectrum(ens, 1e-15, grid, cavity, decoherence)
        norm = DipNormalization((1 - 2 * cavity.coupling_ratio) ** 2, 1.0)
        assert fit_lorentzian_dip(spec, norm) is None
        assert spec.reflectance[len(grid) // 2] > 0.9

    def test_two_then_three_ion_interference(self, cavity, decoherence, g35):
        """A symmetric +/-48 kHz pair dips at zero detuning even at mu=1e-8;
        a resonant third emitter replaces the dip with a peak."""
        d = hz_to_angular(0.048e6)
        grid = np.linspace(-0.3e6, 0.3e6, 601) * TWO_PI
        pair = EmitterEnsemble.explicit([(-d, g35), (d, g35)])
        triple = EmitterEnsemble.explicit([(-d, g35), (0.0, g35), (d, g35)])
        s2 = reflection_spectrum(pair, 1e-8, grid, cavity, decoherence)
        s3 = reflection_spectrum(triple, 1e-8, grid, cavity, decoherence)
        i0 = len(grid) // 2
        i_ion = np.argmin(np.abs(grid - d))
        assert s2.reflectance[i0] < s2.reflectance[i_ion] - 0.2
        assert s3.reflectance[i0] > 0.8
        assert s3.reflectance[i0] > s3.reflectance[i0] - 0.01  # no central dip

    def test_monotone_narrowing(self, cavity, decoherence, delta_inh):
        """Fitted dip width of the 1000-quantile stand-in is non-increasing
        on this 8-point power grid; the ceiling keeps the saturation hole
        below the collective width.  The floor is not in the stand-in's
        continuum regime: at mu = 3e-7 the dip's flanks resolve the quantile
        comb (see test_quantile_comb_resolution), which biases the fitted
        width narrow.  The bias makes the width rise from mu = 3e-7 to
        mu ~ 4.1e-7; this grid's second power, 4.5e-7, lies past that rise."""
        n = 1000
        ens = paper_like_ensemble(cavity, delta_inh, n=n).to_explicit()
        grid = np.linspace(-90e6, 90e6, 361) * TWO_PI
        norm = DipNormalization((1 - 2 * cavity.coupling_ratio) ** 2, 1.0)
        mus = np.geomspace(3e-7, 5e-6, 8)
        widths = []
        for mu in mus:
            fit = fit_lorentzian_dip(reflection_spectrum(ens, mu, grid, cavity, decoherence),
                                     norm)
            assert fit is not None
            widths.append(fit.width)
        widths = np.array(widths)
        assert np.all(np.diff(widths) <= widths[:-1] * 1e-3)

    def test_quantile_comb_resolution(self, cavity, decoherence, delta_inh):
        """The 1000-quantile stand-in reproduces the continuum dip fit only
        where each emitter's saturated line, HWHM sqrt(gamma^2 + y), covers
        the local comb spacing.  At mu = 5e-6 it does out to three dip widths
        and the fits agree to 0.1%; at mu = 3e-7 the flanks resolve single
        emitters within one dip width and the fits differ by over 2%."""
        n = 1000
        parametric = paper_like_ensemble(cavity, delta_inh, n=n)
        explicit = parametric.to_explicit()
        g = explicit.couplings()[0]
        grid = np.linspace(-90e6, 90e6, 361) * TWO_PI
        norm = DipNormalization((1 - 2 * cavity.coupling_ratio) ** 2, 1.0)
        comb = np.sort(explicit.detunings())
        spacing = np.interp(grid, 0.5 * (comb[1:] + comb[:-1]), np.diff(comb))

        def saturated_hwhm(spec, mu):
            # invert r(x) for t = |1+x|^2, then y = 4 g^2 mu_eff gamma / (gamma_s t)
            dc = cavity.delta_c - spec.freqs
            t = np.abs(2.0 * cavity.kappa_c
                       / ((cavity.kappa + 2j * dc) * (1.0 - spec.r_complex))) ** 2
            mu_eff = mu / (1.0 + (2.0 * dc / cavity.kappa) ** 2)
            y = 4.0 * g**2 * mu_eff * decoherence.gamma / (decoherence.gamma_s * t)
            return np.sqrt(decoherence.gamma**2 + y)

        def fits(mu):
            spec = reflection_spectrum(parametric, mu, grid, cavity, decoherence)
            fit_c = fit_lorentzian_dip(spec, norm)
            fit_q = fit_lorentzian_dip(
                reflection_spectrum(explicit, mu, grid, cavity, decoherence), norm)
            return saturated_hwhm(spec, mu), fit_c.width, fit_q.width

        hwhm, w_c, w_q = fits(5e-6)
        core = np.abs(grid) <= 3.0 * w_c
        assert np.all(hwhm[core] > spacing[core])
        assert abs(w_q / w_c - 1.0) < 1e-3

        hwhm, w_c, w_q = fits(3e-7)
        flank = np.abs(grid) <= w_c
        assert np.any(hwhm[flank] < spacing[flank])
        assert abs(w_q / w_c - 1.0) > 0.02

    def test_g_distribution_independence(self, cavity, decoherence, delta_inh):
        """Equal N<g>, N<g^2> but different p(g) give the same dip width
        within 1%."""
        n = 400
        gc = coupling_for_cooperativity(12.0, cavity, delta_inh, n)
        pa = 0.5
        # two-level histogram with matched first and second moments
        from scipy.optimize import fsolve

        ga, gb = fsolve(lambda v: [pa * v[0] + (1 - pa) * v[1] - gc,
                                   pa * v[0] ** 2 + (1 - pa) * v[1] ** 2 - gc**2],
                        [0.6 * gc, 1.3 * gc])
        ens_c = EmitterEnsemble.lorentzian(n_ions=n, delta_inh=delta_inh, g=gc).to_explicit()
        ens_h = EmitterEnsemble.lorentzian(n_ions=n, delta_inh=delta_inh,
                                           g_hist=((ga, pa), (gb, 1 - pa))).to_explicit()
        grid = np.linspace(-60e6, 60e6, 241) * TWO_PI
        norm = DipNormalization((1 - 2 * cavity.coupling_ratio) ** 2, 1.0)
        mu = 4e-6
        w_c = fit_lorentzian_dip(reflection_spectrum(ens_c, mu, grid, cavity, decoherence),
                                 norm).width
        w_h = fit_lorentzian_dip(reflection_spectrum(ens_h, mu, grid, cavity, decoherence),
                                 norm).width
        assert abs(w_h / w_c - 1.0) < 0.01

    def test_width_grows_with_dephasing(self, cavity, delta_inh):
        """High-cooperativity narrow dip broadens as gamma grows."""
        n = 400
        ens = paper_like_ensemble(cavity, delta_inh, n=n, c=24.0).to_explicit()
        grid = np.linspace(-40e6, 40e6, 321) * TWO_PI
        norm = DipNormalization((1 - 2 * cavity.coupling_ratio) ** 2, 1.0)
        widths = []
        for gd_hz in (2e3, 20e3, 60e3):
            dec = DecoherenceParams.from_hz(600, gd_hz)
            fit = fit_lorentzian_dip(
                reflection_spectrum(ens, 3e-5, grid, cavity, dec), norm)
            widths.append(fit.width)
        assert widths[0] < widths[1] < widths[2]


class TestResponseReuse:
    """reflection_spectrum builds its mu-independent response once per
    (ensemble, grid values, cavity, decoherence) and reuses it; every
    result is the solve on a freshly built response, bit for bit."""

    @staticmethod
    def _fresh(ens, mu, grid, cav, dec):
        grid = np.array(grid, dtype=float)
        dc = cav.delta_c - grid
        x, missed, _ = meanfield._solve(_Response(ens, grid, cav, dec, dc), mu)
        assert not missed.any()
        return reflection_from_x(x, cav, delta_c=dc)[0]

    def test_one_response_per_power_sweep(self):
        cfg = build_config("""
experiment = reflection-spectrum
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 600
decoherence.gamma_d_hz = 6000
ensemble.kind = lorentzian
ensemble.n_ions = 1000
ensemble.delta_inh_hz = 150e6
ensemble.g_hz = 140.7e6
ensemble.explicit_quantiles = 200
grid.freq.start_hz = -80e6
grid.freq.stop_hz = 80e6
grid.freq.num = 41
grid.power.start_w = 1e-14
grid.power.stop_w = 1e-10
grid.power.num = 20
grid.power.scale = log
""")
        meanfield._spectrum_response.cache_clear()
        result = run_reflection_spectrum(cfg)
        info = meanfield._spectrum_response.cache_info()
        assert (info.misses, info.hits) == (1, 19)
        assert len(result.tables) == 20 and result.metadata["not_converged"] == [0] * 20

    def test_interleaved_inputs_match_fresh_responses(self, decoherence, delta_inh):
        cavities = [CavityParams.from_hz(44e9, 8.8e9, 0.0), CavityParams.from_hz(44e9, 8.8e9, 1e9)]
        grids = [np.linspace(-60e6, 60e6, 31) * TWO_PI, np.linspace(-20e6, 45e6, 14) * TWO_PI]
        twins = [paper_like_ensemble(cavities[0], delta_inh, n=200).to_explicit()
                 for _ in range(2)]
        assert twins[0] == twins[1] and twins[0] is not twins[1]
        meanfield._spectrum_response.cache_clear()
        calls = 0
        for mu in (1e-7, 1e-5):
            for grid in grids:
                for cav in cavities:
                    for ens in twins:  # the second twin finds the first's response
                        spec = reflection_spectrum(ens, mu, grid, cav, decoherence)
                        calls += 1
                        assert spec.converged.all()
                        assert np.array_equal(spec.r_complex,
                                              self._fresh(ens, mu, grid, cav, decoherence))
        info = meanfield._spectrum_response.cache_info()
        assert info.hits + info.misses == calls and info.hits >= calls // 2
        assert info.currsize == 1  # one response held at a time

    def test_caller_grid_changed_after_a_call(self, cavity, decoherence, delta_inh):
        ens = paper_like_ensemble(cavity, delta_inh, n=200).to_explicit()
        grid = np.linspace(-60e6, 60e6, 31) * TWO_PI
        reflection_spectrum(ens, 1e-6, grid, cavity, decoherence)
        grid += hz_to_angular(3e6)  # in place, as a caller reusing its buffer would
        spec = reflection_spectrum(ens, 1e-6, grid, cavity, decoherence)
        assert np.array_equal(spec.r_complex, self._fresh(ens, 1e-6, grid, cavity, decoherence))

    def test_spectrum_keeps_its_own_freqs(self, cavity, decoherence, delta_inh):
        """A grid shifted in place after the call leaves the spectrum's
        frequencies as they were."""
        ens = paper_like_ensemble(cavity, delta_inh, n=20).to_explicit()
        grid = np.linspace(-60e6, 60e6, 5) * TWO_PI
        spec = reflection_spectrum(ens, 1e-6, grid, cavity, decoherence)
        before = grid.copy()
        grid += 1.0
        assert spec.freqs is not grid
        assert np.array_equal(spec.freqs, before)

    @pytest.mark.parametrize("mu", [0.0, 1e-7, 1e-4])
    def test_real_layout_matches_complex_sum(self, decoherence, mu):
        """x and dx/dt of a 50-emitter list against the complex direct sum
        x = sum c_j / (1 + s_j m), with c_j = 2 g^2 / (kappa_eff (gamma + i D)),
        s_j = 4 g^2 gamma / (gamma_s (gamma^2 + D^2)) and m = mu_eff / t, on
        all 7 rows, on rows cut out in a new order, and with scratch lent."""
        rng = np.random.default_rng(11)
        det = hz_to_angular(rng.uniform(-30e6, 50e6, 50))
        gs = hz_to_angular(rng.uniform(10e6, 40e6, 50))
        ens = EmitterEnsemble.explicit(list(zip(det, gs)))
        cav = CavityParams.from_hz(44e9, 8.8e9, 1e9)
        freqs = hz_to_angular(np.array([-40e6, -7e6, 0.0, 3e6, 11e6, 25e6, 60e6]))
        dc = cav.delta_c - freqs
        resp = _Response(ens, freqs, cav, decoherence, dc)
        gamma, gamma_s = decoherence.gamma, decoherence.gamma_s
        d = det - freqs[:, None]
        c = 2.0 * gs**2 / ((cav.kappa + 2j * dc)[:, None] * (gamma + 1j * d))
        s = 4.0 * gs**2 * gamma / (gamma_s * (gamma**2 + d**2))
        t = np.array([0.02, 0.3, 1.0, 2.5, 7.0, 40.0, 900.0])
        m = (mu / (1.0 + (2.0 * dc / cav.kappa) ** 2) / t)[:, None]
        x_ref = np.sum(c / (1.0 + s * m), axis=-1)
        slope_ref = np.sum(c * s * m / (1.0 + s * m) ** 2, axis=-1) / t
        cut = np.array([5, 0, 3])
        for rows, sub in ((slice(None), resp), (cut, resp.rows(cut))):
            for work in (None, sub.work()):
                x, slope = sub.x_of_t(mu, t[rows], slope=True, work=work)
                assert np.all(np.abs(x - x_ref[rows]) <= 1e-13 * np.abs(x_ref[rows]))
                if mu > 0:
                    assert np.all(np.abs(slope - slope_ref[rows])
                                  <= 1e-13 * np.abs(slope_ref[rows]))
                else:
                    assert not slope.any()
            assert np.array_equal(sub.x_weak, sub.x_of_t(0.0, np.ones(len(sub.x_weak))))


SRC = os.path.dirname(os.path.dirname(os.path.abspath(meanfield.__file__)))


class TestRowSplit:
    """An explicit ensemble's sums, split by rows across threads, give the
    one-thread result bit for bit for any number of workers."""

    @staticmethod
    def _response(cavity, dec, delta_inh, n_emitters, n_rows):
        ens = paper_like_ensemble(cavity, delta_inh, n=n_emitters).to_explicit()
        grid = np.linspace(-90e6, 90e6, n_rows) * TWO_PI
        return _Response(ens, grid, cavity, dec, cavity.delta_c - grid)

    @pytest.mark.parametrize("n_rows", [1, 7, 361])
    @pytest.mark.parametrize("n_emitters", [1, 1000])
    @pytest.mark.parametrize("mu, gamma_s_hz", [(0.0, 600.0), (1e-5, 600.0), (1e-5, 0.0),
                                                (1e-1, 600.0)])
    def test_x_of_t_equals_one_thread(self, cavity, delta_inh, monkeypatch, n_rows, n_emitters,
                                      mu, gamma_s_hz):
        """x and (x, dx/dt), with and without lent scratch, on 1, 2 and 3
        workers, at mu = 0, gamma_s = 0 and deep saturation (mu = 0.1); every
        split is forced (no size floor), and a single emitter never splits."""
        resp = self._response(cavity, DecoherenceParams.from_hz(gamma_s_hz, 6000), delta_inh,
                              n_emitters, n_rows)
        t = np.abs(1.0 + resp.x_weak) ** 2 * np.geomspace(1e-2, 1e2, n_rows)
        one = resp.x_of_t(mu, t), *resp.x_of_t(mu, t, slope=True)
        monkeypatch.setattr(meanfield, "_SPLIT_MIN", 0)
        for workers in (1, 2, 3):
            monkeypatch.setattr(core, "USABLE_CORES", workers)
            threads = resp.threads()
            assert threads == (1 if n_emitters == 1 else min(workers, n_rows))
            with ThreadPoolExecutor(max(1, threads - 1)) as pool:
                for work in (None, resp.work()):
                    split = (resp.x_of_t(mu, t, work=work, pool=pool),
                             *resp.x_of_t(mu, t, slope=True, work=work, pool=pool))
                    assert [a.tobytes() for a in split] == [a.tobytes() for a in one]

    @pytest.mark.parametrize("mu", [3e-7, 1e-5, 1e-3])
    def test_newton_equals_one_thread(self, cavity, decoherence, delta_inh, monkeypatch, mu):
        """The (x, missed) pair of the 1000-quantile line on 361 points is
        the same bits on 1, 2 and 3 workers, at the module's size floor and
        with threads switched every microsecond; the first Newton step
        splits, and no thread outlives the solve."""
        resp = self._response(cavity, decoherence, delta_inh, 1000, 361)
        by_rows, parts = meanfield._by_rows, []

        def counted(task, n_rows, k, pool):
            parts.append(k)
            by_rows(task, n_rows, k, pool)

        monkeypatch.setattr(meanfield, "_by_rows", counted)
        pairs, alive = [], threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(core, "USABLE_CORES", workers)
                parts.clear()
                x, missed = meanfield._newton(resp, mu, resp.x_weak, meanfield._TOL)
                assert parts[0] == workers and threading.active_count() == alive
                pairs.append((x.tobytes(), missed.tobytes()))
        finally:
            sys.setswitchinterval(interval)
        assert pairs[1] == pairs[0] and pairs[2] == pairs[0]

    def test_callers_errstate_holds_in_the_threads(self, cavity, decoherence, delta_inh,
                                                   monkeypatch):
        """sat m overflows on the rows of the pool's block alone: it raises
        under the caller's over="raise" and is silent under over="ignore"."""
        monkeypatch.setattr(core, "USABLE_CORES", 2)
        resp = self._response(cavity, decoherence, delta_inh, 1000, 361)
        assert resp.threads() == 2
        t = np.ones(361)
        t[200:] = 1e-302  # m = mu_eff / t is finite, and sat m is not
        with np.errstate(over="raise"):
            resp.rows(np.arange(180)).x_of_t(1e-3, t[:180])  # the caller's block is clean
        with ThreadPoolExecutor(1) as pool:
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                resp.x_of_t(1e-3, t, pool=pool)
            with np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")
                x = resp.x_of_t(1e-3, t, pool=pool)
        assert np.isfinite(x).all()

    def test_sweep_workers_after_a_threaded_spectrum(self):
        """A process that has run a threaded spectrum then forks a 2-job
        sweep: it finishes, its workers sum on one thread, and its rows are
        the 1-job rows bit for bit.  Run in a subprocess, with a timeout."""
        script = textwrap.dedent('''
            from cavens import core
            from cavens.config import build_config
            from cavens.experiments import run_experiment, run_sweep

            core.USABLE_CORES = 2
            cfg = """
            experiment = reflection-spectrum
            cavity.kappa_hz = 44e9
            cavity.kappa_c_hz = 8.8e9
            decoherence.gamma_s_hz = 600
            decoherence.gamma_d_hz = 6000
            ensemble.kind = lorentzian
            ensemble.n_ions = 1000
            ensemble.delta_inh_hz = 150e6
            ensemble.g_hz = 140.7e6
            ensemble.explicit_quantiles = 1000
            grid.freq.start_hz = -90e6
            grid.freq.stop_hz = 90e6
            grid.freq.num = 361
            drive.power_w = 1e-12
            """
            assert run_experiment(build_config(cfg)).metadata["response_threads"] == 2
            sweep = build_config(cfg + "sweep.axis = power_w\\nsweep.values = 1e-13, 1e-11\\n")
            one, two = run_sweep(sweep, jobs=1), run_sweep(sweep, jobs=2)
            assert repr(two.tables[0].rows) == repr(one.tables[0].rows)
            threads = [[p["metadata"]["response_threads"] for p in r.metadata["points"]]
                       for r in (one, two)]
            assert threads == [[2, 2], [1, 1]], threads
            print("ok")
        ''')
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        # its own process group, so a hung sweep's workers are killed with it
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the sweep did not finish in 120 s")
        assert proc.returncode == 0, stderr
        assert stdout.splitlines()[-1] == "ok"


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_before_the_solve(self, cavity, decoherence, delta_inh, g35, bad):
        """A non-finite drive, grid point, laser frequency or cavity
        detuning raises ParameterError, before any response is built."""
        ens = paper_like_ensemble(cavity, delta_inh, n=50).to_explicit()
        grid = np.linspace(-50e6, 50e6, 11) * TWO_PI
        bad_grid = grid.copy()
        bad_grid[4] = bad
        before = meanfield._spectrum_response.cache_info()
        with pytest.raises(ParameterError, match="mu"):
            reflection_spectrum(ens, bad, grid, cavity, decoherence)
        with pytest.raises(ParameterError, match="grid"):
            reflection_spectrum(ens, 1e-6, bad_grid, cavity, decoherence)
        assert meanfield._spectrum_response.cache_info() == before
        with pytest.raises(ParameterError, match="mu"):
            solve_selfconsistent_x(ens, bad, 0.0, cavity, decoherence)
        with pytest.raises(ParameterError, match="omega_l"):
            solve_selfconsistent_x(ens, 1e-6, bad, cavity, decoherence)
        with pytest.raises(ParameterError, match="delta_c"):
            solve_selfconsistent_x(ens, 1e-6, 0.0, cavity, decoherence, delta_c=bad)
        with pytest.raises(ParameterError, match="mu"):
            single_ion_steady_state(0.0, g35, bad, cavity, decoherence)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cit_analytics_rejects_non_finite_drive(self, cavity, decoherence, delta_inh, bad):
        model = SystemModel(cavity, decoherence, paper_like_ensemble(cavity, delta_inh))
        with pytest.raises(ParameterError, match="mu"):
            cit_analytics(model, bad, check=False)


class TestCitAnalytics:
    def _model(self, cavity, decoherence, delta_inh, c=12.0):
        return SystemModel(cavity, decoherence, paper_like_ensemble(cavity, delta_inh, c=c))

    def test_asymptotic_width(self, cavity, decoherence, delta_inh):
        model = self._model(cavity, decoherence, delta_inh)
        res = cit_analytics(model, mu=1e12, check=False)
        assert math.isclose(res.width_min, hz_to_angular(150e6) / 12.0, rel_tol=1e-9)
        assert math.isclose(res.width, res.width_min, rel_tol=1e-3)
        assert math.isclose(res.width / TWO_PI, 12.5e6, rel_tol=0.05)

    def test_depth_saturates_to_one(self, cavity, decoherence, delta_inh):
        model = self._model(cavity, decoherence, delta_inh)
        assert math.isclose(cit_analytics(model, mu=1e12, check=False).depth, 1.0,
                            rel_tol=1e-3)

    def test_below_threshold_raises(self, cavity, decoherence, delta_inh):
        model = self._model(cavity, decoherence, delta_inh)
        with pytest.raises(CitThresholdError):
            cit_analytics(model, mu=1e-30, check=False)

    def test_out_of_regime_warns(self, cavity, decoherence, delta_inh):
        model = self._model(cavity, decoherence, delta_inh, c=0.5)
        with pytest.warns(UserWarning):
            cit_analytics(model, mu=1e-3)

    def test_center_linear_in_cavity_detuning(self, cavity, decoherence, delta_inh):
        c = 12.0
        eps = delta_inh / (c * cavity.kappa)
        omega0 = hz_to_angular(1e9)
        # cavity at absolute zero: center = omega0 / (1 - eps)
        assert math.isclose(cit_center(omega0, 0.0, c, delta_inh, cavity.kappa),
                            omega0 / (1 - eps), rel_tol=1e-12)
        slope = (cit_center(omega0, 1e6, c, delta_inh, cavity.kappa)
                 - cit_center(omega0, 0.0, c, delta_inh, cavity.kappa)) / 1e6
        assert math.isclose(slope, -eps / (1 - eps), rel_tol=1e-9)


class TestSaturationComparison:
    """|<sigma->|^2 (non-monotonic) against the excited population
    (monotonic) of one resonant emitter as functions of drive."""

    @staticmethod
    def curves(g, mu_grid, cavity, dec):
        states = [single_ion_steady_state(0.0, g, mu, cavity, dec) for mu in mu_grid]
        return (np.array([abs(ss.sigma_minus) ** 2 for ss in states]),
                np.array([0.5 * (ss.sigma_z + 1.0) for ss in states]))

    def test_monotonic_vs_nonmonotonic(self, cavity, decoherence, g35):
        mu = np.geomspace(1e-9, 1e-1, 33)
        coherence_sq, excited = self.curves(g35, mu, cavity, decoherence)
        assert np.all(np.diff(excited) >= -1e-15)
        i_max = int(np.argmax(coherence_sq))
        assert 0 < i_max < len(mu) - 1
        assert coherence_sq[-1] < 0.05 * coherence_sq[i_max]
        assert coherence_sq[0] < 0.05 * coherence_sq[i_max]

    def test_zero_drive(self, cavity, decoherence, g35):
        coherence_sq, excited = self.curves(g35, [0.0], cavity, decoherence)
        assert coherence_sq[0] == 0.0
        assert excited[0] == 0.0


class TestPairContribution:
    def test_detuned_pair_suppressed(self, decoherence, g35):
        delta = 300.0 * decoherence.gamma
        single = single_contribution(delta, g35, -1.0, decoherence)
        pair = pair_contribution(delta, g35, -1.0, decoherence)
        assert abs(pair) < abs(single) * 0.01  # suppressed ~ gamma/delta
        expected = 2.0 * g35 * decoherence.gamma / delta**2
        assert math.isclose(abs(pair), expected, rel_tol=1e-3)

    def test_degenerate_pair_doubles(self, decoherence, g35):
        single = single_contribution(0.0, g35, -1.0, decoherence)
        pair = pair_contribution(0.0, g35, -1.0, decoherence)
        assert abs(pair - 2.0 * single) < 1e-12 * abs(pair)

    def test_saturated_vanishes(self, decoherence, g35):
        assert pair_contribution(1e6, g35, 0.0, decoherence) == 0.0

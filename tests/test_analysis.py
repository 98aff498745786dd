import math

import numpy as np
import pytest

from cavens.analysis import (
    BiexpFit,
    DipNormalization,
    beat_spectrum,
    extract_scurve_features,
    fit_cit_power_laws,
    fit_emission_trace,
    fit_lorentzian_dip,
)
from cavens.core import ParameterError, SolverError
from cavens.units import TWO_PI


def make_dip(width, depth, center, baseline=1.0, noise=0.0, rng=None,
             span=400e6 * TWO_PI, n=801):
    f = np.linspace(-span, span, n)
    y = baseline - depth * (width / 2) ** 2 / ((f - center) ** 2 + (width / 2) ** 2)
    if noise:
        y = y + noise * rng.standard_normal(n)
    return f, y


class TestDipFit:
    def test_noiseless_recovery(self):
        w, d, c = TWO_PI * 50e6, 0.8, TWO_PI * 3e6
        f, y = make_dip(w, d, c)
        raw = 0.36 + y * 0.64
        fit = fit_lorentzian_dip((f, raw), DipNormalization(0.36, 1.0))
        assert abs(fit.width / w - 1) < 1e-6
        assert abs(fit.depth / d - 1) < 1e-6
        assert abs(fit.center - c) < 1e-6 * w

    def test_flat_spectrum_no_dip(self):
        f = np.linspace(-1, 1, 101)
        assert fit_lorentzian_dip((f, np.full(101, 0.8)),
                                  DipNormalization(0.36, 1.0)) is None

    def test_idempotent_restart(self):
        w, d, c = TWO_PI * 30e6, 0.6, 0.0
        f, y = make_dip(w, d, c, noise=2e-3, rng=np.random.default_rng(0))
        norm = DipNormalization(0.0, 1.0)
        fit1 = fit_lorentzian_dip((f, y), norm)
        fit2 = fit_lorentzian_dip((f, y), norm,
                                  p0=(fit1.baseline, fit1.depth, fit1.center, fit1.width))
        for attr in ("width", "depth", "center", "baseline"):
            a, b = getattr(fit1, attr), getattr(fit2, attr)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_normalization_invariance(self):
        w, d, c = TWO_PI * 40e6, 0.5, 0.0
        f, y = make_dip(w, d, c)
        fit1 = fit_lorentzian_dip((f, y), DipNormalization(0.0, 1.0))
        scaled = 0.2 + 0.55 * y  # affine rescale of the raw reflectance
        fit2 = fit_lorentzian_dip((f, scaled), DipNormalization(0.2, 0.75))
        assert abs(fit1.depth - fit2.depth) < 1e-9
        assert abs(fit1.width - fit2.width) < 1e-6


class TestCitPowerLaws:
    TRUTH = dict(p1=TWO_PI * 42e6, p2=0.08, p3=0.3, p4=1.2)

    def _synthetic(self, noise=0.0, rng=None, n=12):
        p = np.geomspace(0.05, 25.0, n)  # nW-scale numbers
        u = 1.0 - self.TRUTH["p2"] / np.sqrt(p)
        w = self.TRUTH["p1"] / u
        d = self.TRUTH["p4"] * (u - self.TRUTH["p3"] * u**2)
        if noise:
            w = w * (1 + noise * rng.standard_normal(n))
            d = d * (1 + noise * rng.standard_normal(n))
        return p, w, d

    def test_exact_recovery(self):
        p, w, d = self._synthetic()
        fit = fit_cit_power_laws(p, w, d)
        for key, val in self.TRUTH.items():
            assert abs(getattr(fit, key) / val - 1) < 1e-6

    def test_power_independent_limit(self):
        p = np.geomspace(0.05, 25.0, 8)
        w = np.full(8, TWO_PI * 42e6)
        d = np.full(8, 0.9)
        fit = fit_cit_power_laws(p, w, d)
        assert abs(fit.p2) < 1e-3
        assert abs(fit.p1 / (TWO_PI * 42e6) - 1) < 1e-6

    def test_monte_carlo_within_three_sigma(self):
        rng = np.random.default_rng(42)
        n_ok = {k: 0 for k in self.TRUTH}
        n_draws = 100
        for _ in range(n_draws):
            p, w, d = self._synthetic(noise=0.01, rng=rng)
            fit = fit_cit_power_laws(p, w, d)
            for key, val in self.TRUTH.items():
                err = fit.stderr[key]
                if err > 0 and abs(getattr(fit, key) - val) <= 3.0 * err:
                    n_ok[key] += 1
        for key, count in n_ok.items():
            assert count >= 0.95 * n_draws, f"{key}: only {count}/{n_draws} within 3 sigma"

    def test_degenerate_design(self):
        with pytest.raises(ParameterError, match="all powers equal"):
            fit_cit_power_laws([1.0] * 6, [1.0] * 6, [0.5] * 6)
        with pytest.raises(ParameterError):
            fit_cit_power_laws([1, 2, 3], [1, 1, 1], [1, 1, 1])


class TestEmissionFit:
    def test_pure_single_exponential(self):
        t = np.linspace(1e-9, 80e-6, 2000)
        y = 4.0 * np.exp(-t / 5e-6)
        fit = fit_emission_trace(t, y)
        dominant = (fit.a1, fit.tau1, fit.x1) if fit.a1 >= fit.a2 else (fit.a2, fit.tau2, fit.x2)
        assert abs(dominant[1] / 5e-6 - 1) < 1e-4
        assert abs(dominant[2] - 1.0) < 1e-4
        assert min(fit.a1, fit.a2) < 1e-6 * max(fit.a1, fit.a2)

    def test_two_stretched_components_recovered(self):
        rng = np.random.default_rng(0)
        truth = dict(a1=5.0, tau1=2e-6, x1=0.9, a2=1.5, tau2=60e-6, x2=0.7, b=0.05)
        t = np.linspace(1e-9, 1.5e-3, 6000)
        y = (truth["a1"] * np.exp(-(t / truth["tau1"]) ** truth["x1"])
             + truth["a2"] * np.exp(-(t / truth["tau2"]) ** truth["x2"]) + truth["b"])
        yn = y * (1 + 0.005 * rng.standard_normal(len(t)))
        fit = fit_emission_trace(t, yn)
        for key in ("a1", "tau1", "x1", "a2", "tau2", "x2", "b"):
            assert abs(getattr(fit, key) / truth[key] - 1) < 0.05, key
        assert fit.tau1 <= fit.tau2

    def test_rejected_start_skipped(self, monkeypatch):
        """A start that least_squares rejects is skipped; when every start is
        rejected the fit fails with SolverError."""
        import scipy.optimize

        t = np.linspace(1e-9, 80e-6, 400)
        y = 4.0 * np.exp(-t / 5e-6)
        real = scipy.optimize.least_squares
        calls = []

        def first_rejected(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("Residuals are not finite in the initial point.")
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "least_squares", first_rejected)
        fit = fit_emission_trace(t, y)
        assert len(calls) > 1
        assert abs(max((fit.a1, fit.tau1), (fit.a2, fit.tau2))[1] / 5e-6 - 1) < 1e-4

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(scipy.optimize, "least_squares", singular)
        with pytest.raises(SolverError):
            fit_emission_trace(t, y)

    def test_other_errors_propagate(self, monkeypatch):
        import scipy.optimize

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a rejected start")

        monkeypatch.setattr(scipy.optimize, "least_squares", broken)
        t = np.linspace(1e-9, 80e-6, 400)
        with pytest.raises(TypeError):
            fit_emission_trace(t, np.exp(-t / 5e-6))

    def test_regime_iii_forces_x1(self):
        t = np.linspace(1e-9, 1e-3, 3000)
        y = 3.0 * np.exp(-t / 5e-6) + 1.0 * np.exp(-(t / 80e-6) ** 0.6) + 0.02
        fit = fit_emission_trace(t, y, regime_hint="III")
        assert fit.x1 == 1.0
        assert fit.tau1 <= fit.tau2
        assert abs(fit.tau1 / 5e-6 - 1) < 0.05

    def test_scale_equivariance(self):
        t = np.linspace(1e-9, 400e-6, 1500)
        y = (2.0 * np.exp(-(t / 3e-6) ** 0.9)
             + 1.0 * np.exp(-(t / 40e-6) ** 0.8))
        fit1 = fit_emission_trace(t, y, background=0.0)
        s = 7.0
        fit2 = fit_emission_trace(s * t, y, background=0.0)
        assert abs(fit2.tau1 / (s * fit1.tau1) - 1) < 1e-5
        assert abs(fit2.tau2 / (s * fit1.tau2) - 1) < 1e-5
        assert abs(fit2.x1 - fit1.x1) < 1e-5 and abs(fit2.x2 - fit1.x2) < 1e-5
        assert abs(fit2.a1 / fit1.a1 - 1) < 1e-5


class TestBeatSpectrum:
    def test_exponential_amplitude_width(self):
        tau = 10e-6
        t = np.arange(0, 400e-6, 20e-9)
        amp = np.exp(-t / (2 * tau))
        lo = TWO_PI * 5e6
        fit = beat_spectrum(t, amp, lo)
        # FWHM 1/tau angular = 1/(2 pi tau) in ordinary frequency
        assert abs(fit.gamma_beat * tau - 1.0) < 0.01
        assert abs(fit.center - lo) < 0.01 * fit.gamma_beat

    def test_zero_amplitude(self):
        t = np.arange(0, 100e-6, 50e-9)
        ref = beat_spectrum(t, np.exp(-t / 20e-6), TWO_PI * 2e6)
        null = beat_spectrum(t, 1e-9 * np.exp(-t / 20e-6), TWO_PI * 2e6)
        assert null.a_beat < 1e-6 * ref.a_beat

    def test_aliased_lo_rejected(self):
        t = np.arange(0, 10e-6, 100e-9)
        with pytest.raises(ParameterError):
            beat_spectrum(t, np.ones(len(t)), TWO_PI * 6e6)

    def test_nonuniform_rejected(self):
        t = np.geomspace(1e-9, 1e-5, 64)
        with pytest.raises(ParameterError):
            beat_spectrum(t, np.ones(64), 1e5)


class TestSCurveFeatures:
    def test_rise_fall_rise(self):
        p = np.geomspace(1e-12, 1e-6, 24)
        y = np.concatenate([np.linspace(0.1, 1.0, 9),
                            np.linspace(1.0, 0.4, 8)[1:],
                            np.linspace(0.4, 2.0, 9)[1:]])
        feat = extract_scurve_features(p, y)
        assert feat.n_regimes == 3
        assert feat.boundary_i_ii is not None and feat.boundary_ii_iii is not None
        i_max, i_min = 8, 15
        assert abs(np.log10(feat.boundary_i_ii / p[i_max])) < abs(np.log10(p[1] / p[0])) * 1.5
        assert abs(np.log10(feat.boundary_ii_iii / p[i_min])) < abs(np.log10(p[1] / p[0])) * 1.5

    def test_monotone_single_regime(self):
        p = np.geomspace(1e-12, 1e-6, 12)
        feat = extract_scurve_features(p, np.linspace(0, 1, 12))
        assert feat.n_regimes == 1
        assert feat.turning_points == ()

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            extract_scurve_features([1, 2, 3], [1, 2, 3])

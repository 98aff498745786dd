import math
import multiprocessing
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from cavens import core, dicke, lindblad
from cavens.core import (
    AssumptionReport,
    CavityParams,
    DecoherenceParams,
    EmitterEnsemble,
    ParameterError,
    SolverError,
    SystemModel,
    derive_rates,
    ensemble_cooperativity,
    mu_from_power,
    power_from_mu,
    propagate,
    validate_assumptions,
)
from cavens.units import TWO_PI, angular_to_hz, hz_to_angular


class TestUnits:
    @given(st.floats(min_value=1e-6, max_value=1e18))
    def test_hz_roundtrip(self, f):
        assert math.isclose(angular_to_hz(hz_to_angular(f)), f, rel_tol=1e-12)

    def test_paper_scale(self):
        assert math.isclose(hz_to_angular(44e9), TWO_PI * 44e9)


class TestParams:
    def test_cavity_invariants(self):
        with pytest.raises(ParameterError):
            CavityParams(kappa=-1.0, kappa_c=0.5)
        with pytest.raises(ParameterError):
            CavityParams(kappa=1.0, kappa_c=2.0)
        with pytest.raises(ParameterError):
            CavityParams(kappa=1.0, kappa_c=0.5, omega=0.0)

    def test_gamma_derived(self):
        dec = DecoherenceParams.from_hz(600, 6000)
        assert math.isclose(dec.gamma, hz_to_angular(6300))

    def test_ensemble_validation(self):
        with pytest.raises(ParameterError):
            EmitterEnsemble.explicit([(0.0, -1.0)])
        with pytest.raises(ParameterError):
            EmitterEnsemble.lorentzian(n_ions=5, delta_inh=-1.0, g=1.0)
        with pytest.raises(ParameterError):
            EmitterEnsemble.lorentzian(n_ions=5, delta_inh=1.0, g=1.0,
                                       g_hist=((1.0, 1.0),))
        with pytest.raises(ParameterError):
            EmitterEnsemble.lorentzian(n_ions=5, delta_inh=1.0,
                                       g_hist=((1.0, 0.5), (2.0, 0.5 + 1e-6)))

    @pytest.mark.parametrize("make, field", [
        (lambda: EmitterEnsemble.explicit([(math.nan, 1e6)]), "emitters"),
        (lambda: EmitterEnsemble.explicit([(0.0, 1e6), (0.0, math.inf)]), "emitters"),
        (lambda: EmitterEnsemble.explicit([(math.inf, 1e6)]), "emitters"),
        (lambda: EmitterEnsemble.lorentzian(5, delta_inh=math.inf, g=1.0), "delta_inh"),
        (lambda: EmitterEnsemble.lorentzian(5, delta_inh=1.0, g=math.inf), "g must"),
        (lambda: EmitterEnsemble.lorentzian(5, delta_inh=1.0, g=1.0, center=math.nan), "center"),
        (lambda: EmitterEnsemble.lorentzian(5, 1.0, g_hist=((math.inf, 1.0),)), "g_hist"),
        (lambda: EmitterEnsemble.lorentzian(5, 1.0, g_hist=((1.0, math.nan),)), "g_hist"),
        (lambda: CavityParams(kappa=math.inf, kappa_c=1.0), "kappa must"),
        (lambda: CavityParams(kappa=1.0, kappa_c=0.5, delta_c=math.nan), "delta_c"),
        (lambda: DecoherenceParams(gamma_s=math.nan), "gamma_s"),
        (lambda: DecoherenceParams(gamma_s=math.inf), "gamma_s"),
    ], ids=["explicit-nan-detuning", "explicit-inf-g", "explicit-inf-detuning",
            "inf-delta-inh", "inf-g", "nan-center", "hist-inf-g", "hist-nan-weight",
            "inf-kappa", "nan-delta-c", "nan-gamma-s", "inf-gamma-s"])
    def test_non_finite_field_rejected(self, make, field):
        with pytest.raises(ParameterError, match=re.escape(field)):
            make()

    def test_quantile_conversion_deterministic(self):
        ens = EmitterEnsemble.lorentzian(n_ions=101, delta_inh=hz_to_angular(150e6),
                                         g=hz_to_angular(10e6))
        e1, e2 = ens.to_explicit(), ens.to_explicit()
        assert e1.emitters == e2.emitters
        d = e1.detunings()
        assert np.allclose(d, -d[::-1])  # symmetric quantile medians
        assert abs(np.median(d)) < 1e-6

    def test_histogram_conversion_preserves_moments(self):
        hist = ((hz_to_angular(5e6), 0.25), (hz_to_angular(12e6), 0.75))
        ens = EmitterEnsemble.lorentzian(n_ions=400, delta_inh=hz_to_angular(150e6),
                                         g_hist=hist)
        expl = ens.to_explicit()
        g_mean, g2 = ens.g_moments()
        ge_mean, ge2 = expl.g_moments()
        assert math.isclose(ge_mean, g_mean, rel_tol=1e-2)
        assert math.isclose(ge2, g2, rel_tol=1e-2)
        # couplings not monotone in detuning (decorrelated assignment)
        gs = expl.couplings()
        assert len(set(np.round(gs, 3))) == 2


class TestDerivedRates:
    def test_purcell_paper_value(self, cavity, g35):
        rates = derive_rates(cavity, DecoherenceParams(0.0),
                             EmitterEnsemble.identical(1, g35))
        assert math.isclose(1.0 / rates.purcell, 1.4e-6, rel_tol=0.05)

    def test_average_purcell_time(self, cavity):
        g = hz_to_angular(10.6e6)
        rates = derive_rates(cavity, DecoherenceParams(0.0),
                             EmitterEnsemble.identical(1, g))
        assert math.isclose(1.0 / rates.purcell, 15.6e-6, rel_tol=0.01)

    def test_cooperativity_from_total_coupling(self, cavity, delta_inh):
        n = 1000
        g = hz_to_angular(4.4e9) / math.sqrt(n)
        ens = EmitterEnsemble.lorentzian(n_ions=n, delta_inh=delta_inh, g=g)
        c = ensemble_cooperativity(cavity, ens)
        assert math.isclose(c, 12.0, rel_tol=0.05)

    def test_cooperativity_missing_delta_inh(self, cavity, g35):
        ens = EmitterEnsemble.identical(4, g35)
        assert derive_rates(cavity, DecoherenceParams(0.0), ens).cooperativity is None
        with pytest.raises(ParameterError):
            ensemble_cooperativity(cavity, ens)

    @settings(max_examples=30, deadline=None)
    @given(gs=st.lists(st.floats(min_value=1e5, max_value=1e9), min_size=2, max_size=16))
    def test_cooperativity_additivity(self, gs, cavity, delta_inh):
        ens = EmitterEnsemble.explicit([(0.0, g) for g in gs])
        half = len(gs) // 2
        e1 = EmitterEnsemble.explicit([(0.0, g) for g in gs[:half]]) if half else None
        e2 = EmitterEnsemble.explicit([(0.0, g) for g in gs[half:]])
        total = ensemble_cooperativity(cavity, ens, delta_inh=delta_inh)
        parts = ensemble_cooperativity(cavity, e2, delta_inh=delta_inh)
        if e1 is not None:
            parts += ensemble_cooperativity(cavity, e1, delta_inh=delta_inh)
        assert math.isclose(total, parts, rel_tol=1e-12)


class TestMuPower:
    def test_zero_and_linearity(self, cavity):
        assert mu_from_power(0.0, cavity) == 0.0
        m1 = mu_from_power(1e-9, cavity)
        assert math.isclose(mu_from_power(2e-9, cavity), 2.0 * m1, rel_tol=1e-12)

    def test_direct_evaluation(self, cavity):
        # hand evaluation of kappa_c P / ((kappa/2)^2 hbar omega)
        from scipy.constants import hbar

        expected = (TWO_PI * 8.8e9) * 1e-9 / ((TWO_PI * 22e9) ** 2 * hbar * TWO_PI * 304500e9)
        assert math.isclose(mu_from_power(1e-9, cavity), expected, rel_tol=1e-12)
        assert math.isclose(mu_from_power(1e-9, cavity), 0.014342145225006354, rel_tol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(min_value=1e-15, max_value=1e-3))
    def test_power_roundtrip(self, p, cavity):
        mu = mu_from_power(p, cavity)
        assert math.isclose(power_from_mu(mu, cavity), p, rel_tol=1e-12)


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_drive_rejected(self, cavity, bad):
        """NaN or inf went through both conversions unchecked."""
        with pytest.raises(ParameterError, match="power_in must be finite and >= 0"):
            mu_from_power(bad, cavity)
        with pytest.raises(ParameterError, match="mu must be finite and >= 0"):
            power_from_mu(bad, cavity)

    def test_negative_drive_rejected(self, cavity):
        with pytest.raises(ParameterError, match="power_in must be finite and >= 0"):
            mu_from_power(-1e-9, cavity)
        with pytest.raises(ParameterError, match="mu must be finite and >= 0"):
            power_from_mu(-1e-3, cavity)


class TestValidateAssumptions:
    def _model(self, cavity, decoherence, delta_inh, c=12.0, n=1000):
        from conftest import coupling_for_cooperativity

        g = coupling_for_cooperativity(c, cavity, delta_inh, n)
        return SystemModel(cavity, decoherence,
                           EmitterEnsemble.lorentzian(n_ions=n, delta_inh=delta_inh, g=g))

    def test_tavis_cummings_ratio_50(self, cavity, delta_inh):
        # total coupling chosen so |W(center)| = 2pi x 0.5 THz, FSR = 2pi x 25 THz
        dec = DecoherenceParams.from_hz(600, 6000)
        n = 700000
        w_target = hz_to_angular(0.5e12)
        g = math.sqrt(w_target * (dec.gamma + 0.5 * delta_inh) / n)
        model = SystemModel(cavity, dec,
                            EmitterEnsemble.lorentzian(n_ions=n, delta_inh=delta_inh, g=g))
        report = validate_assumptions(model, 1e-3, fsr=hz_to_angular(25e12))
        tc = report["tavis_cummings"]
        assert tc.passed and math.isclose(tc.ratio, 50.0, rel_tol=0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_bad_drive_raises(self, cavity, decoherence, delta_inh, bad):
        """A NaN mu returned a report quietly."""
        with pytest.raises(ParameterError, match="mu must be finite and >= 0"):
            validate_assumptions(self._model(cavity, decoherence, delta_inh), bad)

    def test_mu_zero_fails_lower_bound(self, cavity, decoherence, delta_inh):
        model = self._model(cavity, decoherence, delta_inh)
        report = validate_assumptions(model, 0.0)
        assert not report["power_lower"].passed

    def test_low_cooperativity_fails(self, cavity, decoherence, delta_inh):
        model = self._model(cavity, decoherence, delta_inh, c=0.5)
        report = validate_assumptions(model, 1e-3)
        assert not report["high_cooperativity"].passed

    def test_report_is_dict_serializable(self, cavity, decoherence, delta_inh):
        model = self._model(cavity, decoherence, delta_inh)
        report = validate_assumptions(model, 1e-3)
        assert isinstance(report, AssumptionReport)
        d = report.as_dict()
        assert set(d["checks"]) >= {"high_cooperativity", "power_lower", "power_upper",
                                    "inhomogeneity"}


class TestPropagate:
    @staticmethod
    def _five_ions(mu, cavity, decoherence, g35):
        """Full-space superoperator of 5 inhomogeneous ions (dimension 1024,
        Krylov by default) and the ground state."""
        ens = EmitterEnsemble.explicit([(hz_to_angular(d), g35 * s) for d, s in
                                        ((0.0, 1.0), (3e6, 0.8), (-5e6, 1.2),
                                         (1e6, 0.9), (8e6, 1.1))])
        matrix = lindblad.build_generator(ens, mu, cavity, decoherence).superoperator()
        return matrix, lindblad.DensityState.ground(5).matrix.reshape(-1)

    @pytest.mark.parametrize("layer", ["block", "full"])
    def test_dense_and_krylov_agree(self, layer, cavity, decoherence, g35, monkeypatch):
        """One 1 us step on each side of the cutoff: the n = 16 block
        generator (dimension 969, dense by default) and the n = 5 full-space
        superoperator (dimension 1024, Krylov by default)."""
        mu = 1e-6
        if layer == "block":
            gen = dicke.build_block_generator(16, g35, mu, cavity, decoherence,
                                              detuning=hz_to_angular(20e6))
            matrix, vec = gen.matrix, dicke.DickeBlockState.all_ground(16).to_vec()
        else:
            matrix, vec = self._five_ions(mu, cavity, decoherence, g35)
        assert matrix.shape[0] == (969 if layer == "block" else 1024)
        assert (matrix.shape[0] <= core.DENSE_DIM_MAX) == (layer == "block")
        monkeypatch.setattr(core, "DENSE_DIM_MAX", 10**6)
        dense = core.propagate(matrix, vec, [1e-6])[0]
        monkeypatch.setattr(core, "DENSE_DIM_MAX", 0)
        krylov = core.propagate(matrix, vec, [1e-6])[0]
        assert np.max(np.abs(dense - vec)) > 1e-3  # the step moves the state
        assert np.max(np.abs(dense - krylov)) <= 1e-10

    def test_krylov_reproducible(self, cavity, decoherence, g35):
        """Krylov propagation gives the same bits whatever numpy's global
        random state was before it, and leaves that state as it was."""
        matrix, vec = self._five_ions(1e-6, cavity, decoherence, g35)
        assert matrix.shape[0] > core.DENSE_DIM_MAX
        runs = []
        for seed in (1, 2):
            np.random.seed(seed)
            runs.append(core.propagate(matrix, vec, [1e-6, 3e-6]))
            drawn = np.random.random()
            np.random.seed(seed)
            assert drawn == np.random.random()  # the caller's stream is untouched
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    @pytest.mark.parametrize("times", [[10e-6, 5e-6], [25e-6, 5e-6], [math.nan], [-1e-6]])
    def test_bad_observe_times_rejected(self, times, cavity, decoherence, g35):
        """Decreasing or non-finite observe times raise instead of reporting
        the state of another time (the pulse ends at 20 us)."""
        model = SystemModel(cavity, decoherence, EmitterEnsemble.identical(2, g35))
        with pytest.raises(ParameterError, match="non-decreasing"):
            lindblad.pulsed_emission(model, 1e-6, 20e-6, times)
        gen = dicke.build_block_generator(2, g35, 1e-6, cavity, decoherence)
        with pytest.raises(ParameterError, match="non-decreasing"):
            dicke.block_evolve(gen, dicke.DickeBlockState.all_ground(2), times)

    @pytest.mark.parametrize("pulse", [math.nan, math.inf, 0.0, -1e-6])
    def test_bad_pulse_length_rejected(self, pulse):
        """A NaN pulse length was reported as a bad observe time."""
        decay = csr_matrix(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ParameterError, match="pulse_length must be finite and positive"):
            core.pulse_protocol(decay, decay, np.array([1.0, 0.0]), pulse, np.array([1.0, 0.0]),
                                1.0)

    def test_window_on_the_callers_sector(self):
        """The detection window runs on the (sector, restricted matrix) pair
        the caller passes: on a sector the drive-off matrix keeps, it gives
        the counts of the whole space, and another matrix gives others."""
        sector, vec0, row = np.array([0, 1]), np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
        offs = [csr_matrix(np.array([[-rate, 0.0, 0.0], [rate, 0.0, 0.0], [0.0, 0.0, -1.0]]))
                for rate in (1e6, 3e7)]
        on_sector = [core.pulse_protocol(off, off, vec0, 1e-6, row, 1.0,
                                         off_window=(sector, off[sector][:, sector]))
                     for off in offs]
        for off, run in zip(offs, on_sector):
            whole = core.pulse_protocol(off, off, vec0, 1e-6, row, 1.0)
            assert math.isclose(run.peak_counts, whole.peak_counts, rel_tol=1e-12)
        assert on_sector[1].peak_counts < on_sector[0].peak_counts
        other = core.pulse_protocol(offs[0], offs[0], vec0, 1e-6, row, 1.0,
                                    off_window=(sector, offs[1][sector][:, sector]))
        assert other.peak_counts < on_sector[0].peak_counts

    def test_repeated_and_zero_steps(self):
        """A zero or repeated time returns the present vector unchanged."""
        decay = csr_matrix(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        out = propagate(decay, np.array([1.0, 0.0]), [0.0, 0.5, 0.5, 1.0])
        pops = [v[0] for v in out]
        assert pops[0] == 1.0 and pops[1] == pops[2]
        assert math.isclose(pops[3], math.exp(-1.0), rel_tol=1e-12)

    @staticmethod
    def _three_ions(cavity, decoherence, g35):
        """Drive-on generator of 3 identical ions at 60 MHz, where ||L t||_1
        is about 3.5e4 at 30 us (20 rows, dense by default), and its ground
        state."""
        space = dicke.GroupSpace(np.full(3, hz_to_angular(60e6)), np.full(3, g35))
        return dicke.group_generator(space, 1e-3, cavity, decoherence), space.ground()

    @staticmethod
    def _count(monkeypatch, module, name: str) -> list:
        """The calls of ``module.name`` from now on."""
        calls, real = [], getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_exponential_per_step_length(self, cavity, decoherence, g35, monkeypatch):
        """A linspace grid's steps differ in their last bits, but the dense
        branch computes one exponential for the grid, also for its times
        after a 20 us pulse end, whose first step is about one rounding
        shorter than the rest, and one per spacing for two grids of
        different spacing joined, or for steps that alternate between
        lengths 2e-9 apart, relative."""
        import scipy.linalg

        matrix, vec = self._three_ions(cavity, decoherence, g35)
        uniform = np.linspace(1e-6, 30e-6, 30)
        after = uniform[20:] - 20e-6
        joined = np.append(uniform, np.linspace(30.5e-6, 40e-6, 20))
        alternating = np.cumsum(np.tile([1e-6 * (1 + 1e-9), 1e-6 * (1 - 1e-9)], 15))
        assert len(set(np.diff(uniform))) > 1 and after[0] < np.median(np.diff(after))
        for times, grid_end, lengths in ((uniform, 0.0, 1), (after, 30e-6, 1), (joined, 0.0, 2),
                                         (alternating, 0.0, 2)):
            calls = self._count(monkeypatch, scipy.linalg, "expm")
            propagate(matrix, vec, times, grid_end)
            assert len(calls) == lengths

    @pytest.mark.parametrize("dense", [True, False])
    def test_step_below_the_rounding_not_taken(self, dense, cavity, decoherence, g35,
                                               monkeypatch):
        """A step no longer than 4 ulps of the grid's largest time returns
        the present vector, bit for bit, on either branch.  ``grid_end``
        sets that time when the call's own times end earlier."""
        import scipy.linalg

        matrix, vec = self._three_ions(cavity, decoherence, g35)
        monkeypatch.setattr(core, "DENSE_DIM_MAX", 10**6 if dense else 0)
        expm_calls = self._count(monkeypatch, scipy.linalg, "expm")
        krylov_calls = self._count(monkeypatch, core, "_krylov_step")
        t = 20e-6
        out = propagate(matrix, vec, [t, np.nextafter(t, 1.0), t + 8e-21])
        assert np.array_equal(out[1], out[0]) and np.array_equal(out[2], out[0])
        assert (len(expm_calls), len(krylov_calls)) == ((1, 0) if dense else (0, 1))
        # 1e-20 s is above the rounding of 1 us and below that of 30 us
        taken = propagate(matrix, vec, [1e-6, 1e-6 + 1e-20])
        assert not np.array_equal(taken[1], taken[0])
        skipped = propagate(matrix, vec, [1e-6, 1e-6 + 1e-20], grid_end=30e-6)
        assert np.array_equal(skipped[1], skipped[0])

    def test_merged_steps_within_the_exponentials_error(self, cavity, decoherence, g35):
        """Every state on a linspace grid agrees with exact per-step
        propagation, one exponential of each step's own length, within
        ||A t_k||_1 u."""
        from scipy.linalg import expm

        matrix, vec = self._three_ions(cavity, decoherence, g35)
        lv = matrix.toarray()
        norm, u = np.abs(lv).sum(axis=0).max(), np.finfo(float).eps / 2
        times = np.linspace(1e-6, 30e-6, 30)
        exact, t_prev = vec, 0.0
        for tk, got in zip(times, propagate(matrix, vec, times), strict=True):
            exact, t_prev = expm(lv * (tk - t_prev)) @ exact, tk
            assert np.max(np.abs(got - exact)) <= norm * tk * u * np.max(np.abs(exact))

    def test_propagated_time_does_not_drift(self):
        """Merged steps keep every state within the grid's rounding of its
        own time, however many steps led there: on 400 steps of 1 us, the
        first and the last 200 of them 1.5e-19 s longer (all within the
        rounding of each other), a rotation at omega lands each sample
        within omega (rounding + t_k eps) of its exact angle."""
        omega = TWO_PI * 1e6
        rotation = csr_matrix(np.array([[0.0, -omega], [omega, 0.0]]))
        steps = np.full(400, 1e-6)
        steps[0] += 1.5e-19
        steps[200:] += 1.5e-19
        times = np.cumsum(steps)
        eps = np.finfo(float).eps
        for tk, got in zip(times, propagate(rotation, np.array([1.0, 0.0]), times), strict=True):
            exact = np.array([math.cos(omega * tk), math.sin(omega * tk)])
            assert np.max(np.abs(got - exact)) <= omega * (4 * eps * times[-1] + tk * eps)

    def test_observe_time_one_rounding_below_the_pulse_end(self, cavity, decoherence, g35,
                                                           monkeypatch):
        """linspace(1e-6, 30e-6, 30)[19] is 2e-5 - 3.4e-21: with a 20 us
        pulse its state is ``PulseRun.end``, bit for bit, and it costs no
        exponential that the sample at 2e-5 exactly does not."""
        import scipy.linalg

        space = dicke.GroupSpace(np.full(3, hz_to_angular(60e6)), np.full(3, g35))
        gen_on = dicke.group_generator(space, 1e-3, cavity, decoherence)
        gen_off = dicke.group_generator(space, 0.0, cavity, decoherence)
        times, pulse = np.linspace(1e-6, 30e-6, 30), 20e-6
        assert 0.0 < pulse - times[19] <= 4 * np.finfo(float).eps * pulse
        on_time = times.copy()
        on_time[19] = pulse
        counts = []
        for grid in (times, on_time):
            calls = self._count(monkeypatch, scipy.linalg, "expm")
            run = core.pulse_protocol(gen_on, gen_off, space.ground(), pulse,
                                      space.rows["jpjm"], 1.0, grid, compute_counts=False)
            assert np.array_equal(run.observed[19], run.end)
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestOneBlasThread:
    @staticmethod
    def _fake_controls(monkeypatch, counts):
        """Thread-count controls over the entries of ``counts``."""
        controls = tuple((lambda i=i: counts[i], lambda n, i=i: counts.__setitem__(i, n))
                         for i in range(len(counts)))
        monkeypatch.setattr(core, "_openblas_thread_controls", lambda: controls)

    def test_restores_after_exit_and_exception(self, monkeypatch):
        counts = [3, 2]
        self._fake_controls(monkeypatch, counts)
        with core.one_blas_thread():
            assert counts == [1, 1]
        assert counts == [3, 2]
        with pytest.raises(RuntimeError):
            with core.one_blas_thread():
                assert counts == [1, 1]
                raise RuntimeError
        assert counts == [3, 2]

    def test_nests(self, monkeypatch):
        counts = [3, 2]
        self._fake_controls(monkeypatch, counts)
        with core.one_blas_thread():
            with core.one_blas_thread():
                assert counts == [1, 1]
            assert counts == [1, 1]
        assert counts == [3, 2]

    def test_overlapping_threads(self, monkeypatch):
        """Blocks opened and closed by more threads than cores: every block
        runs on one thread, and the counts come back when the last closes."""
        import sys
        import threading

        counts = [3, 2]
        self._fake_controls(monkeypatch, counts)
        seen = []

        def work():
            for _ in range(200):
                with core.one_blas_thread():
                    seen.append(tuple(counts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(seen) == 8 * 200 and set(seen) == {(1, 1)}
        assert counts == [3, 2]

    def test_pins_the_bundled_libraries(self):
        controls = core._openblas_thread_controls()
        if not controls:
            pytest.skip("numpy and scipy load no OpenBLAS with a thread-count setter")
        before = [get() for get, _ in controls]
        try:
            for _, put in controls:
                put(2)
            with core.one_blas_thread():
                assert [get() for get, _ in controls] == [1] * len(controls)
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, put), n in zip(controls, before):
                put(n)

    def test_no_setter_runs_as_before(self, cavity, decoherence, g35, monkeypatch):
        gen = dicke.build_block_generator(4, g35, 1e-6, cavity, decoherence,
                                          detuning=hz_to_angular(2e6))
        vec = dicke.DickeBlockState.all_ground(4).to_vec()
        times = [1e-6, 2e-6, 2e-6, 5e-6]
        pinned = core.propagate(gen.matrix, vec, times)
        monkeypatch.setattr(core, "_openblas_thread_controls", lambda: ())
        unpinned = core.propagate(gen.matrix, vec, times)
        assert np.max(np.abs(pinned[-1] - vec)) > 1e-3
        assert all(np.array_equal(a, b) for a, b in zip(pinned, unpinned))


def _pid(_task) -> int:
    return os.getpid()


def _nested(_task) -> tuple:
    """A worker's pid, its usable cores and the pids of a pool it asks for."""
    return os.getpid(), core.USABLE_CORES, core.fork_map(_pid, [0, 1])


def _fails(task: int) -> int:
    if task == 1:
        raise SolverError("no root", point=f"task {task}", method="newton", residual=0.25)
    return task


def _threads_after_a_dense_solve(seed: int) -> int:
    """The OS threads of this process after a dense 200-row propagation."""
    gen = csr_matrix(np.random.default_rng(seed).standard_normal((200, 200)) * 1e-2)
    core.propagate(gen, np.ones(200), [1.0])
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="fork_map runs serially without the fork start method")
class TestForkMap:
    def test_runs_in_workers_in_order(self, monkeypatch):
        monkeypatch.setattr(core, "USABLE_CORES", 2)
        assert core.fork_map(abs, [-3, -2, -1, 0]) == [3, 2, 1, 0]
        pids = core.fork_map(_pid, [0, 1, 2, 3])
        assert os.getpid() not in pids and len(set(pids)) <= 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores, tasks", [(1, 4), (2, 1), (2, 0)])
    def test_serial_on_one_core_or_task(self, monkeypatch, cores, tasks):
        monkeypatch.setattr(core, "USABLE_CORES", cores)
        assert core.fork_map(_pid, list(range(tasks))) == [os.getpid()] * tasks

    def test_no_pool_inside_a_worker(self, monkeypatch):
        """A worker sees the parent's two usable cores, and runs a pool it
        is asked for itself."""
        monkeypatch.setattr(core, "USABLE_CORES", 2)
        for pid, cores, inner in core.fork_map(_nested, [0, 1]):
            assert pid != os.getpid() and cores == 2 and inner == [pid, pid]

    def test_worker_error_propagates(self, monkeypatch):
        monkeypatch.setattr(core, "USABLE_CORES", 2)
        with pytest.raises(TypeError):
            core.fork_map(abs, [1, "a", 2])
        assert multiprocessing.active_children() == []

    def test_worker_solver_error_keeps_its_fields(self, monkeypatch):
        """A task's SolverError reaches the caller as itself, with its point,
        method and residual, not as a broken pool."""
        monkeypatch.setattr(core, "USABLE_CORES", 2)
        with pytest.raises(SolverError) as err:
            core.fork_map(_fails, [0, 1, 2])
        e = err.value
        assert (e.point, e.method, e.residual) == ("task 1", "newton", 0.25)
        assert str(e) == "newton solve at task 1: no root (residual 2.500e-01)"
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads /proc/self/task")
    def test_a_worker_keeps_one_thread(self, monkeypatch):
        """A worker inherits the BLAS pin, so its dense solve sets no thread
        count and OpenBLAS starts no thread pool in it: setting one in a
        forked child would start that pool anew."""
        import scipy.linalg  # noqa: F401  (loaded at set-up by a run that propagates)

        monkeypatch.setattr(core, "USABLE_CORES", 2)
        assert core.fork_map(_threads_after_a_dense_solve, [0, 1, 2, 3]) == [1] * 4

    def test_sweep_workers_start_no_pool(self, monkeypatch):
        """A 5-point sweep of a binned s-curve, two solves a point: on two
        usable cores only the sweep forks (its two workers), not the S-curve
        inside them; on one nothing forks; the rows are the same."""
        from cavens.config import build_config
        from cavens.experiments import run_sweep

        parent, forks, real_fork = os.getpid(), [], os.fork

        def fork():
            if os.getpid() != parent:
                raise AssertionError("a sweep worker forked")
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        cfg = build_config("""
experiment = s-curve
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 6000
decoherence.gamma_d_hz = 600
ensemble.kind = lorentzian
ensemble.n_ions = 4
ensemble.g_hz = 35e6
ensemble.delta_inh_hz = 150e6
bins.n = 3
bins.width_hz = 50e6
drive.pulse_length_s = 5e-6
grid.power.start_w = 1e-13
grid.power.stop_w = 1e-11
grid.power.num = 2
sweep.axis = detuning_hz
sweep.values = 0, 10e6, 20e6, 30e6, 40e6
""")
        monkeypatch.setattr(core, "USABLE_CORES", 1)
        one = run_sweep(cfg)
        assert forks == []
        monkeypatch.setattr(core, "USABLE_CORES", 2)
        two = run_sweep(cfg)
        assert len(forks) == 2
        assert repr(two.tables[0].rows) == repr(one.tables[0].rows)
        assert two.failures == one.failures == []
        assert multiprocessing.active_children() == []

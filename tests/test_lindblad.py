import math

import numpy as np
import pytest

from cavens.core import PEAK_WINDOW, DecoherenceParams, EmitterEnsemble, ParameterError, SystemModel
from cavens.lindblad import (
    CapabilityError,
    DensityState,
    build_generator,
    collective_operators,
    dicke_projection,
    evolve,
    evolve_expm,
    pulsed_emission,
    saturation_comparison,
)
from cavens.units import hz_to_angular

from _oracles import cavity_included_trajectory


def purcell(cavity, g):
    return 4.0 * g**2 / cavity.kappa


class TestGenerator:
    def test_capability_limit(self, cavity, decoherence, g35):
        with pytest.raises(CapabilityError):
            build_generator(EmitterEnsemble.identical(9, g35), 0.0, cavity, decoherence)

    @pytest.mark.parametrize("mu", [math.inf, math.nan, -1e-6])
    def test_drive_must_be_finite_and_non_negative(self, cavity, decoherence, g35, mu):
        with pytest.raises(ParameterError, match="mu must be finite and >= 0"):
            build_generator(EmitterEnsemble.identical(2, g35), mu, cavity, decoherence)

    def test_single_emitter_purcell_decay(self, cavity, g35):
        dec0 = DecoherenceParams(0.0, 0.0)
        gen = build_generator(EmitterEnsemble.identical(1, g35), 0.0, cavity, dec0)
        gc = purcell(cavity, g35)
        times = np.linspace(0.2, 3.0, 5) / gc
        states = evolve(DensityState.from_pure(np.array([1.0, 0.0])), gen, times)
        pop = np.array([s.matrix[0, 0].real for s in states])
        assert np.allclose(pop, np.exp(-gc * times), rtol=1e-6, atol=1e-9)

    def test_two_emitter_bright_and_dark(self, cavity, g35):
        dec0 = DecoherenceParams(0.0, 0.0)
        gen = build_generator(EmitterEnsemble.identical(2, g35), 0.0, cavity, dec0)
        gc = purcell(cavity, g35)
        ops = collective_operators(2)
        sym = DensityState.from_pure(np.array([0, 1.0, 1.0, 0]) / math.sqrt(2))
        anti = DensityState.from_pure(np.array([0, 1.0, -1.0, 0]) / math.sqrt(2))
        times = np.array([0.5, 1.0]) / gc
        exc_sym = [s.expect(ops["individual"]).real for s in evolve(sym, gen, times)]
        exc_anti = [s.expect(ops["individual"]).real for s in evolve(anti, gen, times)]
        assert np.allclose(exc_sym, np.exp(-2.0 * gc * times), rtol=1e-6)
        assert np.allclose(exc_anti, 1.0, atol=1e-9)

    def test_detuned_cavity_exchange_term(self, cavity, g35):
        from cavens.core import CavityParams

        dc = hz_to_angular(10e9)
        cav_det = CavityParams(kappa=cavity.kappa, kappa_c=cavity.kappa_c,
                               delta_c=dc, omega=cavity.omega)
        gen = build_generator(EmitterEnsemble.identical(2, g35), 0.0, cav_det,
                              DecoherenceParams(0.0, 0.0))
        ops = collective_operators(2)
        expected = (dc / ((0.5 * cavity.kappa) ** 2 + dc**2)) * g35**2
        coeff = (gen.hamiltonian.multiply(ops["jpjm"].conj()).sum()
                 / ops["jpjm"].multiply(ops["jpjm"].conj()).sum())
        assert math.isclose(coeff.real, expected, rel_tol=1e-12)

    def test_drive_amplitude_vs_cavity_oracle(self):
        """Cavity-included dynamics pin the adiabatic drive to g sqrt(mu);
        the printed g*mu form is grossly off.  Both residuals logged."""
        kappa, g, mu = 1000.0, 2.0, 0.25
        from cavens.core import CavityParams

        cav = CavityParams(kappa=kappa, kappa_c=0.2 * kappa, omega=1e15)
        dec = DecoherenceParams(gamma_s=0.05, gamma_d=0.0)
        times = np.linspace(0.1, 2.0, 8)
        ref = cavity_included_trajectory(1, g, mu, kappa, dec.gamma_s, dec.gamma_d,
                                         [0.0], times, n_photons=5)[:, 0]
        ens = EmitterEnsemble.identical(1, g)
        ops = collective_operators(1)

        def adiabatic(mu_eff):
            gen = build_generator(ens, mu_eff, cav, dec)
            states = evolve_expm(DensityState.ground(1), gen, times)
            return np.array([2.0 * (s.expect(ops["individual"]).real - 0.5) for s in states])

        dev_sqrt = np.max(np.abs(adiabatic(mu) - ref))
        dev_linear = np.max(np.abs(adiabatic(mu**2) - ref))  # g*mu = g*sqrt(mu^2)
        print(f"\ndrives vs cavity oracle: g*sqrt(mu) dev={dev_sqrt:.2e}, "
              f"g*mu dev={dev_linear:.2e}")
        assert dev_sqrt < 2e-2
        assert dev_linear > 10 * dev_sqrt


class TestEvolve:
    def test_zero_generator_constant(self, cavity):
        gen = build_generator(EmitterEnsemble.identical(1, 1e-3), 0.0, cavity,
                              DecoherenceParams(0.0, 0.0))
        state = DensityState.from_pure(np.array([1.0, 1.0]) / math.sqrt(2))
        out = evolve(state, gen, [1.0])[0]
        assert np.allclose(out.matrix, state.matrix, atol=1e-8)

    def test_times_validation(self, cavity, decoherence, g35):
        gen = build_generator(EmitterEnsemble.identical(1, g35), 0.0, cavity, decoherence)
        state = DensityState.ground(1)
        with pytest.raises(ParameterError):
            evolve(state, gen, [2e-6, 1e-6])

    def test_raw_dephasing_form_gives_2gamma_d(self, cavity, g35):
        """The verbatim written form gamma_d (sz rho sz - rho) decays the
        coherence at 2 gamma_d; the shipped 1/2-scaled channel restores the
        gamma = gamma_s/2 + gamma_d bookkeeping."""
        from cavens.lindblad import Liouvillian, site_operator

        gd = hz_to_angular(6e3)
        h = 0.0 * site_operator(1, 0, "sz")
        raw = Liouvillian(1, h, [(gd, site_operator(1, 0, "sz"))], purcell=0.0)
        state = DensityState.from_pure(np.array([1.0, 1.0]) / math.sqrt(2))
        times = np.linspace(0.1, 1.5, 4) / (2 * gd)
        coh = [abs(s.matrix[0, 1]) for s in evolve_expm(state, raw, times)]
        assert np.allclose(coh, 0.5 * np.exp(-2.0 * gd * times), rtol=1e-9)

    def test_single_emitter_total_coherence_rate(self, cavity, decoherence, g35):
        """Coherence decays at gamma_s/2 + gamma_d + Gamma_c/2, pinning the
        dephasing normalization against the gamma convention."""
        gen = build_generator(EmitterEnsemble.identical(1, g35), 0.0, cavity, decoherence)
        rate = 0.5 * decoherence.gamma_s + decoherence.gamma_d + 0.5 * purcell(cavity, g35)
        state = DensityState.from_pure(np.array([1.0, 1.0]) / math.sqrt(2))
        times = np.linspace(0.2, 2.0, 5) / rate
        coh = np.array([abs(s.matrix[0, 1]) for s in evolve(state, gen, times)])
        fit_rate = -np.polyfit(times, np.log(coh), 1)[0]
        assert math.isclose(fit_rate, rate, rel_tol=1e-6)

    def test_trace_preserved_long_horizon(self, cavity, decoherence, g35):
        gen = build_generator(EmitterEnsemble.identical(1, g35), 0.0, cavity, decoherence)
        state = DensityState.from_pure(np.array([1.0, 1.0]) / math.sqrt(2))
        out = evolve_expm(state, gen, [1e6 / purcell(cavity, g35)])[0]
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-9

    def test_trajectory_state_quality(self, cavity, decoherence, g35):
        ens = EmitterEnsemble.identical(3, g35)
        gen = build_generator(ens, 1e-6, cavity, decoherence)
        gc = purcell(cavity, g35)
        for s in evolve(DensityState.ground(3), gen, np.linspace(0.3, 3.0, 4) / gc):
            s.validate()

    def test_permutation_symmetry(self, cavity, decoherence, g35):
        from cavens.lindblad import site_operator

        n = 4
        gen = build_generator(EmitterEnsemble.identical(n, g35), 2e-6, cavity, decoherence)
        state = evolve(DensityState.ground(n), gen,
                       [1.0 / purcell(cavity, g35)])[0]
        pops = [state.expect(site_operator(n, k, "sp") @ site_operator(n, k, "sm")).real
                for k in range(n)]
        assert np.ptp(pops) < 1e-9

    def test_energy_bookkeeping(self, cavity, g35):
        """With no dephasing and no drive:
        d<sum sz>/dt = -2 (Gamma_c <J+J-> + gamma_s sum <n_i>)."""
        dec = DecoherenceParams(gamma_s=hz_to_angular(50e3), gamma_d=0.0)
        n = 3
        ens = EmitterEnsemble.identical(n, g35)
        gen = build_generator(ens, 0.0, cavity, dec)
        ops = collective_operators(n)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = DensityState.from_pure(v)
        lhs = np.trace((2.0 * ops["jz"]).toarray() @ gen.apply(state.matrix)).real
        rhs = -2.0 * (purcell(cavity, g35) * state.expect(ops["jpjm"]).real
                      + dec.gamma_s * state.expect(ops["individual"]).real)
        assert math.isclose(lhs, rhs, rel_tol=1e-9)

    def test_antisymmetric_dark_state_rate(self, cavity, g35):
        dec = DecoherenceParams(gamma_s=hz_to_angular(30e3), gamma_d=0.0)
        gen = build_generator(EmitterEnsemble.identical(2, g35), 0.0, cavity, dec)
        anti = DensityState.from_pure(np.array([0, 1.0, -1.0, 0]) / math.sqrt(2))
        times = np.linspace(0.2, 2.0, 4) / dec.gamma_s
        ops = collective_operators(2)
        pops = np.array([s.expect(ops["individual"]).real
                         for s in evolve(anti, gen, times)])
        assert np.allclose(pops, np.exp(-dec.gamma_s * times), rtol=1e-6)


class TestPulsedEmission:
    def test_zero_drive_zero_trace(self, cavity, decoherence, g35):
        model = SystemModel(cavity, decoherence, EmitterEnsemble.identical(2, g35))
        res = pulsed_emission(model, 0.0, 10e-6, np.linspace(1e-6, 30e-6, 7))
        assert np.allclose(res.trace.jpjm, 0.0, atol=1e-12)
        assert res.peak_counts == 0.0

    def test_split_identity_and_low_power_decay(self, cavity, g35):
        dec = DecoherenceParams.from_hz(600, 600)
        n = 4
        model = SystemModel(cavity, dec, EmitterEnsemble.identical(n, g35))
        gc = purcell(cavity, g35)
        times = np.concatenate([[25e-6, 50e-6], 50e-6 + np.linspace(0.02, 0.3, 6) / (n * gc)])
        res = pulsed_emission(model, 1e-9, 50e-6, times, use_expm=True)
        tr = res.trace
        assert np.max(np.abs(tr.jpjm - (tr.individual + tr.correlation))) < 1e-9
        assert np.all(tr.individual >= -1e-12) and np.all(tr.individual <= n)
        # post-pulse single-exponential collective decay at n Gamma_c
        post = tr.times > 50e-6
        rate = -np.polyfit(tr.times[post] - 50e-6, np.log(tr.jpjm[post]), 1)[0]
        assert math.isclose(rate, n * gc, rel_tol=0.03)


    def test_matches_ode_oracle(self, cavity, g35):
        """3 inhomogeneous ions, observe times on both sides of the pulse
        end: the exponential protocol against DOP853 at rtol 1e-10."""
        dec = DecoherenceParams.from_hz(6000, 600)
        ens = EmitterEnsemble.explicit([(0.0, g35), (hz_to_angular(3e6), 0.8 * g35),
                                        (hz_to_angular(-5e6), 1.2 * g35)])
        model = SystemModel(cavity, dec, ens)
        mu, pulse = 1e-6, 10e-6
        times = np.array([2e-6, 6e-6, 10e-6, 10.05e-6, 10.4e-6])
        res = pulsed_emission(model, mu, pulse, times)

        ode = dict(rtol=1e-10, atol=1e-13)
        gen_on = build_generator(ens, mu, cavity, dec)
        gen_off = build_generator(ens, 0.0, cavity, dec)
        jpjm = collective_operators(3)["jpjm"]
        on = evolve(DensityState.ground(3), gen_on, times[:3], **ode)
        off = evolve(on[-1], gen_off, times[3:] - pulse, **ode)
        ref = np.array([s.expect(jpjm).real for s in on + off])
        window = np.linspace(0.0, PEAK_WINDOW, 9)
        counts = [s.expect(jpjm).real for s in [on[-1]] + evolve(on[-1], gen_off, window[1:], **ode)]
        ref_counts = gen_on.purcell * np.trapezoid(counts, window)

        assert np.all(ref > 1e-4)
        assert np.allclose(res.trace.jpjm, ref, rtol=1e-7, atol=0.0)
        assert math.isclose(res.peak_instant, gen_on.purcell * ref[2], rel_tol=1e-7)
        assert math.isclose(res.peak_counts, ref_counts, rel_tol=1e-7)

    def test_ode_stepping_rejected(self, cavity, decoherence, g35):
        model = SystemModel(cavity, decoherence, EmitterEnsemble.identical(2, g35))
        with pytest.raises(ParameterError, match="lindblad.evolve"):
            pulsed_emission(model, 1e-6, 10e-6, [10e-6], use_expm=False)


class TestDickeProjection:
    def test_ground_state(self):
        proj = dicke_projection(DensityState.ground(4), 4)
        assert math.isclose(proj.ground, 1.0, abs_tol=1e-12)
        assert proj.superradiant_ladder < 1e-12 and proj.subradiant < 1e-12

    def test_completely_mixed_degeneracies(self):
        n = 4
        mixed = DensityState(2**n, np.eye(2**n, dtype=complex) / 2**n)
        proj = dicke_projection(mixed, n)
        per_j = {}
        for (j, _m), p in proj.populations.items():
            per_j[j] = per_j.get(j, 0.0) + p
        # weights proportional to degeneracy x (2J+1): d={1,3,2} for J={2,1,0}
        assert math.isclose(per_j[2.0], 5 / 16, rel_tol=1e-9)
        assert math.isclose(per_j[1.0], 9 / 16, rel_tol=1e-9)
        assert math.isclose(per_j[0.0], 2 / 16, rel_tol=1e-9)
        assert math.isclose(sum(proj.populations.values()), 1.0, rel_tol=1e-9)

    def test_strong_long_drive_approaches_mixed(self, cavity, g35):
        dec = DecoherenceParams.from_hz(6000, 600)
        n = 3
        model = SystemModel(cavity, dec, EmitterEnsemble.identical(n, g35))
        res = pulsed_emission(model, 0.1, 200e-6, [200e-6], use_expm=True)
        proj = dicke_projection(res.final_state, n)
        mixed = DensityState(2**n, np.eye(2**n, dtype=complex) / 2**n)
        ref = dicke_projection(mixed, n)
        for key, p in ref.populations.items():
            assert abs(proj.populations[key] - p) < 0.05


class TestSaturationComparison:
    def test_monotonic_vs_nonmonotonic(self, cavity, decoherence, g35):
        mu = np.geomspace(1e-9, 1e-1, 33)
        curves = saturation_comparison(g35, mu, cavity, decoherence)
        assert np.all(np.diff(curves.excited) >= -1e-15)
        i_max = int(np.argmax(curves.coherence_sq))
        assert 0 < i_max < len(mu) - 1
        assert curves.coherence_sq[-1] < 0.05 * curves.coherence_sq[i_max]
        assert curves.coherence_sq[0] < 0.05 * curves.coherence_sq[i_max]

    def test_zero_drive(self, cavity, decoherence, g35):
        curves = saturation_comparison(g35, [0.0], cavity, decoherence)
        assert curves.coherence_sq[0] == 0.0
        assert curves.excited[0] == 0.0

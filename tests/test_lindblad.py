import math

import numpy as np
import pytest

from cavens.core import (
    PEAK_WINDOW,
    CavityParams,
    DecoherenceParams,
    EmitterEnsemble,
    ParameterError,
    SystemModel,
    mu_from_power,
)
from cavens.dicke import (GroupSpace, dicke_basis, group_generator, pulsed_block_emission,
                          state_degeneracy)
from cavens.lindblad import (
    DIM_MAX,
    CapabilityError,
    DensityState,
    build_generator,
    collective_operators,
    evolve,
    evolve_expm,
    pulsed_emission,
)
from cavens.units import hz_to_angular

from _oracles import block_pulse, cavity_included_trajectory, full_space_emission, lift


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

        gen_on = build_generator(ens, mu, cavity, dec)
        gen_off = build_generator(ens, 0.0, cavity, dec)
        jpjm = collective_operators(3)["jpjm"]
        on = evolve(DensityState.ground(3), gen_on, times[:3])
        off = evolve(on[-1], gen_off, times[3:] - pulse)
        ref = np.array([s.expect(jpjm).real for s in on + off])
        window = np.linspace(0.0, PEAK_WINDOW, 9)
        counts = [s.expect(jpjm).real for s in [on[-1]] + evolve(on[-1], gen_off, window[1:])]
        ref_counts = gen_on.purcell * np.trapezoid(counts, window)

        assert np.all(ref > 1e-4)
        assert np.allclose(res.trace.jpjm, ref, rtol=1e-7, atol=0.0)
        assert math.isclose(res.peak_instant, gen_on.purcell * ref[2], rel_tol=1e-7)
        assert math.isclose(res.peak_counts, ref_counts, rel_tol=1e-7)

    def test_ode_stepping_rejected(self, cavity, decoherence, g35):
        model = SystemModel(cavity, decoherence, EmitterEnsemble.identical(2, g35))
        with pytest.raises(ParameterError, match="lindblad.evolve"):
            pulsed_emission(model, 1e-6, 10e-6, [10e-6], use_expm=False)


def _group_columns(res):
    tr = res.trace
    return {"jpjm": tr.jpjm, "individual": tr.individual, "correlation": tr.correlation,
            "coherent_real": tr.coherent_amp.real, "coherent_imag": tr.coherent_amp.imag,
            "cavity_pop": tr.cavity_pop}


_G = hz_to_angular(35e6)
_D1, _D2 = hz_to_angular(3e6), hz_to_angular(-5e6)
#: Emitter lists of two and three groups; some groups are not contiguous.
_GROUPED = {
    "2-in-2": [(0.0, _G), (_D1, _G)],
    "3-in-2": [(0.0, _G), (0.0, _G), (_D1, 0.8 * _G)],
    "3-in-3": [(0.0, _G), (_D1, 0.8 * _G), (_D2, 1.2 * _G)],
    "4-in-2": [(0.0, _G), (_D1, _G), (0.0, _G), (0.0, _G)],
    "4-in-3": [(0.0, _G), (_D1, _G), (0.0, _G), (_D2, 0.9 * _G)],
    "5-in-2": [(0.0, _G)] * 3 + [(_D1, _G)] * 2,
    "5-in-3": [(_D1, _G), (0.0, _G), (_D2, 1.1 * _G), (0.0, _G), (_D1, _G)],
}
_RATES_HZ = (6000, 600)
#: (ensemble, delta_c in Hz, laser detuning in Hz, (gamma_s, gamma_d) in Hz);
#: the last four switch off one local channel each.
_GROUPED_CASES = ([(case, dc, 0.0, _RATES_HZ) for case in _GROUPED for dc in (0.0, 1e9)]
                  + [("3-in-3", 0.0, 2e6, _RATES_HZ), ("5-in-2", 1e9, 2e6, _RATES_HZ)]
                  + [(case, 1e9, 0.0, rates) for case in ("3-in-2", "5-in-3")
                     for rates in ((0, 600), (6000, 0))])
#: test ids: the rates are named only where they differ from _RATES_HZ
_GROUPED_IDS = ["-".join(map(str, case[:3] + (() if case[3] == _RATES_HZ else case[3])))
                for case in _GROUPED_CASES]


class TestGroupSpace:
    """pulsed_emission propagates in the group space; these pin it to the
    2^N generator."""

    @pytest.mark.parametrize("case, dc_hz, laser_hz, rates_hz", _GROUPED_CASES, ids=_GROUPED_IDS)
    def test_matches_full_space(self, case, dc_hz, laser_hz, rates_hz):
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        model = SystemModel(cav, DecoherenceParams.from_hz(*rates_hz),
                            EmitterEnsemble.explicit(_GROUPED[case]))
        mu, pulse = 1e-6, 10e-6
        times = np.array([3e-6, 10e-6, 10.2e-6, 11e-6])
        laser = hz_to_angular(laser_hz)
        res = pulsed_emission(model, mu, pulse, times, laser_detuning=laser)
        ref, peak_instant, peak_counts = full_space_emission(model, mu, pulse, times, laser)
        got = _group_columns(res)
        for name, col in ref.items():
            scale = np.max(np.abs(col))
            assert scale > 0, name
            assert np.max(np.abs(got[name] - col)) <= 1e-10 * scale, name
        assert math.isclose(res.peak_instant, peak_instant, rel_tol=1e-10)
        assert math.isclose(res.peak_counts, peak_counts, rel_tol=1e-10)
        # the groups' reduced pulse-end states hold the individual excitation
        excited = sum((0.5 * state.n + m) * p for state in res.final_state
                      for (_j, m), p in state.jm_populations().items())
        assert math.isclose(excited, ref["individual"][1], rel_tol=1e-10)

    @pytest.mark.parametrize("mu", [0.0, 1e-6])
    def test_lift_intertwines_generators(self, mu):
        """E L_group = L_full E, with E the lift of the coefficient vectors
        into row-major vec(rho)."""
        cav = CavityParams.from_hz(44e9, 8.8e9, 1e9)
        dec = DecoherenceParams.from_hz(6000, 600)
        ens = EmitterEnsemble.explicit(_GROUPED["4-in-3"])
        laser = hz_to_angular(2e6)
        space = GroupSpace(ens.detunings() + ens.center - laser, ens.couplings())
        assert space.dim == 10 * 4 * 4
        e_lift = np.array([lift(space, e).matrix.reshape(-1) for e in np.eye(space.dim)]).T
        full = build_generator(ens, mu, cav, dec, laser_detuning=laser).superoperator()
        group = group_generator(space, mu, cav, dec)
        assert group.dtype == np.float64
        rhs = full @ e_lift
        assert np.max(np.abs(e_lift @ group.toarray() - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_dimensions(self):
        def dim(emitters):
            ens = EmitterEnsemble.explicit(emitters)
            return GroupSpace(ens.detunings(), ens.couplings()).dim

        assert dim(_GROUPED["5-in-2"]) == 200
        assert dim([(0.0, _G)] * 5 + [(hz_to_angular(5e6), _G)] * 2) == 560
        assert dim([(0.0, _G)] * 4) == 35
        assert dim([(hz_to_angular(k * 1e6), _G) for k in range(5)]) == 4**5

    @pytest.mark.parametrize("power_w", [5e-14, 3e-8])
    @pytest.mark.parametrize("bin_offset", [1, 20, 45])
    def test_binned_scurve_oracle_case(self, power_w, bin_offset):
        """The full-space check of the binned S-curve benchmark: one bin of 4
        identical ions, 50 us pulse, at the nearest, a middle and the
        outermost positive bin.  The benchmark compares the block solver
        with the group space, and both are built from ``block_parts``, so
        each is checked here against the 2^N space."""
        cav = CavityParams.from_hz(44e9, 8.8e9)
        g, detuning = hz_to_angular(10.6e6), hz_to_angular(bin_offset * 150e6 / 90)
        dec = DecoherenceParams.from_hz(6000, 600)
        model = SystemModel(cav, dec, EmitterEnsemble.identical(4, g, detuning=detuning))
        mu, pulse = mu_from_power(power_w, cav), 50e-6
        _, peak_instant, peak_counts = full_space_emission(model, mu, pulse, np.array([pulse]))
        for res in (pulsed_emission(model, mu, pulse, [pulse]),
                    pulsed_block_emission(4, g, mu, cav, dec, pulse, detuning=detuning)):
            assert math.isclose(res.peak_instant, peak_instant, rel_tol=1e-10)
            assert math.isclose(res.peak_counts, peak_counts, rel_tol=1e-10)

    def test_capability_limit(self, cavity, decoherence, g35):
        """Nine distinct emitters span 4^9 > DIM_MAX and are refused before
        the space is built."""
        ens = EmitterEnsemble.explicit([(hz_to_angular(k * 1e6), g35) for k in range(9)])
        model = SystemModel(cavity, decoherence, ens)
        with pytest.raises(CapabilityError, match=f"dimension {4**9}, above DIM_MAX = {DIM_MAX}"):
            pulsed_emission(model, 1e-6, 10e-6, [10e-6])

    def test_cap_is_the_group_dimension(self, cavity, decoherence, g35):
        """65 identical ions (C(68, 3) = 50,116 rows) make a group space under
        DIM_MAX; 72 (67,525 rows) are refused with their dimension named."""
        space = GroupSpace(np.zeros(65), np.full(65, g35))
        assert space.dim == math.comb(68, 3) <= DIM_MAX
        model = SystemModel(cavity, decoherence, EmitterEnsemble.identical(72, g35))
        with pytest.raises(CapabilityError, match="dimension 67525"):
            pulsed_emission(model, 1e-6, 10e-6, [10e-6])


class TestPastFullSpace:
    """Ensembles the 2^N generator cannot check: one group against the block
    solver, and the emitter order."""

    @pytest.mark.parametrize("n", [9, 12, 20])
    def test_one_group_matches_block_solver(self, cavity, g35, n):
        """n identical ions are one group of C(n+3, 3) rows; from 9 on, their
        2^N generator is above DIM_MAX.  Both pulse paths run the block
        setup of the block parts (``_oracles.block_pulse``) bit for bit;
        ``pulsed_emission`` takes Gamma_c from the mean of g^2, so its peaks
        may differ in the last bits."""
        dec = DecoherenceParams.from_hz(6000, 600)
        model = SystemModel(cavity, dec, EmitterEnsemble.identical(n, g35))
        mu, pulse = mu_from_power(3e-12, cavity), 20e-6
        ref = block_pulse(n, g35, mu, cavity, dec, pulse)
        block = pulsed_block_emission(n, g35, mu, cavity, dec, pulse)
        assert (block.peak_instant, block.peak_counts) == (ref.peak_instant, ref.peak_counts)
        assert np.array_equal(block.state_end.vec, ref.end)
        res = pulsed_emission(model, mu, pulse, [pulse])
        assert math.isclose(res.peak_instant, ref.peak_instant, rel_tol=1e-12)
        assert math.isclose(res.peak_counts, ref.peak_counts, rel_tol=1e-12)
        (state,) = res.final_state
        state.validate()
        assert np.array_equal(state.vec, ref.end)

    def test_emitter_order_does_not_matter(self):
        cav = CavityParams.from_hz(44e9, 8.8e9, 1e9)
        dec = DecoherenceParams.from_hz(*_RATES_HZ)
        times = np.array([3e-6, 10e-6, 10.2e-6, 11e-6])
        emitters = _GROUPED["5-in-3"]
        columns = [_group_columns(pulsed_emission(
            SystemModel(cav, dec, EmitterEnsemble.explicit(order)), 1e-6, 10e-6, times))
            for order in (emitters, [emitters[i] for i in (4, 2, 0, 3, 1)])]
        for name, col in columns[0].items():
            assert np.max(np.abs(columns[1][name] - col)) <= 1e-12 * np.max(np.abs(col)), name


class TestDickeProjection:
    """The |J, M> populations of the pulse-end state: each group's reduced
    state (GroupSpace.reduced)."""

    def test_ground_state(self, cavity, decoherence):
        model = SystemModel(cavity, decoherence, EmitterEnsemble.explicit(_GROUPED["4-in-2"]))
        res = pulsed_emission(model, 0.0, 10e-6, [10e-6])
        assert [state.n for state in res.final_state] == [3, 1]
        for state in res.final_state:
            weights = state.subspace_weights()
            assert math.isclose(weights["ground"], 1.0, abs_tol=1e-12)
            assert weights["superradiant_ladder"] < 1e-12 and weights["subradiant"] < 1e-12

    def test_completely_mixed_degeneracies(self):
        """The completely mixed state of 4 + 1 emitters, reduced to the group
        of 4."""
        n = 4
        space = GroupSpace(np.array([0.0] * n + [_D1]), np.full(n + 1, _G))

        def mixed(sites):  # real blocks: the real coordinates are their entries
            return np.concatenate([np.eye(d).reshape(-1) / 2**sites
                                   for d in dicke_basis(sites).dims])

        state = space.reduced(np.kron(mixed(n), mixed(1)))[0]
        per_j = {}
        for (j, _m), p in state.jm_populations().items():
            per_j[j] = per_j.get(j, 0.0) + p
        # weights proportional to degeneracy x (2J+1): d={1,3,2} for J={2,1,0}
        assert math.isclose(per_j[2.0], 5 / 16, rel_tol=1e-9)
        assert math.isclose(per_j[1.0], 9 / 16, rel_tol=1e-9)
        assert math.isclose(per_j[0.0], 2 / 16, rel_tol=1e-9)
        assert math.isclose(sum(state.jm_populations().values()), 1.0, rel_tol=1e-9)

    def test_strong_long_drive_approaches_mixed(self, cavity, g35):
        dec = DecoherenceParams.from_hz(6000, 600)
        n = 3
        model = SystemModel(cavity, dec, EmitterEnsemble.identical(n, g35))
        res = pulsed_emission(model, 0.1, 200e-6, [200e-6], use_expm=True)
        pops = res.final_state[0].jm_populations()
        assert len(pops) == 4 + 2  # (J, M) levels at J = 3/2 and 1/2
        for (j, _m), p in pops.items():
            assert abs(p - state_degeneracy(n, j) / 2**n) < 0.05

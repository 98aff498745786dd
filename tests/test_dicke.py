import math

import numpy as np
import pytest

from cavens import core, dicke
from cavens.core import CavityParams, DecoherenceParams, EmitterEnsemble, SystemModel
from cavens import lindblad as lb
from cavens.dicke import (
    DIM_MAX,
    CapabilityError,
    DickeBlockState,
    GroupSpace,
    _observable_rows,
    block_evolve,
    block_observables,
    block_parts,
    build_block_generator,
    dicke_basis,
    group_generator,
    pulsed_block_emission,
    rate_map,
    real_generator,
    state_degeneracy,
)
from cavens.units import hz_to_angular

from _oracles import complex_drive_off, full_space_emission, split_space


class TestBasis:
    def test_two_spins(self):
        b = dicke_basis(2)
        assert b.j_values == (1.0, 0.0)
        assert b.degeneracies == (1, 1)
        assert sum(d * (int(2 * j) + 1) for j, d in zip(b.j_values, b.degeneracies)) == 4

    def test_four_spins_matches_brute_force_symmetrization(self):
        b = dicke_basis(4)
        assert b.j_values == (2.0, 1.0, 0.0)
        assert b.degeneracies == (1, 3, 2)
        # brute force: eigenvalue multiplicities of J^2 over the 16-dim space
        ops = lb.collective_operators(4)
        j2 = (ops["jm"] @ ops["jp"] + ops["jz"] @ ops["jz"] + ops["jz"]).toarray()
        evals = np.round(np.linalg.eigvalsh(j2), 6)
        for j, d in zip(b.j_values, b.degeneracies):
            assert np.sum(np.isclose(evals, j * (j + 1))) == d * (2 * j + 1)

    @pytest.mark.parametrize("n", [1, 3, 6, 11, 64])
    def test_dimension_identity(self, n):
        b = dicke_basis(n)
        assert sum(d * (int(round(2 * j)) + 1)
                   for j, d in zip(b.j_values, b.degeneracies)) == 2**n
        assert b.dims == tuple(int(round(2 * j)) + 1 for j in b.j_values)
        assert b.offsets[-1] == sum(d * d for d in b.dims)
        vec = np.random.default_rng(n).standard_normal(b.offsets[-1])  # real coordinates
        assert np.array_equal(DickeBlockState.from_vec(n, vec).to_vec(), vec)

    def test_capability_bounds(self):
        """The cap is on the block-space dimension C(n+3, 3): 71 emitters
        (64,824) fit under DIM_MAX, 72 (67,525) do not."""
        with pytest.raises(CapabilityError):
            dicke_basis(0)
        assert dicke_basis(71).offsets[-1] == math.comb(74, 3) <= DIM_MAX
        with pytest.raises(CapabilityError, match=r"dimension 67525, outside \[4, DIM_MAX"):
            dicke_basis(72)

    def test_degeneracy_formula(self):
        assert state_degeneracy(6, 3.0) == 1
        assert state_degeneracy(6, 2.0) == 5
        assert state_degeneracy(6, 1.0) == 9
        assert state_degeneracy(6, 0.0) == 5


class TestBlockGenerator:
    def test_collective_rate_out_of_jm(self, cavity, g35):
        rm = rate_map(2, gamma_c=4 * g35**2 / cavity.kappa, gamma_s=0.0, gamma_d=0.0)
        out = rm.out_rates(1.0, 1.0, channel="collective")
        assert math.isclose(out, 2.0 * 4 * g35**2 / cavity.kappa, rel_tol=1e-12)

    def test_symmetry_conservation_without_local_channels(self, cavity, g35):
        dec0 = DecoherenceParams(0.0, 0.0)
        gen = build_block_generator(6, g35, 1e-5, cavity, dec0)
        q0 = DickeBlockState.all_ground(6)
        states = block_evolve(gen, q0, np.linspace(5e-6, 50e-6, 5))
        for q in states:
            top = np.trace(q.blocks[0]).real
            assert abs(top - 1.0) < 1e-9
            assert q.subspace_weights()["subradiant"] < 1e-9

    def test_oracle_equivalence_small_n(self, cavity):
        """Block trajectories match the full-space solver (quick version of
        the load-bearing acceptance check)."""
        kappa, g = 1000.0, 10.0
        cav = CavityParams(kappa=kappa, kappa_c=200.0, omega=1e15)
        times = np.linspace(0.5, 12.0, 6)
        for n in (2, 3, 4):
            for mu, gd in ((0.005, 0.0), (0.04, 0.3)):
                dec = DecoherenceParams(gamma_s=0.25, gamma_d=gd)
                genf = lb.build_generator(EmitterEnsemble.identical(n, g), mu, cav, dec)
                opsf = lb.collective_operators(n)
                full = lb.evolve_expm(lb.DensityState.ground(n), genf, times)
                jpjm_f = [s.expect(opsf["jpjm"]).real for s in full]
                genb = build_block_generator(n, g, mu, cav, dec)
                obs = block_observables(genb)
                blocks = block_evolve(genb, DickeBlockState.all_ground(n), times)
                jpjm_b = [float(np.real(obs["jpjm"] @ q.to_vec())) for q in blocks]
                assert np.max(np.abs(np.array(jpjm_f) - jpjm_b)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("delta_c", [0.0, 300.0])
    def test_oracle_equivalence_detuned(self, n, delta_c):
        """Block against full space at nonzero emitter and cavity detunings:
        pins the J_z part and the exchange part of the generator."""
        g = 10.0
        cav = CavityParams(kappa=1000.0, kappa_c=200.0, delta_c=delta_c, omega=1e15)
        dec = DecoherenceParams(gamma_s=0.25, gamma_d=0.3)
        times = np.linspace(0.5, 12.0, 6)
        for detuning in (0.0, 3.0, -3.0):
            genf = lb.build_generator(EmitterEnsemble.identical(n, g, detuning=detuning),
                                      0.04, cav, dec)
            opsf = lb.collective_operators(n)
            full = lb.evolve_expm(lb.DensityState.ground(n), genf, times)
            genb = build_block_generator(n, g, 0.04, cav, dec, detuning=detuning)
            obs = block_observables(genb)
            blocks = block_evolve(genb, DickeBlockState.all_ground(n), times)
            for name in ("jpjm", "jz", "jm"):
                ref = np.array([s.expect(opsf[name]) for s in full])
                got = np.array([obs[name] @ q.to_vec() for q in blocks])
                assert np.max(np.abs(ref - got)) < 1e-8

    def test_parts_sum_to_generator(self, cavity, decoherence, g35):
        parts = block_parts(5, g35, cavity, decoherence)
        gen = build_block_generator(5, g35, 1e-6, cavity, decoherence, detuning=2.0e7)
        perm = dicke_basis(5).transpose
        ref = parts.l0 + 2.0e7 * parts.lz + g35 * math.sqrt(1e-6) * parts.ld
        assert abs(gen.matrix - real_generator(ref, perm)).max() == 0.0
        off = build_block_generator(5, g35, 0.0, cavity, decoherence).matrix
        assert abs(off - real_generator(parts.l0, perm)).max() == 0.0

    def test_block_state_quality_along_trajectory(self, cavity, decoherence, g35):
        gen = build_block_generator(5, g35, 1e-5, cavity, decoherence)
        for q in block_evolve(gen, DickeBlockState.all_ground(5),
                              np.linspace(10e-6, 60e-6, 4)):
            q.validate()

    def test_capability_n20(self, cavity, decoherence, g35):
        res = pulsed_block_emission(20, g35, 1e-6, cavity, decoherence, 20e-6)
        assert res.peak_instant > 0
        assert math.isclose(sum(res.weights.values()), 1.0, abs_tol=1e-8)


class TestRealCoordinates:
    """The block solver propagates r = Re q + Im q with Re L + Im L P
    (``to_complex``, ``real_generator``)."""

    @pytest.mark.parametrize("dc_hz", [0.0, 1e9])
    def test_generator_and_window_are_real(self, dc_hz, decoherence, g35):
        """Also at delta_c != 0, where the exchange term makes l0 complex."""
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        gen = build_block_generator(5, g35, 1e-6, cav, decoherence, detuning=2.0e7)
        assert gen.matrix.dtype == np.float64
        assert build_block_generator(5, g35, 0.0, cav, decoherence).matrix.dtype == np.float64

    @pytest.mark.parametrize("sizes", [(5,), (3, 2)], ids=["5", "3+2"])
    @pytest.mark.parametrize("dc_hz", [0.0, 1e9])
    def test_real_generator_arrays(self, sizes, dc_hz, decoherence, g35):
        """``real_generator`` renames the columns of Im L; it gives the
        arrays of Re L + (Im L)[:, P] by column indexing, in the same order
        (a Krylov step sums each row in that order)."""
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        space = GroupSpace(np.repeat(hz_to_angular(np.array([2.0, -5.0])[:len(sizes)]), sizes),
                           np.full(sum(sizes), g35))
        for mu in (0.0, 1e-6):
            m = complex_drive_off(space, cav, decoherence)
            if mu:
                m = m + space.embed({0: g35 * math.sqrt(mu) * block_parts(sizes[0], g35, cav,
                                                                          decoherence).ld})
            got = real_generator(m, space.transpose)
            want = (m.real + m.imag[:, space.transpose]).tocsr()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("n", [5, 9])
    @pytest.mark.parametrize("dc_hz", [0.0, 1e9])
    def test_pulse_matches_complex_propagation(self, n, dc_hz, decoherence, g35):
        """A strongly driven, detuned pulse against the complex parts
        propagated on the complex ground vector.  At delta_c = 2pi 1 GHz the
        exchange term makes l0 complex."""
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        mu, det, pulse = 1e-3, hz_to_angular(3e6), 20e-6
        parts = block_parts(n, g35, cav, decoherence)
        assert (abs(parts.l0.imag).max() > 0) == bool(dc_hz)
        basis = dicke_basis(n)
        pops = np.flatnonzero(basis.order == 0)
        q0 = np.zeros(basis.offsets[-1], dtype=complex)
        q0[basis.dims[0] ** 2 - 1] = 1.0
        ref = core.pulse_protocol(parts.l0 + det * parts.lz + g35 * math.sqrt(mu) * parts.ld,
                                  parts.l0, q0, pulse,
                                  _observable_rows(n)["jpjm"], parts.purcell,
                                  off_window=(pops, parts.l0[pops][:, pops]))
        res = pulsed_block_emission(n, g35, mu, cav, decoherence, pulse, detuning=det)
        assert abs(res.peak_instant / ref.peak_instant - 1.0) < 1e-10
        assert abs(res.peak_counts / ref.peak_counts - 1.0) < 1e-10
        got = np.concatenate([b.reshape(-1) for b in res.state_end.blocks])
        assert np.max(np.abs(got - ref.end)) < 1e-10
        res.state_end.validate()

    def test_rows_on_a_hermitian_state(self, cavity, decoherence, g35):
        """w . r = x . q for the J- and J+ rows on a random Hermitian block
        state; the rows of the diagonal operators keep their bits."""
        n = 6
        basis, rng = dicke_basis(n), np.random.default_rng(6)
        blocks = []
        for d in basis.dims:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(a + a.conj().T)
        q = np.concatenate([b.reshape(-1) for b in blocks])
        state = DickeBlockState.from_vec(n, q.real + q.imag)
        for got, want in zip(state.blocks, blocks, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        x = _observable_rows(n)
        w = block_observables(build_block_generator(n, g35, 0.0, cavity, decoherence))
        for name in ("jm", "jp"):
            assert abs(w[name] @ state.vec - x[name] @ q) <= 1e-13 * (np.abs(x[name]) @ np.abs(q))
        for name in ("jpjm", "jz", "individual", "trace"):
            assert w[name].dtype == np.float64 and np.array_equal(w[name], x[name].real)

    def test_peak_against_arbitrary_precision_expm(self, cavity, decoherence, g35):
        """n = 3 (dimension 20) at 60 MHz over 50 us, where ||L t||_1 is
        about 5.8e4: the peak lies within 10 ||L t||_1 u of a 40-digit
        mpmath expm of the complex generator."""
        import mpmath

        n, mu, det, pulse = 3, 1e-3, hz_to_angular(60e6), 50e-6
        parts = block_parts(n, g35, cavity, decoherence)
        lt = (parts.l0 + det * parts.lz + g35 * math.sqrt(mu) * parts.ld).toarray() * pulse
        norm = np.abs(lt).sum(axis=0).max()
        assert norm >= 1e4
        start = dicke_basis(n).dims[0] ** 2 - 1
        with mpmath.workdps(40):
            column = mpmath.expm(mpmath.matrix(lt.tolist()))[:, start]
            jpjm = _observable_rows(n)["jpjm"]
            ref = float(sum(mpmath.mpf(float(x.real)) * c.real for x, c in zip(jpjm, column)))
        ref *= parts.purcell
        res = pulsed_block_emission(n, g35, mu, cavity, decoherence, pulse, detuning=det)
        assert abs(res.peak_instant - ref) <= 10 * norm * np.finfo(float).eps / 2 * ref

    def test_trace_against_arbitrary_precision_expm(self, cavity, decoherence, g35):
        """n = 3 at 60 MHz, a 20 us pulse, observed at five samples of
        linspace(1e-6, 30e-6, 30) across the pulse end, one of them 3.4e-21 s
        before it: their <J+J->, and that of the pulse end, lie within
        10 ||L t_k||_1 u of a 40-digit
        mpmath expm of the real generators, stepped from sample to sample
        (about 2 s)."""
        import mpmath

        n, mu, det, pulse = 3, 1e-3, hz_to_angular(60e6), 20e-6
        space = GroupSpace(np.full(n, det), np.full(n, g35))
        times = np.linspace(1e-6, 30e-6, 30)[17:22]
        assert times[1] < times[2] < pulse < times[3]
        run = dicke.group_pulse(space, mu, cavity, decoherence, pulse, 1.0, times,
                                compute_counts=False)
        on = group_generator(space, mu, cavity, decoherence).toarray()
        off = group_generator(space, 0.0, cavity, decoherence).toarray()
        norm_on, norm_off = (np.abs(m).sum(axis=0).max() for m in (on, off))
        assert norm_on * pulse >= 1e4
        jpjm = space.rows["jpjm"]
        samples = sorted(zip(np.append(times, pulse), run.observed + [run.end]),
                         key=lambda sample: sample[0])
        with mpmath.workdps(40):  # each column from the last; float differences are exact here
            l_on, l_off = mpmath.matrix(on.tolist()), mpmath.matrix(off.tolist())
            column, t_prev = mpmath.matrix(space.ground().tolist()), 0.0
            for tk, state in samples:
                step = mpmath.mpf(float(tk)) - mpmath.mpf(t_prev)
                column, t_prev = mpmath.expm((l_on if tk <= pulse else l_off) * step) * column, tk
                norm = norm_on * min(tk, pulse) + norm_off * max(tk - pulse, 0.0)
                ref = float(sum(mpmath.mpf(float(x)) * c for x, c in zip(jpjm, column)))
                assert abs(jpjm @ state - ref) <= 10 * norm * np.finfo(float).eps / 2 * ref


class TestRateMap:
    def test_dark_states_no_collective_decay(self, cavity, g35):
        rm = rate_map(6, gamma_c=4 * g35**2 / cavity.kappa, gamma_s=0.0, gamma_d=0.0)
        for j, m in rm.dark_states:
            assert rm.out_rates(j, m) == 0.0
        assert (2.0, -2.0) in rm.dark_states

    def test_within_j_rates_exceed_purcell(self, cavity, g35):
        gc = 4 * g35**2 / cavity.kappa
        rm = rate_map(6, gamma_c=gc, gamma_s=0.0, gamma_d=0.0)
        for j in (3.0, 2.0, 1.0):
            best = max(e.rate for e in rm.entries
                       if e.channel == "collective" and e.j_from == j)
            assert best > gc

    def test_diagonal_emission_direction(self, cavity, g35):
        """Toward-larger-J emission is fastest at the ladder bottom, toward-
        smaller-J at the top (verified against the full-space oracle through
        the block equivalence tests)."""
        rm = rate_map(6, gamma_c=0.0, gamma_s=1.0, gamma_d=0.0)

        def rate(j, m, j_to):
            return rm.out_rates(j, m, channel="emission") and sum(
                e.rate for e in rm.entries if (e.j_from, e.m_from, e.j_to) == (j, m, j_to)
                and e.channel == "emission")

        up_low_m = rate(2.0, -1.0, 3.0)
        up_high_m = rate(2.0, 2.0, 3.0)
        down_high_m = rate(2.0, 2.0, 1.0)
        down_low_m = rate(2.0, -1.0, 1.0)
        assert up_low_m > up_high_m
        assert down_high_m > down_low_m

    def test_channel_selection_rules(self):
        rm = rate_map(5, gamma_c=1.0, gamma_s=1.0, gamma_d=1.0)
        for e in rm.entries:
            assert e.rate >= 0
            if e.channel == "collective":
                assert e.j_to == e.j_from and e.m_to == e.m_from - 1
            elif e.channel == "emission":
                assert e.j_to in (e.j_from - 1, e.j_from, e.j_from + 1)
                assert e.m_to == e.m_from - 1
            else:
                assert e.j_to in (e.j_from - 1, e.j_from + 1)
                assert e.m_to == e.m_from

    def test_exhaustive_map_capability(self):
        with pytest.raises(CapabilityError):
            rate_map(13, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("mix", ["collective", "emission", "dephasing", "all"])
    def test_matches_generator_population_block(self, n, mix):
        """The drive-off population block, folded by d_to/d_from, holds the
        rate-map rates off the diagonal and minus the out-rates on it."""
        kappa, g = 1000.0, 10.0
        cav = CavityParams(kappa=kappa, kappa_c=200.0, omega=1e15)
        g_use = g if mix in ("collective", "all") else 0.0
        gs = 0.25 if mix in ("emission", "all") else 0.0
        gd = 0.3 if mix in ("dephasing", "all") else 0.0
        off = build_block_generator(n, g_use, 0.0, cav, DecoherenceParams(gamma_s=gs, gamma_d=gd))
        rm = rate_map(n, gamma_c=4.0 * g_use**2 / kappa, gamma_s=gs, gamma_d=gd)
        basis = dicke_basis(n)
        pops = np.flatnonzero(basis.order == 0)
        levels, degs = [], []
        for j, d in zip(basis.j_values, basis.degeneracies):
            for m in j - np.arange(int(round(2 * j)) + 1):
                levels.append((j, float(m)))
                degs.append(d)
        degs = np.array(degs, dtype=float)
        folded = off.matrix[pops][:, pops].toarray() * degs[:, None] / degs[None, :]
        assert np.all(folded.imag == 0)
        folded = folded.real
        expect = np.zeros_like(folded)
        where = {lv: k for k, lv in enumerate(levels)}
        for e in rm.entries:
            expect[where[(e.j_to, e.m_to)], where[(e.j_from, e.m_from)]] += e.rate
        for k, (j, m) in enumerate(levels):
            expect[k, k] = -rm.out_rates(j, m)
        scale = max(1.0, np.abs(expect).max())
        assert np.max(np.abs(folded - expect)) <= 1e-13 * scale

    def test_csv_rows(self, cavity, g35):
        rm = rate_map(2, gamma_c=4 * g35**2 / cavity.kappa, gamma_s=1.0, gamma_d=1.0)
        rows = rm.to_rows()
        assert all(len(r) == 6 for r in rows)
        assert {r[5] for r in rows} == {"collective", "emission", "dephasing"}


class TestPopulationWindow:
    @pytest.mark.parametrize("n", [4, 9, 16])
    @pytest.mark.parametrize("dc_hz", [0.0, 1e9])
    def test_window_on_populations_matches_full(self, n, dc_hz, decoherence, g35):
        """With the drive off no entry couples populations and coherences,
        the populations are the sector of the one group, and the counts of
        the population window match the full window."""
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        det = hz_to_angular(3e6)
        off = build_block_generator(n, g35, 0.0, cav, decoherence, detuning=det).matrix
        basis = dicke_basis(n)
        pops = np.concatenate([lo + np.arange(d) * (d + 1)
                               for lo, d in zip(basis.offsets[:-1], basis.dims)])
        assert np.array_equal(GroupSpace(np.full(n, det), np.full(n, g35)).sector(), pops)
        coh = np.setdiff1d(np.arange(off.shape[0]), pops)
        assert off[pops][:, coh].count_nonzero() == 0
        assert off[coh][:, pops].count_nonzero() == 0
        jpjm = block_observables(build_block_generator(n, g35, 0.0, cav, decoherence))["jpjm"]
        assert np.all(jpjm[coh] == 0)

        mu = 1e-6
        reduced = pulsed_block_emission(n, g35, mu, cav, decoherence, 20e-6, detuning=det)
        gen_on = build_block_generator(n, g35, mu, cav, decoherence, detuning=det)
        full = core.pulse_protocol(gen_on.matrix, off, DickeBlockState.all_ground(n).to_vec(),
                                   20e-6, jpjm, gen_on.purcell)
        assert reduced.peak_counts > 0
        assert abs(reduced.peak_counts / full.peak_counts - 1.0) < 1e-12

    @pytest.mark.parametrize("dc_hz", [0.0, 1e9])
    def test_population_block_independent_of_detuning(self, dc_hz, decoherence, g35):
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        parts = block_parts(6, g35, cav, decoherence)
        basis = dicke_basis(6)
        pops = np.flatnonzero(basis.order == 0)
        window = real_generator(parts.l0, basis.transpose)[pops][:, pops]
        for det in (0.0, hz_to_angular(3e6), hz_to_angular(-40e6)):
            off = build_block_generator(6, g35, 0.0, cav, decoherence, detuning=det).matrix
            assert abs(off[pops][:, pops] - window).max() == 0.0


class TestPulseEdgeCases:
    def test_zero_drive_emits_nothing(self, cavity, decoherence, g35):
        res = pulsed_block_emission(4, g35, 0.0, cavity, decoherence, 20e-6)
        assert res.peak_instant == 0.0
        assert res.peak_counts == 0.0

    @pytest.mark.parametrize("mu, detuning", [(math.inf, 0.0), (math.nan, 0.0),
                                              (1e-6, math.inf), (1e-6, math.nan)])
    def test_non_finite_drive_or_detuning_rejected(self, cavity, decoherence, g35, mu,
                                                   detuning):
        with pytest.raises(core.ParameterError, match="must be finite"):
            pulsed_block_emission(3, g35, mu, cavity, decoherence, 5e-6, detuning=detuning)

    @pytest.mark.parametrize("mu", [1e-6, 1e-3])
    def test_no_local_decay_matches_full_space(self, mu, cavity, g35):
        """gamma_s = gamma_d = 0: only the collective channel acts, and the
        block peaks match the 2^N pulse."""
        dec0 = DecoherenceParams(0.0, 0.0)
        block = pulsed_block_emission(3, g35, mu, cavity, dec0, 20e-6)
        model = SystemModel(cavity, dec0, EmitterEnsemble.identical(3, g35))
        _, peak_instant, peak_counts = full_space_emission(model, mu, 20e-6, np.array([]))
        assert block.peak_instant > 0
        assert abs(block.peak_instant / peak_instant - 1.0) < 1e-12
        assert abs(block.peak_counts / peak_counts - 1.0) < 1e-12


class TestSCurve:
    def _pulses(self, cavity, g35, powers, pulse_length, counts=True):
        """One pulsed_block_emission of 6 emitters per power (watts)."""
        dec = DecoherenceParams.from_hz(6000, 600)
        return [pulsed_block_emission(6, g35, core.mu_from_power(p, cavity), cavity, dec,
                                      pulse_length, compute_counts=counts) for p in powers]

    def test_zero_power_zero_emission(self, cavity, g35):
        res = self._pulses(cavity, g35, [0.0], 50e-6)
        assert res[0].peak_counts == 0.0

    def test_rise_fall_with_subradiant_growth(self, cavity, g35):
        powers = np.geomspace(7e-16, 2.1e-11, 16)
        res = self._pulses(cavity, g35, powers, 50e-6, counts=False)
        peaks = np.array([r.peak_instant for r in res])
        subradiant = np.array([r.weights["subradiant"] for r in res])
        i_max = int(np.argmax(peaks))
        assert 0 < i_max < len(powers) - 1
        assert peaks[i_max] > 1.25 * peaks[-1]
        assert subradiant[-1] > subradiant[i_max] + 0.1

    def test_strong_drive_approaches_mixed_value(self, cavity, g35):
        res = self._pulses(cavity, g35, [1e-3], 300e-6, counts=False)
        gc = 4 * g35**2 / cavity.kappa
        mixed = 6 / 2.0  # Tr(J+J-)/2^N by direct enumeration
        assert abs(res[0].peak_instant / gc - mixed) < 0.1 * mixed


def test_mixed_state_jpjm_enumeration():
    """Tr(J+J-)/2^N over the Dicke enumeration equals N/2."""
    for n in (2, 4, 6):
        b = dicke_basis(n)
        total = 0.0
        for j, d in zip(b.j_values, b.degeneracies):
            for m in (j - np.arange(int(round(2 * j)) + 1)):
                total += d * (j * (j + 1) - m * (m - 1))
        assert math.isclose(total / 2**n, n / 2.0, rel_tol=1e-12)


class TestGroupSpaceKey:
    def test_equal_groups_compare_equal(self, g35):
        """The drive-off generator is cached per space, so spaces compare by
        their groups: equal (detuning, g, sites), not the same object."""
        space = GroupSpace(np.array([0.0, 0.0, 1e6]), np.full(3, g35))
        same = GroupSpace([0.0, 0.0, 1e6], [g35] * 3)
        assert space == same and hash(space) == hash(same)
        assert space != GroupSpace(np.array([0.0, 0.0, 2e6]), np.full(3, g35))
        assert space != GroupSpace(np.array([0.0, 0.0, 1e6]), np.array([g35, g35, 0.5 * g35]))
        assert space != GroupSpace(np.array([0.0, 1e6, 0.0]), np.full(3, g35))


class TestSector:
    """The drive-off generator keeps sum_g (m - m') fixed, so the detection
    window runs on the sector where it is 0 (``GroupSpace.sector``)."""

    @pytest.mark.parametrize("sizes", [(4,), (3, 2), (2, 1, 1)], ids=["4", "3+2", "2+1+1"])
    @pytest.mark.parametrize("dc_hz", [0.0, 1e9])
    def test_drive_off_keeps_the_sector(self, sizes, dc_hz, decoherence, g35):
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        deltas = np.repeat(hz_to_angular(np.array([0.0, 5e6, -7e6]))[:len(sizes)], sizes)
        gs = np.repeat(np.array([g35, 0.8 * g35, 1.1 * g35])[:len(sizes)], sizes)
        space = GroupSpace(deltas, gs)
        assert len(space.groups) == len(sizes)
        off = group_generator(space, 0.0, cav, decoherence)
        sector = space.sector()
        rest = np.setdiff1d(np.arange(space.dim), sector)
        assert 0 < len(sector) < space.dim
        assert off[sector][:, rest].count_nonzero() == 0
        assert off[rest][:, sector].count_nonzero() == 0
        assert np.all(space.rows["jpjm"][rest] == 0)
        # the drive couples the sector with the rest
        assert group_generator(space, 1e-6, cav, decoherence)[rest][:, sector].count_nonzero() > 0


class TestDriveOff:
    """One cache entry, ``dicke._drive_off``, is the only record of a
    space's drive-off state: its real generator, its sector and the
    generator restricted to the sector.  ``group_generator`` adds the real
    map of each group's drive to it."""

    @pytest.mark.parametrize("sizes", [(5,), (3, 2), (1,) * 5], ids=["5", "3+2", "1x5"])
    @pytest.mark.parametrize("dc_hz", [0.0, 1e9])
    @pytest.mark.parametrize("gd_hz", [0.0, 600.0])
    def test_generator_is_the_map_of_the_complex_sum(self, sizes, dc_hz, gd_hz, g35):
        """Mapping the drive-off sum and each drive term apart gives the
        map of the whole complex sum, bit for bit: every ld is imaginary and
        meets no imaginary entry of the drive-off sum."""
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        dec = DecoherenceParams.from_hz(600, gd_hz)
        deltas = np.repeat(hz_to_angular(np.array([0.0, 5e6, -7e6, 2e6, 11e6]))[:len(sizes)], sizes)
        gs = np.repeat(np.array([1.0, 0.8, 1.1, 0.9, 1.2])[:len(sizes)] * g35, sizes)
        space = GroupSpace(deltas, gs)
        assert len(space.groups) == len(sizes)
        off = complex_drive_off(space, cav, dec)
        for mu in (0.0, 1e-9, 1e-5, 3e-3):
            drives = [space.embed({k: (g * math.sqrt(mu)) * block_parts(len(ks), g, cav, dec).ld})
                      for k, (_, g, ks) in enumerate(space.groups)]
            want = real_generator(sum(drives, off) if mu else off, space.transpose)
            got = group_generator(space, mu, cav, dec)
            assert got.dtype == np.float64
            assert np.array_equal(got.toarray(), want.toarray()), mu

    def test_cached_matrix_and_window(self, cavity, decoherence, g35):
        """At mu = 0 ``group_generator`` returns the cached matrix, which an
        equal space built apart shares; the sector is the space's and the
        window is the generator restricted to it; all of them are real."""
        space = GroupSpace(hz_to_angular(np.array([0.0, 0.0, 3e6])), np.full(3, g35))
        gen_off, sector, window = dicke._drive_off(space, cavity, decoherence)
        assert group_generator(space, 0.0, cavity, decoherence) is gen_off
        twin = GroupSpace(hz_to_angular(np.array([0.0, 0.0, 3e6])), np.full(3, g35))
        assert twin is not space
        assert group_generator(twin, 0.0, cavity, decoherence) is gen_off
        assert dicke._drive_off.cache_info().maxsize == 1
        assert np.array_equal(sector, space.sector())
        assert (window != gen_off[sector][:, sector]).count_nonzero() == 0
        assert window.shape == (len(sector), len(sector))
        assert gen_off.dtype == window.dtype == np.float64
        assert group_generator(space, 1e-6, cavity, decoherence).dtype == np.float64


class TestSplitGroup:
    """5 identical ions as one group against the same ions split 3 + 2 into
    two groups of equal (delta, g): the cross-group terms of the drive-off
    sum against the collective terms within one group."""

    @pytest.mark.parametrize("dc_hz", [0.0, 1e9])
    def test_split_matches_one_group(self, dc_hz, g35, monkeypatch):
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        model = SystemModel(cav, DecoherenceParams.from_hz(6000, 600),
                            EmitterEnsemble.identical(5, g35, detuning=hz_to_angular(3e6)))
        times = np.array([2e-6, 6e-6, 10e-6, 10.05e-6, 10.5e-6, 12e-6])
        one = lb.pulsed_emission(model, 1e-5, 10e-6, times)

        def split(deltas, gs):
            assert np.all(deltas == deltas[0]) and np.all(gs == gs[0])
            return split_space(float(deltas[0]), float(gs[0]), (3, 2))

        monkeypatch.setattr(lb, "GroupSpace", split)
        two = lb.pulsed_emission(model, 1e-5, 10e-6, times)
        assert [len(s.vec) for s in two.final_state] == [20, 10]
        assert one.peak_counts > 0
        assert math.isclose(two.peak_instant, one.peak_instant, rel_tol=1e-10)
        assert math.isclose(two.peak_counts, one.peak_counts, rel_tol=1e-10)
        for name in ("jpjm", "individual", "correlation", "coherent_amp", "cavity_pop"):
            col, col_two = getattr(one.trace, name), getattr(two.trace, name)
            assert np.max(np.abs(col_two - col)) <= 1e-10 * np.max(np.abs(col)), name

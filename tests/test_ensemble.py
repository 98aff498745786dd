import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest

import cavens.ensemble as ensemble_mod
from cavens import core
from cavens.core import (DecoherenceParams, DerivedRates, EmitterEnsemble, ParameterError,
                         SystemModel, mu_from_power)
from cavens.dicke import CapabilityError
from cavens.ensemble import (
    SubensembleSet,
    bin_lorentzian,
    default_bin_width,
    estimate_superradiant_n,
    incoherent_scurve,
    read_g_histogram_csv,
    truncate_g_histogram,
)
from cavens.units import TWO_PI, hz_to_angular

from _oracles import block_pulse


class TestBinning:
    def test_paper_scale_binning(self, delta_inh, g35):
        width = delta_inh / 90.0  # spread 91 bins over roughly one linewidth
        subs = bin_lorentzian(569, delta_inh, 91, width, g35)
        counts = subs.counts()
        assert counts.sum() == 569
        assert counts[45] == counts.max()
        # counts decay away from the center like the Lorentzian mass
        assert counts[45] > counts[70] > counts[90] - 1
        assert np.all(counts == counts[::-1])

    def test_single_bin_reduces_to_homogeneous(self, delta_inh, g35):
        subs = bin_lorentzian(30, delta_inh, 1, delta_inh, g35)
        assert subs.total_ions == 30
        assert len(subs.entries) == 1
        assert subs.entries[0].detuning == 0.0

    @pytest.mark.parametrize("total_n,n_bins", [(569, 91), (100, 21), (37, 7), (11, 11)])
    def test_mass_conservation_and_symmetry(self, total_n, n_bins, delta_inh, g35):
        subs = bin_lorentzian(total_n, delta_inh, n_bins, delta_inh / max(n_bins - 1, 1), g35)
        counts = subs.counts()
        assert counts.sum() == total_n
        assert np.all(counts == counts[::-1])
        d = subs.detunings()
        assert np.allclose(d, -d[::-1])

    def test_infeasible_allocation(self, delta_inh, g35):
        with pytest.raises(ParameterError):
            bin_lorentzian(5, delta_inh, 7, delta_inh / 7, g35)
        with pytest.raises(ParameterError):
            bin_lorentzian(10, delta_inh, 4, delta_inh / 4, g35)  # even bins

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_width_and_linewidth_must_be_finite_and_positive(self, delta_inh, g35, bad):
        """A NaN passed a `<= 0` test and failed later as a bare ValueError."""
        with pytest.raises(ParameterError, match="bin_width and delta_inh"):
            bin_lorentzian(11, delta_inh, 5, bad, g35)
        with pytest.raises(ParameterError, match="bin_width and delta_inh"):
            bin_lorentzian(11, bad, 5, delta_inh / 5, g35)

    def test_default_width_from_purcell(self):
        rates = DerivedRates(gamma_total=1.0, purcell=2.5)
        assert default_bin_width(rates) == 2.5


class TestIncoherentSCurve:
    def _model(self, cavity, g35):
        dec = DecoherenceParams.from_hz(6000, 600)
        return SystemModel(cavity, dec, EmitterEnsemble.identical(5, g35))

    def test_single_bin_matches_scurve(self, cavity, g35):
        from cavens.dicke import pulsed_block_emission

        model = self._model(cavity, g35)
        subs = SubensembleSet(entries=(type(next(iter(
            bin_lorentzian(5, 1.0, 1, 1.0, g35).entries)))(0.0, 5, g35),))
        powers = np.geomspace(1e-14, 1e-11, 4)
        inc = incoherent_scurve(subs, powers, 50e-6, model)
        ref = [pulsed_block_emission(5, g35, mu_from_power(p, cavity), cavity,
                                     model.decoherence, 50e-6).peak_counts for p in powers]
        assert np.allclose(inc.total, ref, rtol=1e-12)

    def test_binned_line_matches_block_setup(self, cavity):
        """The binned S-curve of acceptance 11 at 5e-14 and 3e-8 W, counts:
        every bin's peak is the pulse set up straight from the block parts
        (``_oracles.block_pulse``), bit for bit."""
        g, delta_inh = hz_to_angular(10.6e6), hz_to_angular(150e6)
        model = SystemModel(cavity, DecoherenceParams.from_hz(6000, 600),
                            EmitterEnsemble.lorentzian(n_ions=569, delta_inh=delta_inh, g=g))
        subs = bin_lorentzian(569, delta_inh, 91, delta_inh / 90.0, g)
        powers = (5e-14, 3e-8)
        res = incoherent_scurve(subs, powers, 50e-6, model)
        assert not res.failures
        for i, p in enumerate(powers):
            mu = mu_from_power(p, cavity)
            refs = {(e.n_ions, abs(e.detuning)): block_pulse(
                e.n_ions, g, mu, cavity, model.decoherence, 50e-6, abs(e.detuning)).peak_counts
                for e in subs.entries}
            got = {(e.n_ions, abs(e.detuning)): res.per_subensemble[i, j]
                   for j, e in enumerate(subs.entries)}
            assert got == refs

    @pytest.mark.parametrize("error", [CapabilityError, ParameterError, np.linalg.LinAlgError,
                                       ValueError])
    def test_solver_error_recorded(self, cavity, g35, monkeypatch, error):
        """A block-solver error at one bin and power becomes a recorded
        failure with a NaN peak, and the other bins still count.  Any other
        ValueError is a bug, and it propagates."""
        from cavens.ensemble import Subensemble

        def pulse(n, *args, **kwargs):
            if n == 3:
                raise error("solver failed")
            return real_pulse(n, *args, **kwargs)

        real_pulse = ensemble_mod.pulsed_block_emission
        monkeypatch.setattr(ensemble_mod, "pulsed_block_emission", pulse)
        subs = SubensembleSet(entries=(Subensemble(0.0, 3, g35), Subensemble(1e6, 2, g35)))
        if error is ValueError:
            with pytest.raises(ValueError, match="solver failed"):
                incoherent_scurve(subs, [1e-13], 5e-6, self._model(cavity, g35))
            return
        res = incoherent_scurve(subs, [1e-13], 5e-6, self._model(cavity, g35))
        assert res.failures == ((0, 0, "solver failed"),)
        assert np.isnan(res.per_subensemble[0, 0])
        assert res.total[0] == res.per_subensemble[0, 1] > 0

    @pytest.mark.parametrize("dc_hz", [0.0, 3e9])
    def test_mirror_bins(self, dc_hz, g35, monkeypatch):
        """At delta_c = 0 the bins at +-delta are solved once and are
        bit-equal; the exchange term at delta_c = 3 GHz separates them."""
        from cavens.core import CavityParams
        from cavens.ensemble import Subensemble

        calls = []

        def pulse(*args, **kwargs):
            calls.append(kwargs["detuning"])
            return real_pulse(*args, **kwargs)

        real_pulse = ensemble_mod.pulsed_block_emission
        monkeypatch.setattr(ensemble_mod, "pulsed_block_emission", pulse)
        monkeypatch.setattr(core, "USABLE_CORES", 1)  # count the calls in this process
        det = hz_to_angular(20e6)
        cav = CavityParams.from_hz(44e9, 8.8e9, dc_hz)
        model = SystemModel(cav, DecoherenceParams.from_hz(6000, 600),
                            EmitterEnsemble.identical(5, g35))
        subs = SubensembleSet(entries=(Subensemble(-det, 5, g35), Subensemble(det, 5, g35)))
        res = incoherent_scurve(subs, [1e-12], 50e-6, model)
        lo, hi = res.per_subensemble[0]
        assert lo > 0 and hi > 0
        if dc_hz == 0.0:
            assert calls == [det]
            assert lo == hi
        else:
            assert sorted(calls) == [-det, det]
            assert abs(lo / hi - 1.0) > 1e-3

    def test_failure_recorded_for_every_mapped_bin(self, cavity, g35, monkeypatch):
        from cavens.ensemble import Subensemble

        def pulse(n, *args, **kwargs):
            if n == 3:
                raise ParameterError("solver failed")
            return real_pulse(n, *args, **kwargs)

        real_pulse = ensemble_mod.pulsed_block_emission
        monkeypatch.setattr(ensemble_mod, "pulsed_block_emission", pulse)
        det = hz_to_angular(2e6)
        subs = SubensembleSet(entries=(Subensemble(-det, 3, g35), Subensemble(0.0, 2, g35),
                                       Subensemble(det, 3, g35)))
        res = incoherent_scurve(subs, [1e-13, 1e-12], 5e-6, self._model(cavity, g35))
        assert res.failures == tuple((i, j, "solver failed") for j in (0, 2) for i in (0, 1))
        assert np.all(np.isnan(res.per_subensemble[:, [0, 2]]))
        assert np.all(res.total == res.per_subensemble[:, 1])

    def test_unknown_peak_mode_rejected(self, cavity, g35):
        from cavens.ensemble import Subensemble

        model = self._model(cavity, g35)
        with pytest.raises(ParameterError, match="peak_mode"):
            incoherent_scurve(SubensembleSet(entries=(Subensemble(0.0, 3, g35),)),
                              [1e-13], 5e-6, model, peak_mode="bogus")

    def test_other_errors_propagate(self, cavity, g35, monkeypatch):
        from cavens.ensemble import Subensemble

        def pulse(*args, **kwargs):
            raise TypeError("a bug, not a solver failure")

        monkeypatch.setattr(ensemble_mod, "pulsed_block_emission", pulse)
        subs = SubensembleSet(entries=(Subensemble(0.0, 3, g35),))
        with pytest.raises(TypeError):
            incoherent_scurve(subs, [1e-13], 5e-6, self._model(cavity, g35))

    def test_non_finite_power_recorded(self, cavity, g35):
        """A NaN power fails at every bin as a recorded failure, rather than
        giving NaN peaks that drop out of the sum."""
        from cavens.ensemble import Subensemble

        subs = SubensembleSet(entries=(Subensemble(0.0, 3, g35),
                                       Subensemble(hz_to_angular(2e6), 2, g35)))
        res = incoherent_scurve(subs, [1e-13, math.nan], 5e-6, self._model(cavity, g35))
        assert [f[:2] for f in res.failures] == [(1, 0), (1, 1)]
        assert all(f[2].startswith("mu must be finite and >= 0") for f in res.failures)
        assert np.all(res.per_subensemble[0] > 0) and np.all(np.isnan(res.per_subensemble[1]))

    @pytest.mark.parametrize("peak_mode", ["counts", "instant"])
    def test_same_bits_on_one_and_two_workers(self, cavity, g35, monkeypatch, peak_mode):
        """Mirror bins, four ion numbers and a NaN power: the solve forked
        over two workers gives the one-worker peaks, totals and failures bit
        for bit and in the same order.  It forks with Python 3.12's warning of
        a fork while other threads run made an error, and leaves no worker
        behind."""
        from cavens.ensemble import Subensemble

        d1, d2 = hz_to_angular(2e6), hz_to_angular(5e6)
        subs = SubensembleSet(entries=(
            Subensemble(-d2, 2, g35), Subensemble(-d1, 3, g35), Subensemble(0.0, 4, g35),
            Subensemble(d1, 3, g35), Subensemble(d2, 2, g35), Subensemble(2 * d2, 1, g35)))
        parent, forks, real_fork = os.getpid(), [], os.fork

        def fork():
            if os.getpid() == parent:
                forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(core, "USABLE_CORES", workers)
            with warnings.catch_warnings():
                warnings.filterwarnings("error", ".*multi-threaded", DeprecationWarning)
                runs.append(incoherent_scurve(subs, [1e-13, math.nan, 1e-11], 5e-6,
                                              self._model(cavity, g35), peak_mode=peak_mode))
            assert multiprocessing.active_children() == []
        one, two = runs
        if "fork" in multiprocessing.get_all_start_methods():
            assert len(forks) == 2
        assert two.per_subensemble.tobytes() == one.per_subensemble.tobytes()
        assert two.total.tobytes() == one.total.tobytes()
        assert two.failures == one.failures
        assert [f[:2] for f in one.failures] == [(1, j) for j in range(6)]
        assert np.all(one.per_subensemble[[0, 2]] > 0)

    def test_permutation_invariance_bit_identical(self, cavity, g35):
        from cavens.ensemble import Subensemble

        model = self._model(cavity, g35)
        entries = (Subensemble(0.0, 4, g35), Subensemble(hz_to_angular(5e6), 2, g35),
                   Subensemble(-hz_to_angular(5e6), 2, g35))
        powers = np.geomspace(1e-13, 1e-11, 3)
        a = incoherent_scurve(SubensembleSet(entries=entries), powers, 20e-6, model)
        b = incoherent_scurve(SubensembleSet(entries=entries[::-1]), powers, 20e-6, model)
        assert all(x == y for x, y in zip(a.total, b.total))

    def test_uncoupled_vs_coupled_qualitative(self, cavity, g35):
        """5 resonant + 2 detuned ions: the incoherent sum tracks the coupled
        7-ion curve's shape (rise, fall, late rise from the detuned pair)."""
        from cavens.core import mu_from_power
        from cavens.ensemble import Subensemble
        from cavens.lindblad import pulsed_emission

        model = self._model(cavity, g35)
        det = hz_to_angular(5e6)
        pulse = 20e-6
        # hand-placed powers pinning rise, peak, fall, and the late upturn
        powers = np.array([1e-15, 3e-12, 3e-11, 6e-10, 2.5e-9])
        entries = (Subensemble(0.0, 5, g35), Subensemble(det, 2, g35))
        inc = incoherent_scurve(SubensembleSet(entries=entries), powers, pulse, model,
                                peak_mode="instant")
        ens7 = EmitterEnsemble.explicit([(0.0, g35)] * 5 + [(det, g35)] * 2)
        model7 = SystemModel(model.cavity, model.decoherence, ens7)
        coupled = np.array([
            pulsed_emission(model7, mu_from_power(p, model.cavity), pulse,
                            [pulse], use_expm=True).peak_instant
            for p in powers])
        for curve in (inc.total, coupled):
            assert curve[1] > 10 * curve[0]          # rise
            assert curve[2] < 0.97 * curve[1]        # fall past the peak
            assert curve[4] > 1.2 * min(curve[2:4])  # late upturn (detuned pair)

    def test_refinement_stability(self, cavity):
        """Halving the bin width (same span, more bins) changes the total
        curve by < 10% pointwise.  Run where decoherence dominates the
        per-bin collective rate (n_bin Gamma_c << gamma): there the peak is
        population-additive and the binning is a pure discretization choice.
        Splitting a collectively dominated bin changes real physics instead."""
        g = hz_to_angular(1e6)
        dec = DecoherenceParams.from_hz(6e3, 1e6)  # gamma spans the bin width
        model = SystemModel(cavity, dec, EmitterEnsemble.identical(5, g))
        dinh = hz_to_angular(150e6)
        span = hz_to_angular(4e6)
        powers = np.geomspace(7e-12, 7e-10, 4)
        coarse = bin_lorentzian(24, dinh, 7, span / 7, g)
        fine = bin_lorentzian(24, dinh, 15, span / 15, g)
        inc_c = incoherent_scurve(coarse, powers, 20e-6, model)
        inc_f = incoherent_scurve(fine, powers, 20e-6, model)
        assert np.all(np.abs(inc_f.total / inc_c.total - 1.0) < 0.10)


class TestGHistogram:
    def test_delta_distribution(self):
        g0 = hz_to_angular(10e6)
        ens = EmitterEnsemble.lorentzian(n_ions=100, delta_inh=hz_to_angular(1e9),
                                         g_hist=((g0, 1.0),))
        assert math.isclose(ens.g_moments()[0], g0)
        assert math.isclose(ens.g_rms, g0)
        assert math.isclose(ens.total_coupling, 10.0 * g0)
        g, p, kept = truncate_g_histogram(np.array([g0]), np.array([1.0]), None)
        assert g.tolist() == [g0] and p.tolist() == [1.0] and kept == 1.0

    def test_cutoff_renormalizes(self):
        g, p, kept = truncate_g_histogram(np.array([1.0, 10.0]), np.array([0.5, 0.5]), 2.0)
        assert g.tolist() == [10.0] and p.tolist() == [1.0]
        assert kept == 0.5
        ens = EmitterEnsemble.lorentzian(n_ions=100, delta_inh=1e9, g_hist=tuple(zip(g, p)))
        assert math.isclose(ens.g_moments()[0], 10.0)

    def test_rms_from_total_coupling_paper_numbers(self):
        # Omega = 2pi x 8.86 GHz over 7e5 ions -> rms g = 2pi x 10.6 MHz
        omega = hz_to_angular(8.86e9)
        n = 7e5
        assert math.isclose(omega / math.sqrt(n), hz_to_angular(10.6e6), rel_tol=0.01)

    def test_empty_after_cutoff(self):
        with pytest.raises(ParameterError, match="no histogram mass above the cutoff"):
            truncate_g_histogram(np.array([1.0]), np.array([1.0]), 2.0)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("# comment\ng_hz,probability\n1e6,0.25\n2e6,0.75\n")
        rows = read_g_histogram_csv(str(path))
        assert len(rows) == 2
        assert math.isclose(rows[0][0], hz_to_angular(1e6))
        ens = EmitterEnsemble.lorentzian(n_ions=10, delta_inh=1e9, g_hist=tuple(rows))
        assert math.isclose(ens.g_moments()[0], hz_to_angular(1.75e6))

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("g_hz,weight\n1e6,1.0\n")
        with pytest.raises(ParameterError, match="need columns g_hz, probability"):
            read_g_histogram_csv(str(path))


class TestEstimators:
    def test_neff_paper_values(self, cavity):
        rms_g = hz_to_angular(10.6e6)
        neff = estimate_superradiant_n(270e-9, rms_g, cavity.kappa)
        assert abs(neff - 58.0) <= 1.0

    def test_neff_identities(self, cavity):
        rms_g = hz_to_angular(10.6e6)
        purcell_time = cavity.kappa / (4 * rms_g**2)
        assert math.isclose(estimate_superradiant_n(purcell_time, rms_g, cavity.kappa), 1.0)
        assert math.isclose(estimate_superradiant_n(purcell_time / 2, rms_g, cavity.kappa), 2.0)


"""The benchmark's four workloads: their inputs, made from a seed, and the
checks of their outputs.

A workload writes a config (and any emitter file) for one CLI run and
counts its points: spectrum frequency points, single-bin pulses, or trace
samples.  Its check reads the tables that ``experiments.run_experiment``
returned and compares them with the oracles in ``oracles.py`` or with
properties the method must have.  It returns the points the program flagged
and the points whose check failed, each as a set of point keys.

All workloads use the paper's cavity: kappa = 2 pi 44 GHz, kappa_c = 0.2 kappa.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles
from oracles import TWO_PI

KAPPA_HZ = 44e9
KAPPA_C_HZ = 8.8e9
OMEGA_HZ = 304500e9  # the config's default carrier
KAPPA = TWO_PI * KAPPA_HZ
KAPPA_C = TWO_PI * KAPPA_C_HZ

CAVITY_KEYS = f"""cavity.kappa_hz = {KAPPA_HZ!r}
cavity.kappa_c_hz = {KAPPA_C_HZ!r}
"""


def power_w(mu: float) -> float:
    return oracles.power_for_mu(mu, KAPPA, KAPPA_C, TWO_PI * OMEGA_HZ)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@dataclass
class Verdict:
    """Point keys the program flagged, and point keys whose check failed
    (with one message per failed check)."""

    flagged: set = field(default_factory=set)
    wrong: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def fail(self, keys, message: str) -> None:
        self.wrong.update(keys)
        self.problems.append(message)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# The Lorentzian line of the CIT workloads (acceptance 03)
# ---------------------------------------------------------------------------

LINE_N = 1000
LINE_COOP = 12.0
LINE_DINH_HZ = 150e6
LINE_G_HZ = math.sqrt(LINE_COOP * KAPPA_HZ * LINE_DINH_HZ / (4.0 * LINE_N))
LINE_MODEL = oracles.MeanFieldModel(kappa=KAPPA, kappa_c=KAPPA_C,
                                    gamma_s=TWO_PI * 600.0, gamma_d=TWO_PI * 6000.0)
GRID_HZ = np.linspace(-90e6, 90e6, 361)


def _line_config(experiment: str, mu_lo: float, mu_hi: float, n_powers: int,
                 extra: str = "") -> str:
    return f"""experiment = {experiment}
{CAVITY_KEYS}decoherence.gamma_s_hz = 600
decoherence.gamma_d_hz = 6000
ensemble.kind = lorentzian
ensemble.n_ions = {LINE_N}
ensemble.delta_inh_hz = {LINE_DINH_HZ!r}
ensemble.g_hz = {LINE_G_HZ!r}
grid.freq.start_hz = -90e6
grid.freq.stop_hz = 90e6
grid.freq.num = {len(GRID_HZ)}
grid.power.start_w = {power_w(mu_lo)!r}
grid.power.stop_w = {power_w(mu_hi)!r}
grid.power.num = {n_powers}
grid.power.scale = log
{extra}"""


def _flagged_spectrum_points(run: dict) -> set:
    return {(solve, i) for solve, i in run["not_converged"]}


class CitContinuum:
    """cit-power-sweep on the closed-form (parametric) Lorentzian line."""

    name = "cit-continuum"
    n_powers = 8
    mu_range = (3e-7, 5e-6)
    n_spot = 3

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.spot_power = int(rng.integers(self.n_powers))
        self.spot_freqs = sorted(int(i) for i in rng.choice(len(GRID_HZ), self.n_spot,
                                                            replace=False))
        self.config = _write(os.path.join(workdir, "run.cfg"),
                             _line_config("cit-power-sweep", *self.mu_range, self.n_powers))
        self.points = self.n_powers * len(GRID_HZ)

    def describe(self) -> str:
        return (f"spot check at power {self.spot_power}, grid points {self.spot_freqs}")

    def check(self, run: dict, cavens) -> Verdict:
        v = Verdict(flagged=_flagged_spectrum_points(run))
        columns, rows = run["tables"]["cit_power_sweep"]
        col = {c: k for k, c in enumerate(columns)}
        if len(rows) != self.n_powers:
            v.fail(self._all(), f"{len(rows)} rows for {self.n_powers} powers")
            return v
        mus = [float(r[col["mu"]]) for r in rows]
        widths = [float(r[col["width_hz"]]) for r in rows]
        floor_hz = LINE_DINH_HZ / LINE_COOP
        for i, (mu, w) in enumerate(zip(mus, widths)):
            power_points = {(i, k) for k in range(len(GRID_HZ))}
            if not math.isfinite(w):
                v.flagged.update(power_points)  # the fit found no dip
                continue
            closed = oracles.cit_width(mu, LINE_N, TWO_PI * LINE_G_HZ, TWO_PI * LINE_DINH_HZ,
                                       LINE_MODEL) / TWO_PI
            if i > 0 and math.isfinite(widths[i - 1]) and w > widths[i - 1] * (1.0 + 1e-3):
                v.fail(power_points, f"width rises at power {i}: {widths[i - 1]} -> {w} Hz")
            if not floor_hz <= w <= 2.0 * floor_hz:
                v.fail(power_points, f"width {w} Hz at power {i} outside [D/C, 2D/C]")
            if _rel(w, closed) > 0.03:
                v.fail(power_points, f"width {w} Hz at power {i} is {_rel(w, closed):.3%} "
                                     f"from the closed form {closed} Hz")
        if "power_law" not in run["metadata"]:
            v.problems.append("no power-law fit in the metadata")
        self._spot(v, mus[self.spot_power], cavens)
        return v

    def _spot(self, v: Verdict, mu: float, cavens) -> None:
        from cavens.core import CavityParams, DecoherenceParams, EmitterEnsemble

        ens = EmitterEnsemble.lorentzian(n_ions=LINE_N, delta_inh=TWO_PI * LINE_DINH_HZ,
                                         g=TWO_PI * LINE_G_HZ)
        lasers = TWO_PI * GRID_HZ[self.spot_freqs]
        spec = cavens.meanfield.reflection_spectrum(
            ens, mu, lasers, CavityParams.from_hz(KAPPA_HZ, KAPPA_C_HZ),
            DecoherenceParams.from_hz(600.0, 6000.0))
        for k, laser, r in zip(self.spot_freqs, lasers, spec.r_complex):
            ref = oracles.lorentzian_line_point(LINE_MODEL, LINE_N, TWO_PI * LINE_G_HZ,
                                                TWO_PI * LINE_DINH_HZ, mu, laser)
            if not abs(r - ref.r) <= 1e-8:
                v.fail({(self.spot_power, k)}, f"r at power {self.spot_power}, point {k}: "
                                               f"{r} against quadrature {ref.r}")

    def _all(self) -> set:
        return {(i, k) for i in range(self.n_powers) for k in range(len(GRID_HZ))}


class SpectrumQuantile:
    """reflection-spectrum on the same line's 1000-emitter quantile stand-in."""

    name = "spectrum-quantile"
    n_powers = 20
    mu_range = (3e-7, 1e-3)
    n_spot = 2  # per power

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.spots = [sorted(int(k) for k in rng.choice(len(GRID_HZ), self.n_spot,
                                                        replace=False))
                      for _ in range(self.n_powers)]
        self.config = _write(os.path.join(workdir, "run.cfg"),
                             _line_config("reflection-spectrum", *self.mu_range, self.n_powers,
                                          f"ensemble.explicit_quantiles = {LINE_N}\n"))
        self.points = self.n_powers * len(GRID_HZ)

    def describe(self) -> str:
        return f"spot checks at grid points {self.spots}"

    def check(self, run: dict, cavens) -> Verdict:
        v = Verdict(flagged=_flagged_spectrum_points(run))
        tables = run["tables"]
        mus = run["metadata"]["mu"]
        if len(tables) != self.n_powers or len(mus) != self.n_powers:
            v.fail({(i, k) for i in range(self.n_powers) for k in range(len(GRID_HZ))},
                   f"{len(tables)} spectra for {self.n_powers} powers")
            return v
        detunings = oracles.lorentzian_quantiles(LINE_N, TWO_PI * LINE_DINH_HZ)
        couplings = np.full(LINE_N, TWO_PI * LINE_G_HZ)
        for i, mu in enumerate(mus):
            columns, rows = tables[f"spectrum_{i:03d}"]
            col = {c: k for k, c in enumerate(columns)}
            for k, row in enumerate(rows):
                if not row[col["converged"]]:
                    v.flagged.add((i, k))
                elif not 0.0 <= row[col["reflectance"]] <= 1.0:
                    v.fail({(i, k)}, f"R = {row[col['reflectance']]} at power {i}, point {k}")
            for k in self.spots[i]:
                row = rows[k]
                r = complex(row[col["r_real"]], row[col["r_imag"]])
                ref = oracles.direct_sum_point(LINE_MODEL, detunings, couplings, mu,
                                               TWO_PI * GRID_HZ[k])
                # A few points of the lowest power are bistable (three roots);
                # there ref.r is the largest-t root, the weak-connected branch
                # that reflection_spectrum documents.
                if not abs(r - ref.r) <= 1e-9:
                    v.fail({(i, k)}, f"r at power {i}, point {k}: {r} against direct sum "
                                     f"{ref.r} ({ref.n_roots} roots)")
        return v


# ---------------------------------------------------------------------------
# The binned S-curve of acceptance 11
# ---------------------------------------------------------------------------

SC_N = 569
SC_BINS = 91
SC_DINH_HZ = 150e6
SC_BIN_WIDTH_HZ = SC_DINH_HZ / 90.0
SC_G_HZ = 10.6e6
SC_PULSE_S = 50e-6


class SCurveBinned:
    """Binned s-curve over the acceptance-11 line, peak mode ``counts``."""

    name = "scurve-binned"
    powers_w = (5e-14, 3e-8)
    oracle_bin_size = 4

    def __init__(self, seed: int, workdir: str):
        self.config = _write(os.path.join(workdir, "run.cfg"), f"""experiment = s-curve
{CAVITY_KEYS}decoherence.gamma_s_hz = 6000
decoherence.gamma_d_hz = 600
ensemble.kind = lorentzian
ensemble.n_ions = {SC_N}
ensemble.delta_inh_hz = {SC_DINH_HZ!r}
ensemble.g_hz = {SC_G_HZ!r}
bins.n = {SC_BINS}
bins.width_hz = {SC_BIN_WIDTH_HZ!r}
drive.pulse_length_s = {SC_PULSE_S!r}
grid.power.start_w = {self.powers_w[0]!r}
grid.power.stop_w = {self.powers_w[-1]!r}
grid.power.num = {len(self.powers_w)}
grid.power.scale = log
""")
        self.points = len(self.powers_w) * SC_BINS

    def describe(self) -> str:
        return "inputs do not depend on the seed"

    def check(self, run: dict, cavens) -> Verdict:
        n_p = len(self.powers_w)
        every = {(i, j) for i in range(n_p) for j in range(SC_BINS)}
        v = Verdict(flagged={(f["power_index"], f["subensemble"]) for f in run["failures"]})
        counts = run["metadata"]["bin_counts"]
        _, totals = run["tables"]["s_curve"]
        _, sub_rows = run["tables"]["s_curve_subensembles"]
        if len(counts) != SC_BINS or len(sub_rows) != n_p * SC_BINS or len(totals) != n_p:
            v.fail(every, "tables of the wrong size")
            return v
        if sum(counts) != SC_N:
            v.fail(every, f"bin counts sum to {sum(counts)}, not {SC_N}")
        # rows run bin-major: row j * n_p + i is bin j at power i
        peak = np.array([[sub_rows[j * n_p + i][3] for j in range(SC_BINS)] for i in range(n_p)])
        det_hz = [sub_rows[j * n_p][1] for j in range(SC_BINS)]
        half = SC_BINS // 2
        for j in range(SC_BINS):
            mirror = SC_BINS - 1 - j
            expected = (j - half) * SC_BIN_WIDTH_HZ
            if abs(det_hz[j] - expected) > 1e-9 * SC_BIN_WIDTH_HZ or \
                    sub_rows[j * n_p][2] != counts[j]:
                v.fail({(i, j) for i in range(n_p)}, f"bin {j} has detuning {det_hz[j]} Hz")
            if counts[j] != counts[mirror]:
                v.fail({(i, j) for i in range(n_p)}, f"bins {j} and {mirror} hold "
                                                     f"{counts[j]} and {counts[mirror]} ions")
            for i in range(n_p):
                if (i, j) not in v.flagged and (i, mirror) not in v.flagged and \
                        _rel(peak[i, j], peak[i, mirror]) > 1e-9:
                    v.fail({(i, j)}, f"power {i}: peaks at +-delta differ, bin {j}: "
                                     f"{peak[i, j]} against {peak[i, mirror]}")
        for i in range(n_p):
            total = math.fsum(peak[i][~np.isnan(peak[i])])
            if _rel(totals[i][2], total) > 1e-12:
                v.fail({(i, j) for j in range(SC_BINS)},
                       f"power {i}: total {totals[i][2]} is not the sum {total} of the bins")
        self._full_space(v, run, peak, counts, cavens)
        return v

    def _full_space(self, v: Verdict, run: dict, peak: np.ndarray, counts: list,
                    cavens) -> None:
        """Every positive-detuning bin of ``oracle_bin_size`` ions against
        the full-space solver at every power (the mirror bins are covered
        by the symmetry check)."""
        from cavens.core import CavityParams, DecoherenceParams, EmitterEnsemble, SystemModel

        cavity = CavityParams.from_hz(KAPPA_HZ, KAPPA_C_HZ)
        dec = DecoherenceParams.from_hz(6000.0, 600.0)
        _, totals = run["tables"]["s_curve"]
        half = SC_BINS // 2
        bins = [j for j in range(half + 1, SC_BINS) if counts[j] == self.oracle_bin_size]
        if not bins:
            v.problems.append(f"no bin of {self.oracle_bin_size} ions to check")
        for j in bins:
            ens = EmitterEnsemble.identical(self.oracle_bin_size, TWO_PI * SC_G_HZ,
                                            detuning=TWO_PI * (j - half) * SC_BIN_WIDTH_HZ)
            model = SystemModel(cavity, dec, ens)
            for i, row in enumerate(totals):
                ref = cavens.lindblad.pulsed_emission(model, float(row[1]), SC_PULSE_S,
                                                      [SC_PULSE_S], use_expm=True)
                if _rel(peak[i, j], ref.peak_counts) > 1e-8:
                    v.fail({(i, j)}, f"power {i}, bin {j}: block peak {peak[i, j]} against "
                                     f"full space {ref.peak_counts}")


# ---------------------------------------------------------------------------
# Full-space emission trace
# ---------------------------------------------------------------------------

TR_G_HZ = 35e6
TR_DETUNINGS_HZ = (0.0, 0.0, 0.0, 5e6, 5e6)
TR_POWER_W = 3e-12
TR_PULSE_S = 20e-6
TR_TIMES_S = (1e-6, 30e-6, 30)
TR_GAMMA_S_HZ = 6000.0
TR_GAMMA_D_HZ = 600.0


class EmissionTrace:
    """emission-trace on an explicit, inhomogeneous 5-ion ensemble."""

    name = "emission-trace"

    def __init__(self, seed: int, workdir: str):
        _write(os.path.join(workdir, "emitters.csv"),
               "detuning_hz,g_hz\n" + "".join(f"{d!r},{TR_G_HZ!r}\n" for d in TR_DETUNINGS_HZ))
        self.config = _write(os.path.join(workdir, "run.cfg"), f"""experiment = emission-trace
{CAVITY_KEYS}decoherence.gamma_s_hz = {TR_GAMMA_S_HZ!r}
decoherence.gamma_d_hz = {TR_GAMMA_D_HZ!r}
ensemble.kind = explicit
ensemble.file = emitters.csv
drive.power_w = {TR_POWER_W!r}
drive.pulse_length_s = {TR_PULSE_S!r}
grid.time.start_s = {TR_TIMES_S[0]!r}
grid.time.stop_s = {TR_TIMES_S[1]!r}
grid.time.num = {TR_TIMES_S[2]}
""")
        self.points = TR_TIMES_S[2]

    def describe(self) -> str:
        return "inputs do not depend on the seed"

    def check(self, run: dict, cavens) -> Verdict:
        v = Verdict()
        n = len(TR_DETUNINGS_HZ)
        columns, rows = run["tables"]["emission_trace"]
        if len(rows) != self.points:
            v.fail(set(range(self.points)), f"{len(rows)} samples, not {self.points}")
            return v
        col = {c: k for k, c in enumerate(columns)}
        purcell = 4.0 * (TWO_PI * TR_G_HZ) ** 2 / KAPPA
        t = np.array([r[col["time_s"]] for r in rows])
        jpjm = np.array([r[col["jpjm"]] for r in rows])
        ind = np.array([r[col["individual"]] for r in rows])
        corr = np.array([r[col["correlation"]] for r in rows])
        coh2 = np.array([r[col["coherent_real"]] ** 2 + r[col["coherent_imag"]] ** 2
                         for r in rows])
        pop = np.array([r[col["cavity_pop"]] for r in rows])
        tol = 1e-9
        for k in range(self.points):
            if not -tol <= ind[k] <= n + tol:
                v.fail({k}, f"sample {k}: individual excitation {ind[k]} outside [0, {n}]")
            if coh2[k] > jpjm[k] * (1.0 + tol) + tol:
                v.fail({k}, f"sample {k}: |<J->|^2 = {coh2[k]} exceeds <J+J-> = {jpjm[k]}")
            if abs(corr[k] - (jpjm[k] - ind[k])) > tol * max(1.0, jpjm[k]):
                v.fail({k}, f"sample {k}: correlation {corr[k]} is not jpjm - individual")
            if _rel(pop[k], purcell * jpjm[k]) > tol:
                v.fail({k}, f"sample {k}: cavity_pop {pop[k]} is not Gamma_c <J+J->")
            if k > 0 and t[k - 1] >= TR_PULSE_S and ind[k] > ind[k - 1] * (1.0 + tol):
                v.fail({k}, f"sample {k}: excitation rises after the pulse, "
                            f"{ind[k - 1]} -> {ind[k]}")
        self._krylov(v, run, t, jpjm, purcell, cavens)
        return v

    def _krylov(self, v: Verdict, run: dict, t: np.ndarray, jpjm: np.ndarray, purcell: float,
                cavens) -> None:
        """<J+J-> at every sample and Gamma_c <J+J-> at the pulse end against
        Krylov propagation: from the ground state under the drive-on
        generator up to the pulse end, then under the drive-off generator."""
        from cavens.core import CavityParams, DecoherenceParams, EmitterEnsemble

        n = len(TR_DETUNINGS_HZ)
        ens = EmitterEnsemble.explicit([(TWO_PI * d, TWO_PI * TR_G_HZ) for d in TR_DETUNINGS_HZ])
        cavity = CavityParams.from_hz(KAPPA_HZ, KAPPA_C_HZ)
        dec = DecoherenceParams.from_hz(TR_GAMMA_S_HZ, TR_GAMMA_D_HZ)
        on, off = (cavens.lindblad.build_generator(ens, mu, cavity, dec).superoperator()
                   for mu in (run["metadata"]["mu"], 0.0))
        ops = oracles.collective_ops(n)
        stops = sorted({*t.tolist(), TR_PULSE_S})
        vec, now, ref = oracles.ground_vec(n), 0.0, {}
        for stop in stops:
            vec = oracles.propagate(on if now < TR_PULSE_S else off, vec, stop - now)
            now = stop
            ref[stop] = oracles.expect(ops["jpjm"], vec).real
        for k, tk in enumerate(t):
            if _rel(jpjm[k], ref[tk]) > 1e-6:
                v.fail({k}, f"sample {k}: <J+J-> = {jpjm[k]} against Krylov {ref[tk]}")
        k_end = int(np.argmin(np.abs(t - TR_PULSE_S)))
        peak = run["metadata"]["peak_instant"]
        if _rel(peak, purcell * ref[TR_PULSE_S]) > 1e-6:
            v.fail({k_end}, f"pulse-end Gamma_c <J+J-> = {peak} against Krylov "
                            f"{purcell * ref[TR_PULSE_S]}")


WORKLOADS = {w.name: w for w in (CitContinuum, SpectrumQuantile, SCurveBinned, EmissionTrace)}

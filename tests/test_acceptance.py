"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here; stated runtime budgets are asserted
with generous margins.
"""

import math
import time

import numpy as np
import pytest

from cavens import analysis, dicke, ensemble as ens_mod, lindblad, meanfield
from cavens.core import (
    CavityParams,
    DecoherenceParams,
    EmitterEnsemble,
    SystemModel,
    derive_rates,
    ensemble_cooperativity,
    mu_from_power,
    validate_assumptions,
)
from cavens.units import TWO_PI, hz_to_angular

from conftest import coupling_for_cooperativity


def report(num, slug, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def paper_cavity():
    return CavityParams.from_hz(44e9, 8.8e9, 0.0, 304500e9)


@pytest.fixture(scope="module")
def paper_dec():
    return DecoherenceParams.from_hz(600, 6000)


def test_c01_purcell_rate(paper_cavity):
    t0 = time.monotonic()
    rates = derive_rates(paper_cavity, DecoherenceParams(0.0),
                         EmitterEnsemble.identical(1, hz_to_angular(35e6)))
    tau = 1.0 / rates.purcell
    elapsed = time.monotonic() - t0
    ok = abs(tau / 1.4e-6 - 1.0) <= 0.05 and elapsed < 1.0
    report(1, "purcell-rate", ok, f"1/Gamma_c = {tau * 1e6:.3f} us, {elapsed:.2f}s")


def test_c02_cooperativity(paper_cavity):
    t0 = time.monotonic()
    n = 100000
    g = hz_to_angular(4.4e9) / math.sqrt(n)
    c = ensemble_cooperativity(paper_cavity,
                               EmitterEnsemble.lorentzian(n_ions=n,
                                                          delta_inh=hz_to_angular(150e6), g=g))
    elapsed = time.monotonic() - t0
    ok = abs(c / 12.0 - 1.0) <= 0.05 and elapsed < 1.0
    report(2, "cooperativity", ok, f"C = {c:.3f}, {elapsed:.2f}s")


def test_c03_cit_width_narrowing(paper_cavity, paper_dec):
    t0 = time.monotonic()
    delta_inh = hz_to_angular(150e6)
    n = 1000
    g = coupling_for_cooperativity(12.0, paper_cavity, delta_inh, n)
    parametric = EmitterEnsemble.lorentzian(n_ions=n, delta_inh=delta_inh, g=g)
    model = SystemModel(paper_cavity, paper_dec, parametric)
    asym = meanfield.cit_analytics(model, mu=1e12, check=False)
    width_min = delta_inh / 12.0
    ok_analytic = (math.isclose(asym.width, width_min, rel_tol=1e-3)
                   and abs(asym.width / TWO_PI - 12.5e6) < 0.2e6)

    grid = np.linspace(-90e6, 90e6, 361) * TWO_PI
    norm = analysis.DipNormalization((1 - 2 * paper_cavity.coupling_ratio) ** 2, 1.0)
    # Fit the continuum line (closed-form response), not a quantile stand-in:
    # at mu = 3e-7 the per-emitter saturated HWHM drops below the 1000-quantile
    # comb spacing within one dip width of line centre, so the flanks resolve
    # single emitters and bias the fitted width by several percent
    # (pinned in test_meanfield::test_quantile_comb_resolution).
    # Ceiling: per-emitter saturation hole below the collective width.
    widths = []
    for mu in np.geomspace(3e-7, 5e-6, 10):
        fit = analysis.fit_lorentzian_dip(
            meanfield.reflection_spectrum(parametric, mu, grid, paper_cavity, paper_dec),
            norm)
        widths.append(fit.width if fit else math.nan)
    widths = np.array(widths)
    monotone = bool(np.all(np.diff(widths) <= widths[:-1] * 1e-3))
    within2x = widths[-1] <= 2.0 * width_min
    elapsed = time.monotonic() - t0
    ok = ok_analytic and monotone and within2x and elapsed < 300
    report(3, "cit-width-narrowing", ok,
           f"analytic min {asym.width / TWO_PI / 1e6:.2f} MHz, fitted "
           f"{widths[0] / TWO_PI / 1e6:.1f}->{widths[-1] / TWO_PI / 1e6:.1f} MHz "
           f"({widths[-1] / width_min:.2f}x floor), {elapsed:.1f}s")


def test_c04_selfconsistent_x_oracle():
    t0 = time.monotonic()
    cav = CavityParams.from_hz(10e9, 2e9)
    dec = DecoherenceParams.from_hz(1e3, 0.0)
    n, g = 13900, hz_to_angular(30e6)
    dinh = hz_to_angular(100e6)
    ens = EmitterEnsemble.lorentzian(n_ions=n, delta_inh=dinh, g=g)
    model = SystemModel(cav, dec, ens)
    offset = hz_to_angular(0.1e6)
    worst = 0.0
    ratios_ok = True
    for mu in np.geomspace(1e-4, 6e-4, 10):
        ratios_ok &= validate_assumptions(model, mu, ratio=30.0).passed
        x = meanfield.solve_selfconsistent_x(ens, mu, offset, cav, dec)
        q = dinh * cav.kappa / (2 * n * g) * math.sqrt(mu / (dec.gamma_s * dec.gamma))
        x_ref = 1.0 / (q - 1.0) + 8j * offset * n * g**2 / (dinh**2 * cav.kappa)
        worst = max(worst, abs(x.real - x_ref.real) / abs(x_ref.real),
                    abs(x.imag - x_ref.imag) / abs(x_ref.imag))
    elapsed = time.monotonic() - t0
    ok = ratios_ok and worst <= 0.05 and elapsed < 60
    report(4, "selfconsistent-x-oracle", ok,
           f"all validity ratios >= 30: {ratios_ok}, worst component error "
           f"{100 * worst:.2f}%, {elapsed:.1f}s")


def test_c05_bare_cavity_saturation(paper_cavity, paper_dec):
    ss = meanfield.single_ion_steady_state(0.0, hz_to_angular(35e6), 1e9,
                                           paper_cavity, paper_dec)
    ok = abs(ss.reflectance - 0.36) <= 1e-6
    report(5, "bare-cavity-saturation", ok, f"R = {ss.reflectance:.9f}")


def test_c06_two_three_ion_interference(paper_cavity, paper_dec):
    t0 = time.monotonic()
    g35 = hz_to_angular(35e6)
    d = hz_to_angular(0.048e6)
    grid = np.linspace(-0.3e6, 0.3e6, 601) * TWO_PI
    pair = EmitterEnsemble.explicit([(-d, g35), (d, g35)])
    triple = EmitterEnsemble.explicit([(-d, g35), (0.0, g35), (d, g35)])
    s2 = meanfield.reflection_spectrum(pair, 1e-8, grid, paper_cavity, paper_dec)
    s3 = meanfield.reflection_spectrum(triple, 1e-8, grid, paper_cavity, paper_dec)
    i0 = len(grid) // 2
    i_ion = int(np.argmin(np.abs(grid - d)))
    dip_exists = s2.reflectance[i0] < s2.reflectance[i_ion] - 0.2
    dip_absent = s3.reflectance[i0] > 0.8
    elapsed = time.monotonic() - t0
    ok = dip_exists and dip_absent and elapsed < 60
    report(6, "two-three-ion-interference", ok,
           f"pair R(0)={s2.reflectance[i0]:.3f} vs shoulder {s2.reflectance[i_ion]:.3f}; "
           f"triple R(0)={s3.reflectance[i0]:.3f}, {elapsed:.1f}s")


def test_c07_cit_phase_shift(paper_cavity, paper_dec):
    delta_inh = hz_to_angular(150e6)
    n = 1000
    grid = np.linspace(-300e6, 300e6, 901) * TWO_PI

    def swing(coop):
        g = coupling_for_cooperativity(coop, paper_cavity, delta_inh, n)
        ens = EmitterEnsemble.lorentzian(n_ions=n, delta_inh=delta_inh, g=g).to_explicit()
        spec = meanfield.reflection_spectrum(ens, 1e-6, grid, paper_cavity, paper_dec)
        return float(np.ptp(spec.phase))

    high_c = swing(48.0)
    device_c = swing(12.0)
    ok = abs(high_c - math.pi) <= 0.1 and device_c > 2.6
    report(7, "cit-phase-shift", ok,
           f"swing(C=48) = {high_c:.3f} rad (pi {'-' if high_c < math.pi else '+'} "
           f"{abs(high_c - math.pi):.3f}); swing(C=12) = {device_c:.3f} rad")


def test_c08_block_vs_full_oracle():
    t0 = time.monotonic()
    kappa, g = 1000.0, 10.0
    cav = CavityParams(kappa=kappa, kappa_c=200.0, omega=1e15)
    times = np.linspace(0.4, 16.0, 8)
    worst = 0.0
    for n in range(2, 7):
        ens = EmitterEnsemble.identical(n, g)
        for drive_amp in (0.0, 0.7, 2.0):
            mu = (drive_amp / g) ** 2
            for gd in (0.0, 0.18, 0.35):
                dec = DecoherenceParams(gamma_s=0.25, gamma_d=gd)
                genf = lindblad.build_generator(ens, mu, cav, dec)
                opsf = lindblad.collective_operators(n)
                full = lindblad.evolve_expm(lindblad.DensityState.ground(n), genf, times)
                jpjm_f = np.array([s.expect(opsf["jpjm"]).real for s in full])
                jz_f = np.array([s.expect(opsf["jz"]).real for s in full])
                genb = dicke.build_block_generator(n, g, mu, cav, dec)
                obs = dicke.block_observables(genb)
                blocks = dicke.block_evolve(genb, dicke.DickeBlockState.all_ground(n), times)
                jpjm_b = np.array([float(np.real(obs["jpjm"] @ q.to_vec())) for q in blocks])
                jz_b = np.array([float(np.real(obs["jz"] @ q.to_vec())) for q in blocks])
                worst = max(worst, float(np.max(np.abs(jpjm_f - jpjm_b))),
                            float(np.max(np.abs(jz_f - jz_b))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 600
    report(8, "block-vs-full-oracle", ok,
           f"n = 2..6, 3x3 (mu, gamma_d) grid, worst |dev| = {worst:.2e}, {elapsed:.0f}s")


def test_c09_collective_rate_law(paper_cavity):
    t0 = time.monotonic()
    g35 = hz_to_angular(35e6)
    dec = DecoherenceParams.from_hz(600, 600)
    gc = 4 * g35**2 / paper_cavity.kappa
    worst = 0.0
    for n in (2, 4, 6):
        gen_on = dicke.build_block_generator(n, g35, 1e-9, paper_cavity, dec)
        gen_off = dicke.build_block_generator(n, g35, 0.0, paper_cavity, dec)
        obs = dicke.block_observables(gen_on)
        q = dicke.block_evolve(gen_on, dicke.DickeBlockState.all_ground(n), [50e-6])[0]
        ts = np.linspace(0, 0.3 / (n * gc), 10)
        vals = np.array([float(np.real(obs["jpjm"] @ s.to_vec()))
                         for s in dicke.block_evolve(gen_off, q, ts)])
        rate = -np.polyfit(ts, np.log(vals), 1)[0]
        worst = max(worst, abs(rate / (n * gc) - 1.0))

    rng = np.random.default_rng(1)
    gs = g35 * rng.uniform(0.4, 1.4, size=4)
    ens = EmitterEnsemble.explicit([(0.0, gv) for gv in gs])
    rate_pred = 4 * 4 * float(np.mean(gs**2)) / paper_cavity.kappa
    gen_on = lindblad.build_generator(ens, 1e-9, paper_cavity, dec)
    gen_off = lindblad.build_generator(ens, 0.0, paper_cavity, dec)
    ops = lindblad.collective_operators(4)
    st = lindblad.evolve_expm(lindblad.DensityState.ground(4), gen_on, [50e-6])[0]
    ts = np.linspace(0, 0.3 / rate_pred, 10)
    vals = np.array([s.expect(ops["jpjm"]).real
                     for s in lindblad.evolve_expm(st, gen_off, ts)])
    rate = -np.polyfit(ts, np.log(vals), 1)[0]
    worst_inh = abs(rate / rate_pred - 1.0)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.03 and worst_inh <= 0.03
    report(9, "collective-rate-law", ok,
           f"identical worst {100 * worst:.2f}%, inhomogeneous-g {100 * worst_inh:.2f}%, "
           f"{elapsed:.0f}s")


def test_c10_scurve_regimes_i_ii(paper_cavity):
    t0 = time.monotonic()
    # gamma_s-dominated decoherence recycles dark states and makes the
    # regime I/II hump pronounced at n = 6 (see decisions ledger)
    dec = DecoherenceParams.from_hz(6000, 600)
    powers = np.geomspace(7e-16, 2.1e-11, 16)
    runs = [dicke.pulsed_block_emission(6, hz_to_angular(35e6), mu_from_power(p, paper_cavity),
                                        paper_cavity, dec, 50e-6, compute_counts=False)
            for p in powers]
    peaks = np.array([r.peak_instant for r in runs])
    subradiant = np.array([r.weights["subradiant"] for r in runs])
    i_max = int(np.argmax(peaks))
    rise_fall = 0 < i_max < len(powers) - 1 and peaks[i_max] > 1.2 * peaks[-1]
    sub_growth = subradiant[-1] > subradiant[i_max] + 0.1
    elapsed = time.monotonic() - t0
    ok = rise_fall and sub_growth and elapsed < 600
    report(10, "scurve-regimes-i-ii", ok,
           f"peak/final = {peaks[i_max] / peaks[-1]:.2f}, subradiant "
           f"{subradiant[i_max]:.2f}->{subradiant[-1]:.2f}, {elapsed:.0f}s")


def test_c11_regime_iii_upturn(paper_cavity):
    t0 = time.monotonic()
    dec = DecoherenceParams.from_hz(6000, 600)
    delta_inh = hz_to_angular(150e6)
    g = hz_to_angular(10.6e6)
    model = SystemModel(paper_cavity, dec,
                        EmitterEnsemble.lorentzian(n_ions=569, delta_inh=delta_inh, g=g))
    subs = ens_mod.bin_lorentzian(569, delta_inh, 91, delta_inh / 90.0, g)
    powers = np.geomspace(5e-14, 3e-8, 18)
    res = ens_mod.incoherent_scurve(subs, powers, 50e-6, model, peak_mode="instant")
    feat = analysis.extract_scurve_features(res.powers, res.total)
    elapsed = time.monotonic() - t0
    ok = (feat.n_regimes == 3 and feat.boundary_i_ii is not None
          and feat.boundary_ii_iii is not None
          and feat.boundary_i_ii < feat.boundary_ii_iii and elapsed < 7200)
    report(11, "regime-iii-upturn", ok,
           f"regimes = {feat.n_regimes}, boundaries {feat.boundary_i_ii!r} / "
           f"{feat.boundary_ii_iii!r} W, {elapsed:.0f}s")


def test_c12_fit_pipeline_roundtrips():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    # Lorentzian dip synthetic recovery to 1e-6
    f = np.linspace(-400e6, 400e6, 801) * TWO_PI
    w_true, d_true, c_true = TWO_PI * 50e6, 0.8, TWO_PI * 3e6
    y = 1.0 - d_true * (w_true / 2) ** 2 / ((f - c_true) ** 2 + (w_true / 2) ** 2)
    fit = analysis.fit_lorentzian_dip((f, 0.36 + 0.64 * y),
                                      analysis.DipNormalization(0.36, 1.0))
    dip_ok = (abs(fit.width / w_true - 1) < 1e-6 and abs(fit.depth / d_true - 1) < 1e-6)

    # stretched bi-exponential: 7 parameters within 5% at 0.5% noise
    truth = dict(a1=5.0, tau1=2e-6, x1=0.9, a2=1.5, tau2=60e-6, x2=0.7, b=0.05)
    t = np.linspace(1e-9, 1.5e-3, 6000)
    yb = (truth["a1"] * np.exp(-(t / truth["tau1"]) ** truth["x1"])
          + truth["a2"] * np.exp(-(t / truth["tau2"]) ** truth["x2"]) + truth["b"])
    bfit = analysis.fit_emission_trace(t, yb * (1 + 0.005 * rng.standard_normal(len(t))))
    biexp_ok = all(abs(getattr(bfit, k) / truth[k] - 1) < 0.05 for k in truth)

    # Monte-Carlo power-law recovery within 3 stderr over 100 draws
    p_true = dict(p1=TWO_PI * 42e6, p2=0.08, p3=0.3, p4=1.2)
    p_grid = np.geomspace(0.05, 25.0, 12)
    hits = {k: 0 for k in p_true}
    n_draws = 100
    for _ in range(n_draws):
        u = 1.0 - p_true["p2"] / np.sqrt(p_grid)
        w_syn = p_true["p1"] / u * (1 + 0.01 * rng.standard_normal(len(p_grid)))
        d_syn = (p_true["p4"] * (u - p_true["p3"] * u**2)
                 * (1 + 0.01 * rng.standard_normal(len(p_grid))))
        law = analysis.fit_cit_power_laws(p_grid, w_syn, d_syn)
        for k, v in p_true.items():
            if law.stderr[k] > 0 and abs(getattr(law, k) - v) <= 3 * law.stderr[k]:
                hits[k] += 1
    mc_ok = all(h >= 0.95 * n_draws for h in hits.values())
    elapsed = time.monotonic() - t0
    ok = dip_ok and biexp_ok and mc_ok and elapsed < 300
    report(12, "fit-pipeline-roundtrips", ok,
           f"dip {dip_ok}, biexp {biexp_ok}, monte-carlo hits {hits}, {elapsed:.0f}s")


def test_c13_beat_note_analytics(paper_cavity):
    tau = 10e-6
    t = np.arange(0, 400e-6, 20e-9)
    lo = TWO_PI * 5e6
    ref = analysis.beat_spectrum(t, np.exp(-t / (2 * tau)), lo)
    width_ok = abs(ref.gamma_beat * tau - 1.0) <= 0.01  # FWHM = 1/(2 pi tau) in Hz

    # fully mixed state: the coherent amplitude vanishes identically
    n = 4
    basis = dicke.dicke_basis(n)
    mixed = dicke.DickeBlockState.from_vec(n, np.concatenate(  # real coordinates of real blocks
        [np.eye(int(2 * j) + 1).reshape(-1) / 2**n for j in basis.j_values]))
    gen_off = dicke.build_block_generator(n, hz_to_angular(35e6), 0.0, paper_cavity,
                                          DecoherenceParams.from_hz(600, 6000))
    obs = dicke.block_observables(gen_off)
    states = dicke.block_evolve(gen_off, mixed, t[1:] + 0.0)
    amp = np.concatenate([[complex(obs["jm"] @ mixed.to_vec())],
                          [complex(obs["jm"] @ s.to_vec()) for s in states]])
    null = analysis.beat_spectrum(t, amp, lo)
    mixed_ok = null.a_beat < 1e-6 * ref.a_beat
    ok = width_ok and mixed_ok
    report(13, "beat-note-analytics", ok,
           f"gamma_beat*tau = {ref.gamma_beat * tau:.4f}, mixed/reference area = "
           f"{null.a_beat / ref.a_beat:.2e}")


def test_c14_superradiant_n_estimator(paper_cavity):
    neff = ens_mod.estimate_superradiant_n(270e-9, hz_to_angular(10.6e6),
                                           paper_cavity.kappa)
    ok = abs(neff - 58.0) <= 1.0
    report(14, "superradiant-n-estimator", ok, f"N_eff = {neff:.2f}")


DETERMINISM_CFG = """
experiment = s-curve
seed = 11
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 6000
decoherence.gamma_d_hz = 600
ensemble.kind = identical
ensemble.n_ions = 4
ensemble.g_hz = 35e6
grid.power.start_w = 1e-15
grid.power.stop_w = 1e-11
grid.power.num = 5
grid.power.scale = log
drive.pulse_length_s = 20e-6
sweep.axis = n_ions
sweep.values = 3, 4
"""


def test_c15_determinism(tmp_path):
    from cavens.cli import main

    cfg = tmp_path / "det.cfg"
    cfg.write_text(DETERMINISM_CFG)
    payloads = []
    for jobs in ("1", "8"):
        for rep in range(3):
            out = tmp_path / f"d{jobs}_{rep}"
            code = main(["--config", str(cfg), "--out", str(out), "--jobs", jobs])
            assert code == 0
            payloads.append((tmp_path / f"d{jobs}_{rep}_sweep_s-curve.csv").read_bytes())
    ok = len(set(payloads)) == 1
    report(15, "determinism", ok,
           f"{len(payloads)} runs (3x jobs=1, 3x jobs=8), "
           f"{len(set(payloads))} distinct CSV payload(s)")

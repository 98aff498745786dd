import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cavens
from cavens.cli import main
from cavens.config import ConfigError, build_config, load_config, parse_kv_text
from cavens.units import hz_to_angular

BASE_MODEL = """
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 6000
decoherence.gamma_d_hz = 600
ensemble.kind = identical
ensemble.n_ions = 4
ensemble.g_hz = 35e6
"""

SCURVE_CFG = BASE_MODEL + """
experiment = s-curve
seed = 1
grid.power.start_w = 1e-15
grid.power.stop_w = 1e-11
grid.power.num = 5
grid.power.scale = log
drive.pulse_length_s = 20e-6
"""


BINNED_CFG = BASE_MODEL.replace("ensemble.kind = identical", "ensemble.kind = lorentzian") + """
ensemble.delta_inh_hz = 150e6
experiment = s-curve
bins.n = 3
bins.width_hz = 50e6
drive.pulse_length_s = 5e-6
grid.power.start_w = 1e-13
grid.power.stop_w = 1e-11
grid.power.num = 2
grid.power.scale = log
"""

# the paper-like Lorentzian line of acceptance 03 (cooperativity 12)
LINE_MODEL = """
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 600
decoherence.gamma_d_hz = 6000
ensemble.kind = lorentzian
ensemble.n_ions = 1000
ensemble.delta_inh_hz = 150e6
ensemble.g_hz = 140.7e6
"""


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConfigParsing:
    def test_kv_lines(self):
        kv = parse_kv_text("a.b = 1 # trailing\n# comment\n\nc = x\n")
        assert kv["a.b"] == ("1", 1)
        assert kv["c"] == ("x", 4)

    def test_error_carries_line(self):
        with pytest.raises(ConfigError) as err:
            parse_kv_text("a.b = 1\nbogus line\n")
        assert "line 2" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_kv_text("a = 1\na = 2\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            build_config(BASE_MODEL + "experiment = bogus\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            build_config(SCURVE_CFG + "typo.key = 1\n")
        assert "typo.key" in str(err.value)

    def test_missing_file_reference(self, tmp_path):
        cfg = """
experiment = emission-trace
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 600
ensemble.kind = explicit
ensemble.file = does_not_exist.csv
"""
        with pytest.raises(ConfigError):
            build_config(cfg, base_dir=str(tmp_path))

    def test_g_histogram_cutoff(self, tmp_path):
        (tmp_path / "hist.csv").write_text("# comment\ng_hz,probability\n1e6,0.25\n2e6,0.75\n")
        text = LINE_MODEL.replace("ensemble.g_hz = 140.7e6",
                                  "ensemble.g_histogram_file = hist.csv\n"
                                  "ensemble.g_cutoff_hz = 1.5e6") + "experiment = phase-map\n"
        cfg = build_config(text, base_dir=str(tmp_path))
        assert cfg.model.ensemble.g_hist == ((hz_to_angular(2e6), 1.0),)
        with pytest.raises(ConfigError, match="ensemble.g_cutoff_hz"):
            build_config(text.replace("1.5e6", "3e6"), base_dir=str(tmp_path))

    def test_emitter_file_columns(self, tmp_path):
        (tmp_path / "em.csv").write_text("# comment\ndetuning_hz,g_hz\n0,35e6\n5e6,30e6\n")
        (tmp_path / "bad.csv").write_text("detuning_hz,coupling_hz\n0,35e6\n")
        text = BASE_MODEL.replace("ensemble.kind = identical\nensemble.n_ions = 4\n"
                                  "ensemble.g_hz = 35e6\n",
                                  "ensemble.kind = explicit\nensemble.file = em.csv\n") \
            + "experiment = phase-map\n"
        cfg = build_config(text, base_dir=str(tmp_path))
        assert cfg.model.ensemble.emitters == ((0.0, hz_to_angular(35e6)),
                                               (hz_to_angular(5e6), hz_to_angular(30e6)))
        with pytest.raises(ConfigError, match="need columns detuning_hz, g_hz"):
            build_config(text.replace("em.csv", "bad.csv"), base_dir=str(tmp_path))
        for cell, why in (("nan", "not a finite number"), ("abc", "could not convert"),
                          ("", "could not convert")):
            (tmp_path / "cell.csv").write_text(f"detuning_hz,g_hz\n0,35e6\n{cell},30e6\n")
            with pytest.raises(ConfigError, match=f"data row 2: {why}"):
                build_config(text.replace("em.csv", "cell.csv"), base_dir=str(tmp_path))

    @pytest.mark.parametrize("key, value", [("grid.power.stop_w", "nan"),
                                            ("grid.power.stop_w", "inf"),
                                            ("grid.power.stop_w", "-1e400"),
                                            ("grid.power.num", "inf"),
                                            ("sweep.values", "1e-13, nan")])
    def test_non_finite_number_rejected(self, key, value):
        lines = (SCURVE_CFG + "sweep.axis = power_w\nsweep.values = 1e-13\n").splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        lines[k] = f"{key} = {value}"
        with pytest.raises(ConfigError) as err:
            build_config("\n".join(lines))
        assert (err.value.line, err.value.key) == (k + 1, key)
        assert "not a finite number" in str(err.value)

    @pytest.mark.parametrize("key, value", [("ensemble.n_ions", "3.7"),
                                            ("grid.power.num", "2.9"),
                                            ("bins.n", "2.5")])
    def test_non_integer_count_rejected(self, key, value):
        lines = BINNED_CFG.replace("grid.power.num = 2", "grid.power.num = 2.0").splitlines()
        build_config("\n".join(lines))  # an integral float is a count
        k = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        lines[k] = f"{key} = {value}"
        with pytest.raises(ConfigError) as err:
            build_config("\n".join(lines))
        assert (err.value.line, err.value.key) == (k + 1, key)
        assert "not an integer" in str(err.value)

    def test_unknown_peak_mode_rejected(self):
        with pytest.raises(ConfigError) as err:
            build_config(BINNED_CFG + "peak_mode = bogus\n")
        assert err.value.key == "peak_mode" and err.value.line is not None
        assert build_config(BINNED_CFG + "peak_mode = instant\n").peak_mode == "instant"

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError):
            build_config(SCURVE_CFG.replace("grid.power.stop_w = 1e-11",
                                            "grid.power.stop_w = 1e-16"))


class TestCliRuns:
    def _run(self, tmp_path, text, name, out, extra_args=()):
        path = tmp_path / name
        path.write_text(text)
        return main(["--config", str(path), "--out", str(tmp_path / out), *extra_args])

    def test_exit_code_config_error(self, tmp_path, capsys):
        assert self._run(tmp_path, "nonsense\n", "bad.cfg", "x") == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_code_non_finite_power(self, tmp_path, capsys):
        # a NaN power would run, and its NaN peaks would drop out of the bin sums
        cfg = BINNED_CFG.replace("grid.power.stop_w = 1e-11", "grid.power.stop_w = nan")
        assert self._run(tmp_path, cfg, "nan.cfg", "nan") == 2
        assert "key 'grid.power.stop_w'" in capsys.readouterr().err
        assert not list(tmp_path.glob("nan_*"))

    @pytest.mark.parametrize("emitters, values, key", [
        ("-3e6,30e6\n0,35e6\n4e6,40e6\n", "3", "sweep.axis"),  # would copy the first emitter
        ("0,35e6\n0,35e6\n", "3.7", "sweep.values"),  # would be truncated to 3
        ("0,35e6\n0,35e6\n", "2, 0", "sweep.values"),
    ], ids=["spread-explicit", "non-integer", "non-positive"])
    def test_exit_code_bad_n_ions_sweep(self, tmp_path, capsys, emitters, values, key):
        (tmp_path / "em.csv").write_text("detuning_hz,g_hz\n" + emitters)
        cfg = BASE_MODEL.replace("ensemble.kind = identical\nensemble.n_ions = 4\n"
                                 "ensemble.g_hz = 35e6\n",
                                 "ensemble.kind = explicit\nensemble.file = em.csv\n") + f"""
experiment = emission-trace
drive.mu = 1e-6
drive.pulse_length_s = 1e-6
grid.time.start_s = 0.5e-6
grid.time.stop_s = 2e-6
grid.time.num = 4
sweep.axis = n_ions
sweep.values = {values}
"""
        assert self._run(tmp_path, cfg, "nsweep.cfg", "nsweep") == 2
        assert f"key '{key}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("nsweep_*"))

    def test_n_ions_sweep_below_bins_is_config_error(self, tmp_path, capsys):
        """A binned S-curve cannot spread fewer ions than bins.n over its bins."""
        cfg = BINNED_CFG + "sweep.axis = n_ions\nsweep.values = 2, 4\n"
        assert self._run(tmp_path, cfg, "nbins.cfg", "nbins") == 2
        assert "key 'sweep.values'" in capsys.readouterr().err
        assert not list(tmp_path.glob("nbins_*"))

    @pytest.mark.parametrize("cfg, message", [
        (SCURVE_CFG.replace("drive.pulse_length_s = 20e-6\n", "")
         + "sweep.axis = n_ions\nsweep.values = 3, 4\n", "key 'drive.pulse_length_s'"),
        (SCURVE_CFG + "sweep.axis = power_w\nsweep.values = 1e-13, 1e-12\n", "key 'sweep.axis'"),
        (LINE_MODEL + "experiment = cit-power-sweep\ngrid.freq.start_hz = -90e6\n"
         "grid.freq.stop_hz = 90e6\ngrid.freq.num = 61\n"
         "sweep.axis = power_w\nsweep.values = 1e-13, 1e-12\n", "key 'sweep.axis'"),
        (SCURVE_CFG.replace("grid.power.num = 5", "grid.power.num = 0")
         + "sweep.axis = n_ions\nsweep.values = 3, 4\n", "grid num must be >= 1"),
    ], ids=["n-ions-without-pulse", "power-sweep-of-s-curve", "power-sweep-of-cit",
            "empty-power-grid"])
    def test_sweep_config_error_exits_2(self, tmp_path, capsys, cfg, message):
        """A config its experiment cannot run is a config error, swept or
        not: every point has the same config shape, so it fails them all."""
        assert self._run(tmp_path, cfg, "sw.cfg", "sw") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err
        assert not list(tmp_path.glob("sw_*"))

    def test_unwritable_out_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        """An --out under a regular file exits 2 with one line that names
        it, and nothing is solved."""
        from cavens import cli

        def solve(_cfg):
            raise AssertionError("solved before the output directory was made")

        monkeypatch.setattr(cli, "run_experiment", solve)
        (tmp_path / "file").write_text("")
        assert self._run(tmp_path, SCURVE_CFG, "sc.cfg", "file/run") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and len(err.splitlines()) == 1
        assert str(tmp_path / "file") in err

    def test_exit_code_solver_failure(self, tmp_path, capsys):
        """Nine distinct emitters span 4^9 operator-space dimensions, above
        lindblad.DIM_MAX: a capability failure, exit 3."""
        (tmp_path / "em.csv").write_text("detuning_hz,g_hz\n"
                                         + "".join(f"{k}e6,35e6\n" for k in range(9)))
        cfg = BASE_MODEL.replace("ensemble.kind = identical\nensemble.n_ions = 4\n"
                                 "ensemble.g_hz = 35e6\n",
                                 "ensemble.kind = explicit\nensemble.file = em.csv\n") + """
experiment = emission-trace
drive.mu = 1e-6
drive.pulse_length_s = 10e-6
grid.time.start_s = 1e-6
grid.time.stop_s = 30e-6
grid.time.num = 5
"""
        assert self._run(tmp_path, cfg, "cap.cfg", "cap") == 3
        err = capsys.readouterr().err
        assert "solver failure" in err and f"dimension {4**9}" in err

    CIT_CFG = LINE_MODEL + """
experiment = cit-power-sweep
grid.freq.start_hz = -90e6
grid.freq.stop_hz = 90e6
grid.freq.num = 61
grid.power.start_w = 2e-14
grid.power.num = 1
"""

    FORCED = "lm solve at a forced point: dip fit failed: forced (residual nan)"

    @staticmethod
    def _fail_fit(monkeypatch, which: int) -> list:
        """Make the ``which``-th dip fit (1-based) raise SolverError; returns
        the call log, which a caller clears to start counting again."""
        from cavens import analysis
        from cavens.core import SolverError

        real_fit = analysis.fit_lorentzian_dip
        calls = []

        def fit(*args, **kwargs):
            calls.append(1)
            if len(calls) == which:
                raise SolverError("dip fit failed: forced", point="a forced point", method="lm",
                                  residual=math.nan)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(analysis, "fit_lorentzian_dip", fit)
        return calls

    def test_fit_failure_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        """A failed dip fit fails only its power (exit 4), and in a sweep
        its failure carries the sweep point."""
        from cavens import core

        calls = self._fail_fit(monkeypatch, 1)
        assert self._run(tmp_path, self.CIT_CFG, "cit.cfg", "cit") == 4
        assert "1 point(s) failed" in capsys.readouterr().err
        meta = json.loads((tmp_path / "cit_metadata.json").read_text())
        assert meta["failures"] == [{"power_index": 0, "error": self.FORCED}]
        calls.clear()
        monkeypatch.setattr(core, "USABLE_CORES", 1)  # the call log counts in this process
        sweep = self.CIT_CFG + "sweep.axis = detuning_hz\nsweep.values = 0, 1e6\n"
        assert self._run(tmp_path, sweep, "sw.cfg", "sw") == 4
        meta = json.loads((tmp_path / "sw_metadata.json").read_text())
        assert meta["failures"] == [{"axis_value": 0.0, "power_index": 0, "error": self.FORCED}]

    def test_fit_failure_keeps_other_powers(self, tmp_path, monkeypatch):
        """One failed dip fit in a power grid writes a NaN row for that
        power, and the other powers keep their fits."""
        self._fail_fit(monkeypatch, 2)
        cfg = self.CIT_CFG.replace("grid.power.num = 1", "grid.power.stop_w = 2e-12\n"
                                   "grid.power.num = 3\ngrid.power.scale = log")
        assert self._run(tmp_path, cfg, "cit3.cfg", "cit3") == 4
        header, rows = read_csv(tmp_path / "cit3_cit_power_sweep.csv")
        widths = [float(r[header.index("width_hz")]) for r in rows]
        assert len(rows) == 3 and math.isnan(widths[1])
        assert math.isfinite(widths[0]) and math.isfinite(widths[2])
        meta = json.loads((tmp_path / "cit3_metadata.json").read_text())
        assert meta["failures"] == [{"power_index": 1, "error": self.FORCED}]

    @pytest.mark.parametrize("binned, key, value", [
        (True, "bins.n", "4"),  # even: no bin on resonance
        (True, "bins.n", "0"),
        (True, "bins.n", "-1"),
        (True, "bins.n", "9"),  # more bins than the 4 ions
        (True, "bins.width_hz", "0"),
        (True, "drive.pulse_length_s", "0"),
        (False, "drive.pulse_length_s", "-1e-6"),
    ])
    def test_invalid_value_is_config_error(self, tmp_path, capsys, binned, key, value):
        lines = (BINNED_CFG if binned else SCURVE_CFG).splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        lines[k] = f"{key} = {value}"
        assert self._run(tmp_path, "\n".join(lines), "bad.cfg", "bad") == 2
        assert f"(line {k + 1}, key '{key}')" in capsys.readouterr().err
        assert not list(tmp_path.glob("bad_*"))

    def test_scurve_run_outputs(self, tmp_path):
        assert self._run(tmp_path, SCURVE_CFG, "sc.cfg", "run") == 0
        header, rows = read_csv(tmp_path / "run_s_curve.csv")
        assert header[:3] == ["power_w", "mu", "peak"]
        assert len(rows) == 5
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["experiment"] == "s-curve"
        assert "derived_rates" in meta and "assumptions" in meta

    def test_emission_trace_zero_drive(self, tmp_path):
        cfg = BASE_MODEL + """
experiment = emission-trace
drive.mu = 0
drive.pulse_length_s = 10e-6
grid.time.start_s = 1e-6
grid.time.stop_s = 30e-6
grid.time.num = 7
"""
        assert self._run(tmp_path, cfg, "em.cfg", "em") == 0
        _header, rows = read_csv(tmp_path / "em_emission_trace.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_emission_trace_detuning_sweep(self, tmp_path):
        cfg = BASE_MODEL + """
experiment = emission-trace
drive.mu = 1e-6
drive.pulse_length_s = 10e-6
grid.time.start_s = 1e-6
grid.time.stop_s = 30e-6
grid.time.num = 4
sweep.axis = detuning_hz
sweep.values = 0, 20e6
"""
        assert self._run(tmp_path, cfg, "ems.cfg", "ems") == 0
        _header, rows = read_csv(tmp_path / "ems_sweep_emission-trace.csv")
        on = [r[1:] for r in rows if float(r[0]) == 0.0]
        off = [r[1:] for r in rows if float(r[0]) != 0.0]
        assert len(on) == len(off) == 4
        assert all(a[0] == b[0] for a, b in zip(on, off))
        assert all(a[1] != b[1] for a, b in zip(on, off))

    def test_emission_trace_krylov_reproducible(self, tmp_path):
        """5 ions at distinct detunings (five groups of one, dimension 4^5 =
        1024) take the Krylov path; two runs write the same bytes, whatever
        numpy's global random state was."""
        (tmp_path / "ions.csv").write_text(
            "detuning_hz,g_hz\n0,35e6\n1e6,35e6\n2e6,35e6\n4e6,35e6\n5e6,35e6\n")
        cfg = BASE_MODEL.replace("ensemble.kind = identical\nensemble.n_ions = 4\n"
                                 "ensemble.g_hz = 35e6\n",
                                 "ensemble.kind = explicit\nensemble.file = ions.csv\n") + """
experiment = emission-trace
drive.power_w = 3e-12
drive.pulse_length_s = 20e-6
grid.time.start_s = 10e-6
grid.time.stop_s = 30e-6
grid.time.num = 3
"""
        bodies = []
        for seed in (1, 2):
            np.random.seed(seed)
            assert self._run(tmp_path, cfg, "kr.cfg", f"kr{seed}") == 0
            bodies.append((tmp_path / f"kr{seed}_emission_trace.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_binned_scurve_independent_of_blas_threads(self, tmp_path):
        """One binned S-curve (15 bins of 8-9 ions, blocks of dimension
        165-220) through the CLI in two processes, under one and two OpenBLAS
        threads: the CSV bodies are the same bytes.  On a one-core machine
        OpenBLAS runs one thread either way, and the test cannot tell."""
        (tmp_path / "bins.cfg").write_text("""
experiment = s-curve
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 6000
decoherence.gamma_d_hz = 600
ensemble.kind = lorentzian
ensemble.n_ions = 121
ensemble.delta_inh_hz = 150e6
ensemble.g_hz = 10.6e6
bins.n = 15
bins.width_hz = 1666666.6666666667
drive.pulse_length_s = 50e-6
grid.power.start_w = 5e-14
grid.power.stop_w = 3e-8
grid.power.num = 2
grid.power.scale = log
""")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cavens.__file__)))
        bodies = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "cavens.cli", "--config", "bins.cfg",
                            "--out", f"t{threads}"],
                           cwd=tmp_path, env=env, check=True, timeout=300,
                           stdout=subprocess.DEVNULL)
            bodies.append([(tmp_path / f"t{threads}_{table}.csv").read_bytes()
                           for table in ("s_curve", "s_curve_subensembles")])
        assert bodies[0] == bodies[1]

    def test_reflection_spectrum_csv_per_power(self, tmp_path):
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
grid.freq.start_hz = -80e6
grid.freq.stop_hz = 80e6
grid.freq.num = 41
grid.power.start_w = 1e-13
grid.power.stop_w = 1e-11
grid.power.num = 3
grid.power.scale = log
"""
        assert self._run(tmp_path, cfg, "rs.cfg", "rs") == 0
        for i in range(3):
            header, rows = read_csv(tmp_path / f"rs_spectrum_{i:03d}.csv")
            assert header[0] == "freq_hz" and len(rows) == 41
            assert all(0.0 <= float(r[3]) <= 1.0 + 1e-9 for r in rows)
        meta = json.loads((tmp_path / "rs_metadata.json").read_text())
        assert meta["not_converged"] == [0, 0, 0]

    def test_reflection_spectrum_counts_missed_points(self, tmp_path, monkeypatch):
        # Newton converges at every point of the 1000-quantile line at mu = 3e-7;
        # where it misses the tolerance (forced at two points), the sidecar
        # counts them and their CSV rows read converged = 0
        cfg = LINE_MODEL + """
experiment = reflection-spectrum
ensemble.explicit_quantiles = 1000
grid.freq.start_hz = -90e6
grid.freq.stop_hz = 90e6
grid.freq.num = 361
drive.mu = 3e-7
"""
        from cavens import meanfield

        assert self._run(tmp_path, cfg, "fb.cfg", "fb") == 0
        meta = json.loads((tmp_path / "fb_metadata.json").read_text())
        assert meta["not_converged"] == [0]
        newton = meanfield._newton

        def missing_two(*args):
            x, missed = newton(*args)
            missed[[129, 231]] = True
            return x, missed

        monkeypatch.setattr(meanfield, "_newton", missing_two)
        assert self._run(tmp_path, cfg, "fb.cfg", "forced") == 0
        meta = json.loads((tmp_path / "forced_metadata.json").read_text())
        assert meta["not_converged"] == [2]
        _header, rows = read_csv(tmp_path / "forced_spectrum_000.csv")
        assert [k for k, r in enumerate(rows) if r[5] != "1"] == [129, 231]
        assert all(r[1:6] == ["nan"] * 4 + ["0"] for r in (rows[129], rows[231]))
        assert all(r[4] != "nan" for k, r in enumerate(rows) if k not in (129, 231))

    @pytest.mark.parametrize("experiment", ["reflection-spectrum", "cit-power-sweep"])
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("explicit", [True, False])
    def test_sidecar_records_spectrum_workers(self, tmp_path, monkeypatch, experiment,
                                              cores, explicit):
        """The sidecar records the processes the spectra ran on: the usable
        cores for the five powers of the 1000-quantile line, and 1 for the
        parametric line, which is solved in process."""
        from cavens import core

        monkeypatch.setattr(core, "USABLE_CORES", cores)
        cfg = LINE_MODEL + f"""
experiment = {experiment}
grid.freq.start_hz = -90e6
grid.freq.stop_hz = 90e6
grid.freq.num = 361
grid.power.start_w = 1e-13
grid.power.stop_w = 1e-12
grid.power.num = 5
""" + ("ensemble.explicit_quantiles = 1000\n" if explicit else "")
        assert self._run(tmp_path, cfg, "th.cfg", "th") == 0
        meta = json.loads((tmp_path / "th_metadata.json").read_text())
        assert meta["spectrum_workers"] == (cores if explicit else 1)

    def test_forked_spectra_call_a_replaced_solver(self, tmp_path, monkeypatch):
        """With meanfield.reflection_spectrum replaced by a local closure,
        which cannot be pickled (a tracer does this), a five-power explicit
        spectrum still forks on two cores and writes the same CSV bytes."""
        from cavens import core, meanfield

        monkeypatch.setattr(core, "USABLE_CORES", 2)
        cfg = LINE_MODEL + """
experiment = reflection-spectrum
ensemble.explicit_quantiles = 1000
grid.freq.start_hz = -90e6
grid.freq.stop_hz = 90e6
grid.freq.num = 361
grid.power.start_w = 1e-13
grid.power.stop_w = 1e-12
grid.power.num = 5
"""
        assert self._run(tmp_path, cfg, "cl.cfg", "plain") == 0
        solve = meanfield.reflection_spectrum

        def reflection_spectrum(*args, **kwargs):
            return solve(*args, **kwargs)

        monkeypatch.setattr(meanfield, "reflection_spectrum", reflection_spectrum)
        assert self._run(tmp_path, cfg, "cl.cfg", "wrapped") == 0
        meta = json.loads((tmp_path / "wrapped_metadata.json").read_text())
        assert meta["spectrum_workers"] == 2
        for table in (f"spectrum_{i:03d}" for i in range(5)):
            assert ((tmp_path / f"wrapped_{table}.csv").read_bytes()
                    == (tmp_path / f"plain_{table}.csv").read_bytes())

    def test_csv_cells_parse_as_floats(self, tmp_path):
        """numpy float64 values (fitted widths, bin detunings, grid points) are
        written as plain floats that float() reads back."""
        cit = LINE_MODEL + """
experiment = cit-power-sweep
grid.freq.start_hz = -90e6
grid.freq.stop_hz = 90e6
grid.freq.num = 181
grid.power.start_w = 2e-14
grid.power.stop_w = 3e-13
grid.power.num = 5
grid.power.scale = log
"""
        binned = BASE_MODEL.replace("ensemble.kind = identical", "ensemble.kind = lorentzian") \
            .replace("ensemble.n_ions = 4", "ensemble.n_ions = 9") + """
ensemble.delta_inh_hz = 150e6
experiment = s-curve
bins.n = 3
bins.width_hz = 50e6
drive.pulse_length_s = 5e-6
grid.power.start_w = 1e-13
grid.power.stop_w = 1e-11
grid.power.num = 2
grid.power.scale = log
"""
        assert self._run(tmp_path, cit, "cit.cfg", "cit") == 0
        assert self._run(tmp_path, binned, "bin.cfg", "bin") == 0
        meta = json.loads((tmp_path / "cit_metadata.json").read_text())
        assert meta["not_converged"] == [0] * 5
        for name in ("cit_cit_power_sweep.csv", "bin_s_curve_subensembles.csv"):
            _header, rows = read_csv(tmp_path / name)
            assert rows and all(math.isfinite(float(c)) for r in rows for c in r)

    def test_beat_note_run(self, tmp_path):
        """The beat note starts from the pulse-end state of
        pulsed_block_emission, evolves it under the drive-off generator,
        and fits a finite beat width."""
        from cavens import dicke
        from cavens.core import mu_from_power

        cfg = BASE_MODEL + """
experiment = beat-note
ensemble.detuning_hz = 5e6
drive.pulse_length_s = 5e-6
drive.power_w = 1e-13
drive.lo_offset_hz = 5e6
grid.time.start_s = 0
grid.time.stop_s = 20e-6
grid.time.num = 401
"""
        assert self._run(tmp_path, cfg, "beat.cfg", "beat") == 0
        header, rows = read_csv(tmp_path / "beat_coherent_amplitude.csv")
        assert header == ["time_s", "jminus_real", "jminus_imag"]
        assert len(rows) == 401
        meta = json.loads((tmp_path / "beat_metadata.json").read_text())
        assert math.isfinite(meta["gamma_beat_hz"])
        model = build_config(cfg).model
        g, d = hz_to_angular(35e6), hz_to_angular(5e6)
        end = dicke.pulsed_block_emission(4, g, mu_from_power(1e-13, model.cavity), model.cavity,
                                          model.decoherence, 5e-6, detuning=d).state_end
        gen_off = dicke.build_block_generator(4, g, 0.0, model.cavity, model.decoherence,
                                              detuning=d)
        jm = dicke.block_observables(gen_off)["jm"]
        amp = [complex(jm @ s.to_vec())
               for s in dicke.block_evolve(gen_off, end, [float(r[0]) for r in rows])]
        assert [(float(r[1]), float(r[2])) for r in rows] == [(a.real, a.imag) for a in amp]

    def test_rate_map_csv(self, tmp_path):
        cfg = BASE_MODEL + "experiment = rate-map\n"
        assert self._run(tmp_path, cfg, "rm.cfg", "rm") == 0
        header, rows = read_csv(tmp_path / "rm_rate_map.csv")
        assert header == ["J_from", "M_from", "J_to", "M_to", "rate_hz", "channel"]
        assert all(float(r[4]) >= 0 for r in rows)

    def test_phase_map(self, tmp_path):
        cfg = BASE_MODEL + """
experiment = phase-map
grid.freq.start_hz = -10e6
grid.freq.stop_hz = 10e6
grid.freq.num = 21
"""
        assert self._run(tmp_path, cfg, "pm.cfg", "pm") == 0
        header, rows = read_csv(tmp_path / "pm_phase_map.csv")
        mid = rows[10]
        # resonant pair contribution is twice the single contribution
        assert math.isclose(2 * abs(float(mid[2])), abs(float(mid[6])), rel_tol=1e-9)

    def test_experiment_override_flag(self, tmp_path):
        assert self._run(tmp_path, SCURVE_CFG, "sc.cfg", "ov",
                         extra_args=("--experiment", "rate-map")) == 0
        assert (tmp_path / "ov_rate_map.csv").exists()

    def test_sweep_single_point_equals_run(self, tmp_path):
        assert self._run(tmp_path, SCURVE_CFG, "a.cfg", "single") == 0
        sweep_cfg = SCURVE_CFG + "sweep.axis = n_ions\nsweep.values = 4\n"
        assert self._run(tmp_path, sweep_cfg, "b.cfg", "swept") == 0
        _h1, rows_run = read_csv(tmp_path / "single_s_curve.csv")
        _h2, rows_sweep = read_csv(tmp_path / "swept_sweep_s-curve.csv")
        assert [r[1:] for r in rows_sweep] == rows_run

    def test_determinism_across_usable_cores(self, tmp_path, monkeypatch):
        from cavens import core

        cfg = SCURVE_CFG + "sweep.axis = n_ions\nsweep.values = 3, 4\n"
        path = tmp_path / "det.cfg"
        path.write_text(cfg)
        payloads = []
        for cores in (1, 2):
            monkeypatch.setattr(core, "USABLE_CORES", cores)
            for rep in range(2):
                out = tmp_path / f"det_{cores}_{rep}"
                assert main(["--config", str(path), "--out", str(out)]) == 0
                payloads.append((out.parent / f"{out.name}_sweep_s-curve.csv").read_bytes())
        assert len(set(payloads)) == 1

    def test_sweep_point_bug_propagates(self, monkeypatch):
        """A bug inside a sweep point (here a TypeError) leaves run_sweep
        instead of becoming a recorded partial failure (exit code 4)."""
        from cavens import experiments

        def broken(_cfg):
            raise TypeError("bug in a sweep point")

        monkeypatch.setattr(experiments, "run_experiment", broken)
        cfg = build_config(SCURVE_CFG + "sweep.axis = n_ions\nsweep.values = 3, 4\n")
        with pytest.raises(TypeError, match="bug in a sweep point"):
            experiments.run_sweep(cfg)

    def test_sweep_point_solver_error_recorded(self, monkeypatch):
        from cavens import experiments
        from cavens.core import CapabilityError

        real = experiments.run_experiment

        def capped(cfg):
            if cfg.model.ensemble.n == 3:
                raise CapabilityError("too many emitters")
            return real(cfg)

        monkeypatch.setattr(experiments, "run_experiment", capped)
        cfg = build_config(SCURVE_CFG + "sweep.axis = n_ions\nsweep.values = 3, 4\n")
        res = experiments.run_sweep(cfg)
        assert res.failures == [{"axis_value": 3.0,
                                 "error": "CapabilityError: too many emitters"}]
        assert len(res.tables[0].rows) == 5

    def test_detuning_sweep_shifts_scurve(self, tmp_path):
        cfg = SCURVE_CFG + "sweep.axis = detuning_hz\nsweep.values = 0, 3e6\n"
        assert self._run(tmp_path, cfg, "dsw.cfg", "dsw") == 0
        _h, rows = read_csv(tmp_path / "dsw_sweep_s-curve.csv")
        on = np.array([float(r[3]) for r in rows if float(r[0]) == 0.0])
        off = np.array([float(r[3]) for r in rows if float(r[0]) != 0.0])
        # detuned drive needs more power: emission at low powers drops
        assert off[1] < on[1]


class TestDetuningConvention:
    """Every dynamics experiment evolves the emitters at emitter minus laser
    detuning and takes cavity.delta_c as configured."""

    CFG = SCURVE_CFG.replace("grid.power.num = 5", "grid.power.num = 3") + \
        "cavity.delta_c_hz = 1e9\n"

    def _peaks(self, text):
        from cavens.experiments import run_experiment

        table = run_experiment(build_config(text)).tables[0]
        return np.array([row[2] for row in table.rows])

    def test_unbinned_scurve_matches_one_bin(self):
        from cavens.ensemble import Subensemble, SubensembleSet, incoherent_scurve

        cfg = build_config(self.CFG + "ensemble.detuning_hz = 5e6\n"
                           "drive.laser_detuning_hz = 2e6\n")
        unbinned = self._peaks(self.CFG + "ensemble.detuning_hz = 5e6\n"
                               "drive.laser_detuning_hz = 2e6\n")
        g = hz_to_angular(35e6)
        one_bin = incoherent_scurve(SubensembleSet(entries=(Subensemble(hz_to_angular(5e6), 4, g),)),
                                    cfg.power_grid.values(), 20e-6, cfg.model,
                                    laser_detuning=hz_to_angular(2e6))
        assert np.array_equal(unbinned, one_bin.total)
        shifted = self._peaks(self.CFG + "ensemble.detuning_hz = 3e6\n")
        assert np.allclose(unbinned, shifted, rtol=1e-9, atol=0.0)
        assert not np.allclose(unbinned, self._peaks(self.CFG), rtol=1e-3, atol=0.0)

    def test_dicke_populations_matches_scurve(self):
        from cavens.experiments import run_experiment

        extra = "cavity.delta_c_hz = 1e9\nensemble.detuning_hz = 5e6\n" \
                "drive.laser_detuning_hz = 2e6\n"
        scurve = self._peaks(self.CFG + extra.split("\n", 1)[1])
        power = float(build_config(self.CFG).power_grid.values()[1])
        pops = run_experiment(build_config(
            BASE_MODEL + extra + "experiment = dicke-populations\n"
            f"drive.pulse_length_s = 20e-6\ndrive.power_w = {power!r}\n"))
        assert pops.metadata["peak_counts"] == scurve[1]

    def test_spread_detunings_rejected(self, tmp_path):
        (tmp_path / "em.csv").write_text("detuning_hz,g_hz\n0,35e6\n5e6,35e6\n")
        cfg = SCURVE_CFG.replace("ensemble.kind = identical", "ensemble.kind = explicit") \
            .replace("ensemble.n_ions = 4\n", "").replace("ensemble.g_hz = 35e6\n",
                                                           "ensemble.file = em.csv\n")
        path = tmp_path / "spread.cfg"
        path.write_text(cfg)
        from cavens.experiments import run_experiment

        with pytest.raises(ConfigError, match="emitters at one detuning"):
            run_experiment(load_config(str(path)))

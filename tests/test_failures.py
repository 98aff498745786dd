"""Every place a solve or fit fails raises ``core.SolverError``, whose
message names the point it was at, the method and the residual it reached;
and a CLI run that meets the failure exits with its documented code: 3 for
a failed run, 4 for a failed dip fit of a power sweep, 0 for a failed
power-law fit (recorded as ``power_law_error``)."""

import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

import _oracles
from cavens import meanfield
from cavens.analysis import (
    DipNormalization,
    beat_spectrum,
    fit_cit_power_laws,
    fit_emission_trace,
    fit_lorentzian_dip,
)
from cavens.cli import main
from cavens.config import build_config
from cavens.core import CavityParams, DecoherenceParams, EmitterEnsemble, SolverError
from cavens.experiments import run_sweep
from cavens.lindblad import DensityState, build_generator, evolve
from cavens.units import TWO_PI, hz_to_angular

CAV = CavityParams.from_hz(44e9, 8.8e9)
DEC = DecoherenceParams.from_hz(6000, 600)
G = hz_to_angular(35e6)
THREE = EmitterEnsemble.explicit([(-hz_to_angular(2e6), 0.9 * G), (hz_to_angular(0.5e6), G),
                                  (hz_to_angular(3e6), 1.2 * G)])

LINE = """
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 600
decoherence.gamma_d_hz = 6000
ensemble.kind = lorentzian
ensemble.n_ions = 1000
ensemble.delta_inh_hz = 150e6
ensemble.g_hz = 140.7e6
experiment = cit-power-sweep
grid.freq.start_hz = -90e6
grid.freq.stop_hz = 90e6
grid.freq.num = 61
grid.power.start_w = 2e-14
"""
FIVE_POWERS = LINE + "grid.power.stop_w = 3e-13\ngrid.power.num = 5\ngrid.power.scale = log\n"
POWERS = np.geomspace(2e-14, 3e-13, 5)

BEAT = """
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 6000
decoherence.gamma_d_hz = 600
ensemble.kind = identical
ensemble.n_ions = 4
ensemble.g_hz = 35e6
experiment = beat-note
ensemble.detuning_hz = 5e6
drive.pulse_length_s = 5e-6
drive.power_w = 1e-13
drive.lo_offset_hz = 5e6
grid.time.start_s = 0
grid.time.stop_s = 20e-6
grid.time.num = 401
"""

# nine distinct emitters exceed the group space's capability limit, so
# every point of this sweep fails
NINE = BEAT.split("ensemble.kind")[0] + """
ensemble.kind = explicit
ensemble.file = em.csv
experiment = emission-trace
drive.mu = 1e-6
drive.pulse_length_s = 1e-6
grid.time.start_s = 0.5e-6
grid.time.stop_s = 2e-6
grid.time.num = 4
sweep.axis = detuning_hz
sweep.values = 0, 1e6
"""


def _least_squares_fails(monkeypatch, call=None):
    """Make scipy's least_squares report failure at cost 0.25: on every
    call, or only on the ``call``-th (1-based)."""
    real, calls = scipy.optimize.least_squares, []

    def least_squares(fun, x0, *args, **kwargs):
        calls.append(1)
        if call is None or len(calls) == call:
            return scipy.optimize.OptimizeResult(x=np.asarray(x0, float), cost=0.25,
                                                 success=False, message="forced")
        return real(fun, x0, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", least_squares)


def _least_squares_raises(monkeypatch):
    def least_squares(*args, **kwargs):
        raise ValueError("Residuals are not finite in the initial point.")

    monkeypatch.setattr(scipy.optimize, "least_squares", least_squares)


def _newton_misses(monkeypatch):
    monkeypatch.setattr(meanfield, "_newton",
                        lambda resp, mu, x_weak, tol: (x_weak, np.ones(len(x_weak), bool)))


def _ode_fails(monkeypatch, module):
    """Make ``module.solve_ivp`` stop at t = 2.5e-7 s without success."""
    def solve_ivp(fun, t_span, y0, **kwargs):
        return scipy.optimize.OptimizeResult(t=np.array([0.0, 2.5e-7]), success=False,
                                                  message="forced", y=np.array([y0, y0]).T)

    monkeypatch.setattr(module, "solve_ivp", solve_ivp)


def _ode_stalls(monkeypatch):
    """Make the mean-field ODE oracle's chunks succeed without moving."""
    def solve_ivp(fun, t_span, y0, **kwargs):
        return scipy.optimize.OptimizeResult(t=np.array(t_span), success=True,
                                                  y=np.array([y0, y0]).T)

    monkeypatch.setattr(_oracles, "solve_ivp", solve_ivp)


def _dip():
    f = np.linspace(-90e6, 90e6, 61) * TWO_PI
    return f, 1.0 - 0.5 / (1.0 + (f / (TWO_PI * 10e6)) ** 2)


def _one_row_response():
    return meanfield._Response(THREE, np.array([0.0]), CAV, DEC, np.array([CAV.delta_c]))


def _sweep(tmp_path):
    return run_sweep(build_config(NINE, base_dir=tmp_path))


# (id, force the failure, trigger it, point, method, residual ("finite" for a
# value the method computed), and the CLI run that meets it: its config, its
# forcing, its exit code and where the message lands)
CASES = [
    ("newton", _newton_misses,
     lambda _: meanfield.solve_selfconsistent_x(THREE, 1e-5, hz_to_angular(2.5e6), CAV, DEC),
     "laser offset 2.5e+06 Hz from the ensemble center", "newton", "finite", None),
    ("dip-fit", _least_squares_fails,
     lambda _: fit_lorentzian_dip(_dip(), DipNormalization(0.0, 1.0)),
     "the 61-point grid from -9e+07 to 9e+07 Hz", "lm", "2.500e-01",
     (LINE + "grid.power.num = 1\n", _least_squares_fails, 4, "failures")),
    ("power-law-fit", _least_squares_fails,
     lambda _: fit_cit_power_laws(POWERS, [1.0, 2.0, 3.0, 4.0, 5.0], [0.5] * 5),
     "5 powers from 2e-14 to 3e-13", "lm", "2.500e-01",
     (FIVE_POWERS, lambda mp: _least_squares_fails(mp, call=6), 0, "power_law_error")),
    ("emission-fit", _least_squares_raises,
     lambda _: fit_emission_trace(np.linspace(1e-9, 80e-6, 400),
                                  4.0 * np.exp(-np.linspace(1e-9, 80e-6, 400) / 5e-6)),
     "15 starts over t = 1e-09 to 8e-05 s", "trf", "nan", None),
    ("beat-fit", _least_squares_fails,
     lambda _: beat_spectrum(np.linspace(0.0, 20e-6, 401), np.ones(401, complex),
                             hz_to_angular(5e6)),
     "the 3687-point grid from 500488 to 9.49951e+06 Hz", "lm", "2.500e-01",
     (BEAT, _least_squares_fails, 3, "stderr")),
    ("lindblad-evolve", lambda mp: _ode_fails(mp, scipy.integrate),
     lambda _: evolve(DensityState.ground(1),
                      build_generator(EmitterEnsemble.identical(1, G), 1e-6, CAV, DEC), [1e-6]),
     "t = 2.5e-07 s", "DOP853", "nan", None),
    ("sweep", lambda mp: None, _sweep, "2 values of detuning_hz", "emission-trace", "nan",
     (NINE, lambda mp: None, 3, "stderr")),
    ("picard-oracle", lambda mp: None,
     lambda _: _oracles.picard_x(_one_row_response(), 1e-4, max_iter=1),
     "laser offset 0 Hz from the ensemble center", "picard", "finite", None),
    ("mean-field-ode-oracle", lambda mp: _ode_fails(mp, _oracles),
     lambda _: _oracles.mean_field_ode_steady_state(THREE, 1e-4, hz_to_angular(1e6), CAV, DEC),
     "laser offset 1e+06 Hz from the ensemble center", "DOP853", "nan", None),
    ("mean-field-ode-stationarity", _ode_stalls,
     lambda _: _oracles.mean_field_ode_steady_state(THREE, 1e-4, 0.0, CAV, DEC),
     "laser offset 0 Hz from the ensemble center", "DOP853", "finite", None),
]


@pytest.mark.parametrize("force, trigger, point, method, residual, cli",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_solver_error_names_point_method_and_residual(tmp_path, capsys, monkeypatch, force,
                                                      trigger, point, method, residual, cli):
    (tmp_path / "em.csv").write_text("detuning_hz,g_hz\n"
                                     + "".join(f"{k}e6,35e6\n" for k in range(9)))
    with monkeypatch.context() as mp:
        force(mp)
        with pytest.raises(SolverError) as err:
            trigger(tmp_path)
    e = err.value
    assert type(e) is SolverError and (e.point, e.method) == (point, method)
    assert str(e).startswith(f"{method} solve at {point}: ")
    if residual == "finite":
        assert math.isfinite(e.residual)
        residual = f"{e.residual:.3e}"
    assert str(e).endswith(f" (residual {residual})")
    if cli is None:
        return
    text, force_cli, code, where = cli
    (tmp_path / "run.cfg").write_text(text)
    capsys.readouterr()
    with monkeypatch.context() as mp:
        force_cli(mp)
        assert main(["--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "run")]) == code
    if where == "stderr":
        assert f"solver failure: {e}" in capsys.readouterr().err
    else:
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        found = meta["failures"][0]["error"] if where == "failures" else meta[where]
        assert found == str(e)

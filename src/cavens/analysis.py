"""Data-reduction pipeline: Lorentzian dip fits, transparency power-law fits,
stretched bi-exponential emission fits, beat-note spectra, and S-curve
feature extraction.

All fitters are damped Gauss-Newton (Levenberg-Marquardt family) through
``scipy.optimize.least_squares``; the Lorentzian fits carry analytic
Jacobians, the stretched-exponential fits use central differences.  Each
fitter imports it when called, so importing this module loads no scipy;
the experiments that fit list ``scipy.optimize`` in
:data:`cavens.config.EXPERIMENTS`, which imports it at set-up.
A failed fit raises :class:`~cavens.core.SolverError`, naming the data
it ran on, the method (``lm`` or ``trf``) and the cost it reached.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ParameterError, SolverError
from .meanfield import Spectrum
from .units import TWO_PI, angular_to_hz


def _span(freqs: np.ndarray) -> str:
    """A fit's frequency grid (rad/s) as a failure names it."""
    return (f"the {len(freqs)}-point grid from {angular_to_hz(freqs[0]):.6g} to "
            f"{angular_to_hz(freqs[-1]):.6g} Hz")


def _stderr(jac: np.ndarray, residuals: np.ndarray, n_params: int) -> np.ndarray:
    """Parameter standard errors from the Jacobian at the solution."""
    dof = max(len(residuals) - n_params, 1)
    s2 = float(residuals @ residuals) / dof
    try:
        cov = s2 * np.linalg.inv(jac.T @ jac)
        return np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        return np.full(n_params, np.nan)


@dataclass(frozen=True)
class DipFit:
    """Lorentzian dip in a normalized reflection spectrum."""

    width: float
    depth: float
    center: float
    baseline: float
    stderr: dict



@dataclass(frozen=True)
class DipNormalization:
    """Affine normalization anchors: raw reflectance values mapped to 0 / 1."""

    cavity_min: float
    dir_max: float

    def apply(self, reflectance: np.ndarray) -> np.ndarray:
        span = self.dir_max - self.cavity_min
        if span <= 0:
            raise ParameterError("dir_max must exceed cavity_min")
        return (np.asarray(reflectance, dtype=float) - self.cavity_min) / span


def _lorentzian_dip_model(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    b, d, c, w = p
    hw2 = (0.5 * w) ** 2
    return b - d * hw2 / ((f - c) ** 2 + hw2)


def _lorentzian_dip_jac(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    _b, d, c, w = p
    hw2 = (0.5 * w) ** 2
    den = (f - c) ** 2 + hw2
    jac = np.empty((len(f), 4))
    jac[:, 0] = 1.0
    jac[:, 1] = -hw2 / den
    jac[:, 2] = -d * hw2 * 2.0 * (f - c) / den**2
    jac[:, 3] = -d * 0.5 * w * (f - c) ** 2 / den**2
    return jac


def fit_lorentzian_dip(spectrum: Spectrum | tuple, normalization: DipNormalization,
                       p0: Optional[Sequence[float]] = None) -> Optional[DipFit]:
    """Fit ``baseline - depth * L(f)`` to the normalized reflectance over the
    whole grid; non-finite points (unconverged solves) are left out.

    Returns None when the spectrum has no interior local minimum below the
    baseline (the "no dip" outcome).  ``p0`` = (baseline, depth, center,
    width) overrides the automatic start.
    """
    from scipy.optimize import least_squares

    if isinstance(spectrum, Spectrum):
        freqs, refl = spectrum.freqs, spectrum.reflectance
    else:
        freqs, refl = (np.asarray(a, dtype=float) for a in spectrum)
    y = normalization.apply(refl)
    good = np.isfinite(y)
    freqs, y = freqs[good], y[good]
    if len(y) < 5:
        return None
    if p0 is None:
        i_min = int(np.argmin(y))
        if i_min in (0, len(y) - 1):
            return None
        baseline0 = float(np.median(np.concatenate([y[: max(3, len(y) // 10)],
                                                    y[-max(3, len(y) // 10):]])))
        depth0 = baseline0 - y[i_min]
        if depth0 <= 1e-12 or depth0 < 3.0 * float(np.std(np.diff(y)) + 1e-15):
            return None
        half = baseline0 - 0.5 * depth0
        below = np.where(y <= half)[0]
        width0 = abs(freqs[below[-1]] - freqs[below[0]]) if len(below) >= 2 else (
            abs(freqs[-1] - freqs[0]) / 10.0)
        width0 = max(width0, abs(freqs[1] - freqs[0]))
        p0 = np.array([baseline0, depth0, freqs[i_min], width0])
    else:
        p0 = np.asarray(p0, dtype=float)
    res = least_squares(lambda p: _lorentzian_dip_model(p, freqs) - y, p0,
                        jac=lambda p: _lorentzian_dip_jac(p, freqs), method="lm")
    if not res.success:
        raise SolverError(f"dip fit failed: {res.message}", point=_span(freqs), method="lm",
                          residual=res.cost)
    b, d, c, w = res.x
    err = _stderr(res.jac, res.fun, 4)
    return DipFit(width=float(abs(w)), depth=float(d), center=float(c), baseline=float(b),
                  stderr={"width": float(err[3]), "depth": float(err[1]),
                          "center": float(err[2]), "baseline": float(err[0])})


# ---------------------------------------------------------------------------
# Transparency power laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CitPowerLawFit:
    """Joint fit of width = p1/(1 - p2/sqrt(P)) and
    depth = p4 (1 - p2/sqrt(P) - p3 (1 - p2/sqrt(P))^2) with shared p2."""

    p1: float
    p2: float
    p3: float
    p4: float
    stderr: dict

    def as_dict(self) -> dict:
        return asdict(self)


def fit_cit_power_laws(powers: Sequence[float], widths: Sequence[float],
                       depths: Sequence[float]) -> CitPowerLawFit:
    """Least-squares fit of the transparency width/depth power laws.

    Residual blocks are scaled by the rms of each observable so widths
    (rad/s) and depths (order 1) weigh comparably.
    """
    from scipy.optimize import least_squares

    p_arr = np.asarray(powers, dtype=float)
    w_arr = np.asarray(widths, dtype=float)
    d_arr = np.asarray(depths, dtype=float)
    if len(p_arr) < 5:
        raise ParameterError("need at least 5 power points")
    if np.ptp(p_arr) == 0:
        raise ParameterError("degenerate design: all powers equal")
    w_scale = float(np.sqrt(np.mean(w_arr**2)))
    d_scale = float(np.sqrt(np.mean(d_arr**2))) or 1.0

    def residuals(p):
        p1, p2, p3, p4 = p
        u = 1.0 - p2 / np.sqrt(p_arr)
        u = np.where(np.abs(u) < 1e-12, 1e-12, u)
        rw = (p1 / u - w_arr) / w_scale
        rd = (p4 * (u - p3 * u**2) - d_arr) / d_scale
        return np.concatenate([rw, rd])

    sqrt_pmin = math.sqrt(float(np.min(p_arr)))
    p0 = np.array([float(np.min(w_arr)), 0.1 * sqrt_pmin, 0.2, max(float(np.max(d_arr)), 0.1)])
    res = least_squares(residuals, p0, method="lm", max_nfev=20000)
    if not res.success:
        point = f"{len(p_arr)} powers from {np.min(p_arr):.6g} to {np.max(p_arr):.6g}"
        raise SolverError(f"power-law fit failed: {res.message}", point=point, method="lm",
                          residual=res.cost)
    err = _stderr(res.jac, res.fun, 4)
    names = ("p1", "p2", "p3", "p4")
    return CitPowerLawFit(*[float(v) for v in res.x],
                          stderr=dict(zip(names, (float(e) for e in err))))


# ---------------------------------------------------------------------------
# Stretched bi-exponential decay fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiexpFit:
    """y(t) = A1 exp[-(t/tau1)^x1] + A2 exp[-(t/tau2)^x2] + b, tau1 <= tau2."""

    a1: float
    tau1: float
    x1: float
    a2: float
    tau2: float
    x2: float
    b: float
    stderr: dict
    residual: float

    def model(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (self.a1 * np.exp(-np.power(t / self.tau1, self.x1))
                + self.a2 * np.exp(-np.power(t / self.tau2, self.x2)) + self.b)


def _biexp(t, a1, tau1, x1, a2, tau2, x2, b):
    return (a1 * np.exp(-np.power(t / tau1, x1))
            + a2 * np.exp(-np.power(t / tau2, x2)) + b)


def fit_emission_trace(times: Sequence[float], values: Sequence[float],
                       regime_hint: Optional[str] = None, *,
                       background: Optional[float] = None) -> BiexpFit:
    """Stretched bi-exponential fit of an emission decay.

    The background is pinned to the mean of the last 10% of the trace before
    fitting.  Starting points sweep log-spaced (tau1, tau2) pairs; the best
    residual wins, ties broken by smaller tau1.  ``regime_hint="III"`` forces
    x1 = 1 (no distinct fast component).
    """
    from scipy.optimize import least_squares

    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(t) < 8:
        raise ParameterError("need at least 8 samples")
    pos = t > 0
    t, y = t[pos], y[pos]
    if background is None:
        n_tail = max(3, len(y) // 10)
        background = float(np.mean(y[-n_tail:]))
    yb = y - background
    amp0 = max(float(np.max(yb)), 1e-300)
    force_x1 = regime_hint is not None and str(regime_hint).upper() in ("III", "3")

    # 15 starts: the pairs tau1 <= tau2 of 5 log-spaced taus spanning the trace
    taus = np.geomspace(t[0] * 2.0, t[-1], 5)
    pairs = [(tau1, tau2) for i, tau1 in enumerate(taus) for tau2 in taus[i:]]

    best = None
    for tau1_0, tau2_0 in pairs:
        if force_x1:
            # x1 = 1 pins the fast slot; tau2 = tau1 + dtau keeps the order
            p0 = [0.7 * amp0, min(tau1_0, tau2_0), 0.3 * amp0,
                  abs(tau2_0 - tau1_0) + t[0], 1.0]
            lo = [0.0, t[0] * 1e-3, 0.0, 0.0, 1e-2]
            hi = [np.inf, np.inf, np.inf, np.inf, 2.0]

            def resid(p):
                return _biexp(t, p[0], p[1], 1.0, p[2], p[1] + p[3], p[4], background) - y
        else:
            p0 = [0.7 * amp0, tau1_0, 1.0, 0.3 * amp0, tau2_0, 1.0]
            lo = [0.0, t[0] * 1e-3, 1e-2, 0.0, t[0] * 1e-3, 1e-2]
            hi = [np.inf, np.inf, 2.0, np.inf, np.inf, 2.0]

            def resid(p):
                return _biexp(t, p[0], p[1], p[2], p[3], p[4], p[5], background) - y

        try:
            res = least_squares(resid, p0, bounds=(lo, hi), method="trf",
                                jac="3-point", max_nfev=4000)
        except (ValueError, np.linalg.LinAlgError):
            continue  # least_squares rejects this start (e.g. non-finite residuals)
        if not res.success and not np.isfinite(res.cost):
            continue
        tau1_fit = res.x[1]
        if best is None or res.cost < best[0] - 1e-12 * abs(best[0]) or (
                abs(res.cost - best[0]) <= 1e-12 * abs(best[0]) and tau1_fit < best[2]):
            best = (res.cost, res, tau1_fit)
    if best is None:
        raise SolverError("all stretched bi-exponential starts failed",
                          point=f"{len(pairs)} starts over t = {t[0]:.6g} to {t[-1]:.6g} s",
                          method="trf", residual=math.nan)
    res = best[1]
    err = _stderr(res.jac, res.fun, len(res.x))
    if force_x1:
        a1, tau1, a2, dtau, x2 = res.x
        tau2, x1 = tau1 + dtau, 1.0
        e = {"a1": err[0], "tau1": err[1], "x1": 0.0, "a2": err[2],
             "tau2": math.hypot(err[1], err[3]), "x2": err[4], "b": 0.0}
    else:
        a1, tau1, x1, a2, tau2, x2 = res.x
        e = {"a1": err[0], "tau1": err[1], "x1": err[2], "a2": err[3],
             "tau2": err[4], "x2": err[5], "b": 0.0}
        if tau1 > tau2:
            a1, a2 = a2, a1
            tau1, tau2 = tau2, tau1
            x1, x2 = x2, x1
            e = {"a1": e["a2"], "tau1": e["tau2"], "x1": e["x2"],
                 "a2": e["a1"], "tau2": e["tau1"], "x2": e["x1"], "b": 0.0}
    return BiexpFit(a1=float(a1), tau1=float(tau1), x1=float(x1), a2=float(a2),
                    tau2=float(tau2), x2=float(x2), b=float(background),
                    stderr={k: float(v) for k, v in e.items()},
                    residual=float(2.0 * best[0]))


# ---------------------------------------------------------------------------
# Heterodyne beat note
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeatFit:
    """Lorentzian fit of the heterodyne power spectrum: FWHM ``gamma_beat``
    (rad/s), peak area ``a_beat``, and ``center`` (rad/s)."""

    gamma_beat: float
    a_beat: float
    center: float
    peak_height: float
    stderr: dict



def beat_spectrum(times: Sequence[float], coherent_amp: Sequence[complex],
                  lo_offset: float, window: Optional[float] = None) -> BeatFit:
    """Power spectrum of the coherent amplitude beating against a local
    oscillator detuned by ``lo_offset`` (rad/s), with a Lorentzian peak fit.

    The trace must be uniformly sampled; ``lo_offset`` must sit inside the
    Nyquist band.  ``a_beat`` is the fitted Lorentzian area.
    """
    from scipy.optimize import least_squares

    t = np.asarray(times, dtype=float)
    s = np.asarray(coherent_amp, dtype=complex)
    if len(t) < 16:
        raise ParameterError("need at least 16 samples")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-8, atol=0.0):
        raise ParameterError("trace must be uniformly sampled")
    nyquist = math.pi / dt
    if abs(lo_offset) >= 0.95 * nyquist:
        raise ParameterError(f"lo_offset {lo_offset:.3e} aliased (Nyquist {nyquist:.3e} rad/s)")
    if window is not None:
        keep = t <= t[0] + window
        t, s = t[keep], s[keep]
    sig = s * np.exp(1j * lo_offset * t)
    nfft = 16 * 2 ** int(math.ceil(math.log2(len(sig))))  # zero-padded 16-fold
    spec = np.fft.fft(sig, n=nfft) * dt
    freqs = np.fft.fftfreq(nfft, d=dt) * TWO_PI
    order = np.argsort(freqs)
    freqs, psd = freqs[order], np.abs(spec[order]) ** 2

    band = np.abs(freqs - lo_offset) <= 0.45 * nyquist
    f, y = freqs[band], psd[band]
    i_pk = int(np.argmax(y))
    peak0 = float(y[i_pk])
    floor = float(np.median(y))
    half = np.where(y >= 0.5 * peak0)[0]
    width0 = max(abs(f[half[-1]] - f[half[0]]), f[1] - f[0]) if len(half) >= 2 else (f[1] - f[0])

    def model(p, fx):
        b0, a, c, w = p
        hw2 = (0.5 * w) ** 2
        return b0 + a * hw2 / ((fx - c) ** 2 + hw2)

    p0 = np.array([floor, peak0, f[i_pk], width0])
    res = least_squares(lambda p: model(p, f) - y, p0, method="lm", max_nfev=10000)
    if not res.success:
        raise SolverError(f"beat-note fit failed: {res.message}", point=_span(f), method="lm",
                          residual=res.cost)
    b0, a, c, w = res.x
    w = abs(w)
    err = _stderr(res.jac, res.fun, 4)
    area = float(a * math.pi * 0.5 * w)
    return BeatFit(gamma_beat=float(w), a_beat=area, center=float(c),
                   peak_height=float(a),
                   stderr={"gamma_beat": float(err[3]), "peak_height": float(err[1]),
                           "center": float(err[2])})


# ---------------------------------------------------------------------------
# S-curve features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SCurveFeatures:
    """Turning points of a peak-emission-vs-power curve and the inferred
    regime boundaries (powers where the smoothed slope changes sign)."""

    turning_points: tuple[float, ...]
    boundary_i_ii: Optional[float]
    boundary_ii_iii: Optional[float]
    n_regimes: int



def extract_scurve_features(powers: Sequence[float], peaks: Sequence[float]) -> SCurveFeatures:
    """Locate slope sign changes of the S-curve smoothed by a 3-point moving
    average (end points repeated)."""
    p = np.asarray(powers, dtype=float)
    y = np.asarray(peaks, dtype=float)
    if len(p) < 7:
        raise ParameterError("need at least 7 points")
    ypad = np.concatenate([[y[0]], y, [y[-1]]])
    y = np.convolve(ypad, np.ones(3) / 3, mode="valid")
    slope = np.diff(y)
    signs = np.sign(slope)
    signs[signs == 0] = 1
    turns = []
    for i in range(1, len(signs)):
        if signs[i] != signs[i - 1]:
            turns.append(float(p[i]))
    maxima = [tp for k, tp in enumerate(turns) if k % 2 == (0 if signs[0] > 0 else 1)]
    minima = [tp for tp in turns if tp not in maxima]
    b12 = maxima[0] if maxima else None
    b23 = None
    if b12 is not None:
        later_min = [tp for tp in minima if tp > b12]
        b23 = later_min[0] if later_min else None
    n_regimes = 1 + (b12 is not None) + (b23 is not None)
    return SCurveFeatures(turning_points=tuple(turns), boundary_i_ii=b12,
                          boundary_ii_iii=b23, n_regimes=n_regimes)


__all__ = [
    "DipFit",
    "DipNormalization",
    "fit_lorentzian_dip",
    "CitPowerLawFit",
    "fit_cit_power_laws",
    "BiexpFit",
    "fit_emission_trace",
    "BeatFit",
    "beat_spectrum",
    "SCurveFeatures",
    "extract_scurve_features",
]

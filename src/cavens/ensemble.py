"""Inhomogeneous-ensemble construction and composition.

Bins a Lorentzian line into subensembles of identical emitters, sums their
pulsed emission incoherently (the wide-line protocol behind the high-power
upturn of the S-curve), ingests coupling-strength histograms, and provides
back-of-envelope estimators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import read_csv_columns
from .core import (CapabilityError, DerivedRates, ParameterError, SystemModel, fork_map,
                   mu_from_power)
from .dicke import pulsed_block_emission
from .units import hz_to_angular


@dataclass(frozen=True)
class Subensemble:
    detuning: float
    n_ions: int
    g: float


@dataclass(frozen=True)
class SubensembleSet:
    """Detuned subensembles of identical emitters."""

    entries: tuple[Subensemble, ...]

    @property
    def total_ions(self) -> int:
        return sum(e.n_ions for e in self.entries)

    def counts(self) -> np.ndarray:
        return np.array([e.n_ions for e in self.entries])

    def detunings(self) -> np.ndarray:
        return np.array([e.detuning for e in self.entries])


def default_bin_width(rates: DerivedRates) -> float:
    """Bin spacing from the indistinguishability window: the Purcell rate
    Gamma_c.  A run sets another width with ``bins.width_hz``."""
    return rates.purcell


def _lorentzian_cdf(w: float, fwhm: float) -> float:
    return 0.5 + math.atan(2.0 * w / fwhm) / math.pi


def bin_lorentzian(total_n: int, delta_inh: float, n_bins: int, bin_width: float,
                   g: float, center: float = 0.0) -> SubensembleSet:
    """Integer ion counts on a symmetric grid of ``n_bins`` bins spaced
    ``bin_width`` apart, proportional to the Lorentzian mass per bin.

    Rounding is a symmetry-preserving largest-remainder scheme: the positive
    side is rounded by largest remainder, mirrored to the negative side, and
    the center bin absorbs the remainder, so mirror bins carry equal counts
    and the counts sum to ``total_n`` exactly.
    """
    if n_bins % 2 == 0:
        raise ParameterError("n_bins must be odd so a bin sits on resonance")
    if n_bins > total_n:
        raise ParameterError(f"cannot allocate {total_n} ions over {n_bins} bins")
    if not (0 < bin_width < math.inf and 0 < delta_inh < math.inf):
        raise ParameterError(f"bin_width and delta_inh must be finite and positive, "
                             f"got {bin_width} and {delta_inh}")
    half = n_bins // 2
    offsets = (np.arange(n_bins) - half) * bin_width
    edges_lo = offsets - 0.5 * bin_width
    edges_hi = offsets + 0.5 * bin_width
    mass = np.array([_lorentzian_cdf(hi, delta_inh) - _lorentzian_cdf(lo, delta_inh)
                     for lo, hi in zip(edges_lo, edges_hi)])
    mass = mass / mass.sum() * total_n

    # largest-remainder over mirror-pair units (2 seats) plus the center
    # (1 seat); leftover parity seats land on the center bin.
    pos = mass[half + 1:]
    floor_pos = np.floor(pos).astype(int)
    floor_c = int(math.floor(mass[half]))
    seats = total_n - floor_c - 2 * int(floor_pos.sum())
    frac_pos = pos - floor_pos
    frac_c = mass[half] - floor_c
    candidates = [(frac_c, 1, -1, 1)]  # (per-seat remainder, priority, index, seats)
    candidates += [(float(frac_pos[i]), 0, i, 2) for i in range(len(pos))]
    candidates.sort(key=lambda c: (-c[0], -c[1], abs(c[2])))
    counts_pos = floor_pos.copy()
    center_count = floor_c
    for _frac, _prio, idx, need in candidates:
        if seats < need:
            continue
        if idx < 0:
            center_count += 1
        else:
            counts_pos[idx] += 1
        seats -= need
    center_count += seats  # parity remainder
    counts = np.concatenate([counts_pos[::-1], [center_count], counts_pos])
    assert counts.sum() == total_n
    entries = tuple(Subensemble(detuning=center + off, n_ions=int(c), g=g)
                    for off, c in zip(offsets, counts))
    return SubensembleSet(entries=entries)


@dataclass(frozen=True)
class IncoherentSCurve:
    powers: np.ndarray
    mu: np.ndarray
    total: np.ndarray
    per_subensemble: np.ndarray  # (n_powers, n_subensembles)
    failures: tuple[tuple[int, int, str], ...]  # (power index, subensemble index, message)


def _solve_key(key: tuple[int, float, float], mus: np.ndarray, model: SystemModel,
               pulse_length: float, peak_mode: str) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """The peak of the (n_ions, g, detuning) ``key`` at each of ``mus`` (NaN
    where the solve failed), and (mu index, message) for each failure."""
    n, g, d = key
    peaks, failed = np.full(len(mus), np.nan), []
    for i, mu in enumerate(mus):
        try:
            res = pulsed_block_emission(n, g, mu, model.cavity, model.decoherence, pulse_length,
                                        detuning=d, compute_counts=peak_mode == "counts")
            peaks[i] = res.peak_counts if peak_mode == "counts" else res.peak_instant
        except (CapabilityError, ParameterError, np.linalg.LinAlgError) as exc:
            failed.append((i, str(exc)))
    return peaks, failed


def incoherent_scurve(subensembles: SubensembleSet, power_grid: Sequence[float],
                      pulse_length: float, model: SystemModel, *,
                      peak_mode: str = "counts", laser_detuning: float = 0.0) -> IncoherentSCurve:
    """Pulsed peak emission per power, incoherently summed over detuned
    subensembles (each evolved at its own detuning minus the laser's, with
    the common on-resonance drive amplitude).

    Subensembles with equal (n_ions, g, detuning) are solved once.  At
    ``cavity.delta_c == 0`` the emission is even in the detuning (the
    exchange term that breaks the symmetry vanishes), so mirror bins at
    +-detuning share one solve at |detuning|.  A failed solve is recorded
    for every subensemble mapped to it and skipped rather than aborting the
    sweep.

    The solves run on the usable cores (:func:`core.fork_map`), largest
    blocks first, one task per (n_ions, g, detuning) with all its powers, so
    it reuses its drive-off generator.  A task runs the same code on one
    BLAS thread wherever it runs: the bits do not depend on the cores."""
    if peak_mode not in ("counts", "instant"):
        raise ParameterError("peak_mode must be 'counts' or 'instant'")
    powers = np.asarray(power_grid, dtype=float)
    # a non-finite power fails at every bin, as the solve of a NaN mu
    mus = np.array([mu_from_power(p, model.cavity) if math.isfinite(p) else math.nan for p in powers])
    entries = [e for e in subensembles.entries]
    per = np.zeros((len(powers), len(entries)))
    failures: list[tuple[int, int, str]] = []
    mirror = model.cavity.delta_c == 0.0
    solves: dict[tuple[int, float, float], list[int]] = {}
    for j, sub in enumerate(entries):
        if sub.n_ions:
            d = sub.detuning - laser_detuning
            solves.setdefault((sub.n_ions, sub.g, abs(d) if mirror else d), []).append(j)
    keys = sorted(solves, key=lambda key: -key[0])  # largest block first
    solve = functools.partial(_solve_key, mus=mus, model=model, pulse_length=pulse_length,
                              peak_mode=peak_mode)
    for key, (peaks, failed) in zip(keys, fork_map(solve, keys)):
        js = solves[key]
        per[:, js] = peaks[:, None]
        failures.extend((i, j, msg) for i, msg in failed for j in js)
    failures.sort(key=lambda f: (f[1], f[0]))
    # canonical summation order: the total is independent of entry order
    canon = sorted(range(len(entries)),
                   key=lambda j: (entries[j].detuning, entries[j].n_ions, entries[j].g))
    total = np.array([math.fsum(v for v in per[i, canon] if not math.isnan(v))
                      for i in range(len(powers))])
    return IncoherentSCurve(powers=powers, mu=mus, total=total, per_subensemble=per,
                            failures=tuple(failures))


# ---------------------------------------------------------------------------
# Coupling-strength histograms
# ---------------------------------------------------------------------------


def truncate_g_histogram(g: np.ndarray, p: np.ndarray,
                         cutoff: Optional[float]) -> tuple[np.ndarray, np.ndarray, float]:
    """Drop the bins below ``cutoff`` (none when it is None) and renormalize;
    returns (g, p, retained probability)."""
    if cutoff is not None:
        keep = g >= cutoff
        if not keep.any():
            raise ParameterError("no histogram mass above the cutoff")
        g, p = g[keep], p[keep]
    kept = float(p.sum())
    return g, p / kept, kept


def read_g_histogram_csv(path: str) -> list[tuple[float, float]]:
    """Columns ``g_hz, probability``; g is converted to rad/s."""
    return [(hz_to_angular(g), p)
            for g, p in read_csv_columns(path, ("g_hz", "probability"), ParameterError)]


def estimate_superradiant_n(tau_measured: float, rms_g: float, kappa: float) -> float:
    """Effective emitter count from a measured fast decay time:
    N_eff = (average Purcell time) / tau = kappa / (4 <g^2> tau)."""
    if tau_measured <= 0:
        raise ParameterError("tau_measured must be positive")
    return kappa / (4.0 * rms_g**2) / tau_measured


__all__ = [
    "Subensemble",
    "SubensembleSet",
    "default_bin_width",
    "bin_lorentzian",
    "IncoherentSCurve",
    "incoherent_scurve",
    "truncate_g_histogram",
    "read_g_histogram_csv",
    "estimate_superradiant_n",
]

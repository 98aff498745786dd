"""Inhomogeneous-ensemble construction and composition.

Bins a Lorentzian line into subensembles of identical emitters, sums their
pulsed emission incoherently (the wide-line protocol behind the high-power
upturn of the S-curve), ingests coupling-strength histograms, and provides
back-of-envelope estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import read_csv_columns
from .core import CapabilityError, DerivedRates, ParameterError, SystemModel, mu_from_power
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
    if bin_width <= 0 or delta_inh <= 0:
        raise ParameterError("bin_width and delta_inh must be positive")
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
    sweep."""
    if peak_mode not in ("counts", "instant"):
        raise ParameterError("peak_mode must be 'counts' or 'instant'")
    powers = np.asarray(power_grid, dtype=float)
    mus = np.array([mu_from_power(p, model.cavity) for p in powers])
    entries = [e for e in subensembles.entries]
    per = np.zeros((len(powers), len(entries)))
    failures: list[tuple[int, int, str]] = []
    mirror = model.cavity.delta_c == 0.0
    solves: dict[tuple[int, float, float], list[int]] = {}
    for j, sub in enumerate(entries):
        if sub.n_ions:
            d = sub.detuning - laser_detuning
            solves.setdefault((sub.n_ions, sub.g, abs(d) if mirror else d), []).append(j)
    for (n, g, d), js in solves.items():
        for i, mu in enumerate(mus):
            try:
                res = pulsed_block_emission(n, g, mu, model.cavity, model.decoherence,
                                            pulse_length, detuning=d,
                                            compute_counts=peak_mode == "counts")
                per[i, js] = res.peak_counts if peak_mode == "counts" else res.peak_instant
            except (CapabilityError, ParameterError, np.linalg.LinAlgError) as exc:
                failures.extend((i, j, str(exc)) for j in js)
                per[i, js] = np.nan
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


@dataclass(frozen=True)
class GStats:
    """Coupling statistics of an (optionally truncated) g histogram."""

    g_mean: float
    g_rms: float
    total_coupling: Optional[float]
    retained_probability: float
    retained_coupling_fraction: float
    cutoff: Optional[float]

    def as_dict(self) -> dict:
        return {
            "g_mean": self.g_mean,
            "g_rms": self.g_rms,
            "total_coupling": self.total_coupling,
            "retained_probability": self.retained_probability,
            "retained_coupling_fraction": self.retained_coupling_fraction,
            "cutoff": self.cutoff,
        }


def ingest_g_histogram(rows: Sequence[tuple[float, float]], cutoff: Optional[float] = None,
                       n_ions: Optional[int] = None) -> GStats:
    """Reduce a (g, probability) histogram to coupling statistics.

    An optional low-g cutoff drops weak emitters; the retained fraction of
    the total coupling Omega = sqrt(N <g^2>) is reported against the
    untruncated histogram.  Moments are over the renormalized truncated
    distribution; ``total_coupling`` needs ``n_ions``.
    """
    g = np.array([r[0] for r in rows], dtype=float)
    p = np.array([r[1] for r in rows], dtype=float)
    if len(g) == 0:
        raise ParameterError("empty histogram")
    if np.any(p < 0) or np.any(g <= 0):
        raise ParameterError("need positive g and non-negative probabilities")
    total = p.sum()
    if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-12):
        raise ParameterError(f"probabilities must sum to 1 (got {total!r})")
    g2_full = float(np.sum(p * g**2))
    g, p, kept_prob = truncate_g_histogram(g, p, cutoff)
    g2 = float(np.sum(p * g**2))
    omega = math.sqrt(n_ions * g2) if n_ions is not None else None
    return GStats(g_mean=float(np.sum(p * g)), g_rms=math.sqrt(g2), total_coupling=omega,
                  retained_probability=kept_prob,
                  retained_coupling_fraction=math.sqrt(kept_prob * g2 / g2_full),
                  cutoff=cutoff)


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


@dataclass(frozen=True)
class SuperradianceThreshold:
    above: bool
    margin: float


def superradiance_threshold(cooperativity: float) -> SuperradianceThreshold:
    """Superradiance requires C > pi/2 (strict)."""
    if cooperativity < 0:
        raise ParameterError("cooperativity must be >= 0")
    half_pi = 0.5 * math.pi
    return SuperradianceThreshold(above=cooperativity > half_pi,
                                  margin=cooperativity / half_pi)


__all__ = [
    "Subensemble",
    "SubensembleSet",
    "default_bin_width",
    "bin_lorentzian",
    "IncoherentSCurve",
    "incoherent_scurve",
    "GStats",
    "ingest_g_histogram",
    "truncate_g_histogram",
    "read_g_histogram_csv",
    "estimate_superradiant_n",
    "SuperradianceThreshold",
    "superradiance_threshold",
]

"""Unit conventions and conversions.

Every rate and frequency inside the package is an angular frequency in
rad/s.  Ordinary frequencies in Hz appear only at external boundaries
(config files, CSV output, human-facing reports) and are converted here.
Planck's constant enters only through the input-power -> photon-number
conversion in :mod:`cavens.core`.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
HBAR = 6.62607015e-34 / TWO_PI  # exact SI h over 2 pi, equal to scipy.constants.hbar


def hz_to_angular(f: float) -> float:
    """Convert an ordinary frequency in Hz to rad/s."""
    return TWO_PI * f


def angular_to_hz(w: float) -> float:
    """Convert an angular frequency in rad/s to Hz."""
    return w / TWO_PI


__all__ = ["HBAR", "TWO_PI", "hz_to_angular", "angular_to_hz"]

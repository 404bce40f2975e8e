"""Radial harmonic maps between shells and the Nitsche-type bound.

The radial harmonic boundary value problem has the closed-form solution
``H(t) = a t + b / t^2``.  It is a monotone (hence injective) profile
exactly when the target radii satisfy
``r_star / R_star <= 3 r R^2 / (r^3 + 2 R^3)``; this module evaluates
that condition exactly in rational arithmetic, checks it against the
slope of ``H`` at the two boundary radii (``H'' = 6 b / t^4`` has one
sign, so the least slope on ``[r, R]`` is at an endpoint), and provides
the harmonic map's Dirichlet energy in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import AnnulusPair
from .maps import HarmonicProfile


@dataclass(frozen=True)
class NitscheVerdict:
    """Admissibility report for the radial harmonic homeomorphism."""

    admissible: bool
    ratio: float
    threshold: float
    margin: float


def nitsche_condition(pair: AnnulusPair) -> NitscheVerdict:
    """Decide ``r_star / R_star <= 3 r R^2 / (r^3 + 2 R^3)``.

    Both sides are compared as exact rationals built from the binary
    float radii, so boundary cases do not flip on rounding noise.
    """
    pair.require_weighted()
    r = Fraction(pair.r)
    R = Fraction(pair.R)
    ratio = Fraction(pair.r_star) / Fraction(pair.R_star)
    threshold = 3 * r * R * R / (r**3 + 2 * R**3)
    return NitscheVerdict(
        admissible=ratio <= threshold,
        ratio=float(ratio),
        threshold=float(threshold),
        margin=float(threshold - ratio),
    )


def harmonic_radial_bvp(pair: AnnulusPair) -> HarmonicProfile:
    """Radial profile of the harmonic map interpolating the boundary
    spheres, ``H(t) = a t + b / t^2`` with

    ``a = (r^2 r_star - R^2 R_star) / (r^3 - R^3)`` and
    ``b = r^2 R^2 (r R_star - R r_star) / (r^3 - R^3)``.
    """
    pair.require_weighted()
    r, R = pair.r, pair.R
    rs, Rs = pair.r_star, pair.R_star
    denom = r**3 - R**3
    a = (r**2 * rs - R**2 * Rs) / denom
    b = r**2 * R**2 * (r * Rs - R * rs) / denom
    return HarmonicProfile(a=a, b=b)


def harmonic_profile_monotone(pair: AnnulusPair) -> bool:
    """Check ``H' > 0`` for the BVP profile at ``t = r`` and ``t = R``.

    ``H'`` is monotone in ``t`` because ``H'' = 6 b / t^4`` has one sign,
    so both its least value and its largest magnitude on ``[r, R]`` sit
    at an endpoint.  A slope that vanishes only to rounding (the
    threshold case, where ``H'`` touches zero at the inner boundary)
    still counts as monotone.
    """
    profile = harmonic_radial_bvp(pair)
    hd = profile.derivative(np.array([pair.r, pair.R]), 1)
    scale = float(np.max(np.abs(hd))) + abs(profile.a)
    return bool(np.min(hd) >= -1e-12 * max(scale, 1.0))


def analytic_dirichlet_energy_radial(pair: AnnulusPair) -> float:
    """Dirichlet energy of the radial harmonic BVP map,

    ``4 pi (r (r^3 + 2 R^3) r_star^2 - 6 r^2 R^2 r_star R_star
    + R (2 r^3 + R^3) R_star^2) / (R^3 - r^3)``.

    Where the float formula overflows or underflows, the rational value
    is rounded once instead; an energy beyond the float range is ``inf``.
    """
    pair.require_weighted()
    radii = (pair.r, pair.R, pair.r_star, pair.R_star)
    try:
        num, den = _energy_terms(*radii)
        energy = 4.0 * math.pi * num / den
    except (OverflowError, ZeroDivisionError):  # R^3 - r^3 may underflow to 0
        energy = math.nan
    if math.isfinite(energy):
        return energy
    num, den = _energy_terms(*map(Fraction, radii))
    try:
        return 4.0 * math.pi * float(num / den)
    except OverflowError:
        return math.inf


def _energy_terms(r, R, rs, Rs):
    num = r * (r**3 + 2 * R**3) * rs**2 - 6 * r**2 * R**2 * rs * Rs \
        + R * (2 * r**3 + R**3) * Rs**2
    return num, R**3 - r**3

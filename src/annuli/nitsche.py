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
    a_num, b_num, denom = _bvp_terms(pair.r, pair.R, pair.r_star, pair.R_star)
    return HarmonicProfile(a=a_num / denom, b=b_num / denom)


def harmonic_profile_monotone(pair: AnnulusPair) -> bool:
    """Check ``H' >= 0`` for the BVP profile at ``t = r`` and ``t = R``.

    ``H'`` is monotone in ``t`` because ``H'' = 6 b / t^4`` has one sign,
    so its least value on ``[r, R]`` sits at an endpoint.  As
    ``H'(t) = (a_num t^3 - 2 b_num) / (t^3 (r^3 - R^3))`` with ``r < R``,
    its sign is that of ``2 b_num - a_num t^3``, a homogeneous polynomial
    decided exactly on the float radii scaled to integers by one power of
    two.  At the threshold ``H'(r)`` is exactly 0, which counts as monotone.
    """
    ratios = [x.as_integer_ratio() for x in (pair.r, pair.R, pair.r_star, pair.R_star)]
    den = max(d for _, d in ratios)  # powers of two: each divides the largest
    r, R, rs, Rs = (n * (den // d) for n, d in ratios)
    a_num, b_num, _ = _bvp_terms(r, R, rs, Rs)
    return all(a_num * t**3 - 2 * b_num <= 0 for t in (r, R))


def analytic_dirichlet_energy_radial(pair: AnnulusPair) -> float:
    """Dirichlet energy of the radial harmonic BVP map,

    ``4 pi (r (r^3 + 2 R^3) r_star^2 - 6 r^2 R^2 r_star R_star
    + R (2 r^3 + R^3) R_star^2) / (R^3 - r^3)``.

    Where the float formula overflows or underflows, the rational value
    is rounded once instead; an energy beyond the float range is ``inf``.
    """
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


def _bvp_terms(r, R, rs, Rs):
    """Numerators of the BVP's ``a`` and ``b``, and their denominator."""
    return r**2 * rs - R**2 * Rs, r**2 * R**2 * (r * Rs - R * rs), r**3 - R**3


def _energy_terms(r, R, rs, Rs):
    num = r * (r**3 + 2 * R**3) * rs**2 - 6 * r**2 * R**2 * rs * Rs \
        + R * (2 * r**3 + R**3) * Rs**2
    return num, R**3 - r**3

"""Radial harmonic maps between shells and the Nitsche-type bound.

The radial harmonic boundary value problem has the closed-form solution
``H(t) = a t + b / t^2``.  It is a monotone (hence injective) profile
exactly when the target radii satisfy
``r_star / R_star <= 3 r R^2 / (r^3 + 2 R^3)``; this module evaluates
that condition, checks it against the slope of ``H`` at the two
boundary radii (``H'' = 6 b / t^4`` has one sign, so the least slope on
``[r, R]`` is at an endpoint), and provides the harmonic map's
Dirichlet energy in closed form.  Each is exact on the float radii,
scaled to integers by one power of two, and rounded once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geometry import AnnulusPair, _four_pi_times, _profile_coefficient
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

    Both sides are compared exactly, cross-multiplied on the float radii
    scaled to integers by one power of two, so boundary cases do not flip
    on rounding noise.  Both sides are homogeneous of degree 0, and
    Python's int division rounds correctly, so ``ratio``, ``threshold``
    and ``margin`` are the exact values rounded once.
    """
    (r, R, rs, Rs), _ = _integer_radii(pair)
    num, den = 3 * r * R * R, r**3 + 2 * R**3
    lhs, rhs = rs * den, num * Rs
    return NitscheVerdict(
        admissible=lhs <= rhs,
        ratio=rs / Rs,
        threshold=num / den,
        margin=(rhs - lhs) / (Rs * den),
    )


def harmonic_radial_bvp(pair: AnnulusPair) -> HarmonicProfile:
    """Radial profile of the harmonic map interpolating the boundary
    spheres, ``H(t) = a t + b / t^2`` with

    ``a = (r^2 r_star - R^2 R_star) / (r^3 - R^3)`` and
    ``b = r^2 R^2 (r R_star - R r_star) / (r^3 - R^3)``, each exact on the
    float radii and rounded once; ``geometry._profile_coefficient`` checks
    both and raises :class:`EvaluationError` naming the radii.
    """
    radii, scale = _integer_radii(pair)
    a_num, b_num, denom = _bvp_terms(*radii)
    profile = "harmonic profile a t + b / t^2"
    return HarmonicProfile(a=_profile_coefficient("a", Fraction(a_num, denom), profile, pair),
                           b=_profile_coefficient("b", Fraction(b_num, denom * scale**3),
                                                  profile, pair))


def harmonic_profile_monotone(pair: AnnulusPair) -> bool:
    """Check ``H' >= 0`` for the BVP profile at ``t = r`` and ``t = R``.

    ``H'`` is monotone in ``t`` because ``H'' = 6 b / t^4`` has one sign,
    so its least value on ``[r, R]`` sits at an endpoint.  As
    ``H'(t) = (a_num t^3 - 2 b_num) / (t^3 (r^3 - R^3))`` with ``r < R``,
    its sign is that of ``2 b_num - a_num t^3``, a homogeneous polynomial
    decided exactly on the float radii scaled to integers by one power of
    two.  At the threshold ``H'(r)`` is exactly 0, which counts as monotone.
    """
    (r, R, rs, Rs), _ = _integer_radii(pair)
    a_num, b_num, _ = _bvp_terms(r, R, rs, Rs)
    return a_num * r**3 - 2 * b_num <= 0 and a_num * R**3 - 2 * b_num <= 0


def analytic_dirichlet_energy_radial(pair: AnnulusPair) -> float:
    """Dirichlet energy of the radial harmonic BVP map,

    ``4 pi (r (r^3 + 2 R^3) r_star^2 - 6 r^2 R^2 r_star R_star
    + R (2 r^3 + R^3) R_star^2) / (R^3 - r^3)``,

    exact on the float radii and rounded once: an energy beyond the float
    range is ``inf``, one below it rounds toward 0.
    """
    (r, R, rs, Rs), scale = _integer_radii(pair)
    num = r * (r**3 + 2 * R**3) * rs**2 - 6 * r**2 * R**2 * rs * Rs + R * (2 * r**3 + R**3) * Rs**2
    return _four_pi_times(Fraction(num, (R**3 - r**3) * scale**3))


@lru_cache(maxsize=4)
def _integer_radii(pair: AnnulusPair):
    """The float radii times one power of two ``scale``, as a tuple of
    ints; and ``scale``.  Kept for the pair's next call."""
    (r, dr), (R, dR) = pair.r.as_integer_ratio(), pair.R.as_integer_ratio()
    (rs, drs), (Rs, dRs) = pair.r_star.as_integer_ratio(), pair.R_star.as_integer_ratio()
    scale = max(dr, dR, drs, dRs)  # powers of two: each divides the largest
    return (r * (scale // dr), R * (scale // dR), rs * (scale // drs), Rs * (scale // dRs)), scale


def _bvp_terms(r, R, rs, Rs):
    """Numerators of the BVP's ``a`` and ``b``, and their denominator."""
    return r**2 * rs - R**2 * Rs, r**2 * R**2 * (r * Rs - R * rs), r**3 - R**3


"""Radial harmonic maps between shells and the Nitsche-type bound.

The radial harmonic boundary value problem has the closed-form solution
``H(t) = a t + b / t^2``.  It is a monotone (hence injective) profile
exactly when the target radii satisfy
``r_star / R_star <= 3 r R^2 / (r^3 + 2 R^3)``; this module evaluates
that condition, checks it against the slope of ``H`` at the two
boundary radii (``H'' = 6 b / t^4`` has one sign, so the least slope on
``[r, R]`` is at an endpoint), and provides the harmonic map's
Dirichlet energy in closed form.  The public functions decide one pair
in exact integer arithmetic.  Over ``(N, 4)`` arrays of radii the two
sign tests are filtered exact predicates (Shewchuk 1997): float64 decides
a pair wherever a proven error bound settles the sign, and the same
integer tests decide every other pair.  Every reported value is exact on
the float radii, scaled to integers by one power of two, and rounded
once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

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

    ``admissible`` is :func:`_exact_admissible` on the radii scaled to
    integers by one power of two, exact on the float radii, so boundary
    cases do not flip on rounding noise.  Both sides are homogeneous of
    degree 0, and Python's int division rounds correctly, so ``ratio``,
    ``threshold`` and ``margin``, formed from the same integers, are the
    exact values rounded once.
    """
    radii, _ = _integer_radii(pair)
    r, R, rs, Rs = radii
    num, den = 3 * r * R * R, r**3 + 2 * R**3
    return NitscheVerdict(
        admissible=_exact_admissible(*radii),
        ratio=rs / Rs,
        threshold=num / den,
        margin=(num * Rs - rs * den) / (Rs * den),
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
    decided exactly on the float radii by :func:`_exact_monotone`.  At the
    threshold ``H'(r)`` is exactly 0, which counts as monotone.
    """
    return _exact_monotone(*_integer_radii(pair)[0])


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


# Float filter of the two sign tests.  With every radius in
# [_SAFE_LOW, _SAFE_HIGH], each product of radii and of their differences
# is zero or normal and finite, so each operation rounds with relative error
# at most u = 2^-53.  An expression then differs from its exact value by at
# most k u / (1 - k u) times the same expression on absolute values, where a
# sum takes one rounding more than the larger count of its operands and a
# product one more than both counts together (Higham 2002, section 3.1).
# k is at most 7 here, so a value beyond _FILTER_REL of that bound, itself
# computed to within a factor 1 + 7 u, has its exact sign.
_SAFE_LOW, _SAFE_HIGH = 2.0**-100, 2.0**100
_FILTER_REL = 2.0**-40


def _admissible_terms(r, R, rs, Rs):
    """``3 r R^2 R* - r* (r^3 + 2 R^3)``, which is ``>= 0`` exactly on
    admissible pairs, with the same polynomial on absolute values."""
    rhs = 3.0 * r * R * R * Rs
    lhs = rs * (r * r * r + 2.0 * (R * R * R))
    return [(rhs - lhs, rhs + lhs)]


def _monotone_terms(r, R, rs, Rs):
    """``2 b_num - a_num t^3`` at ``t = r`` and ``t = R`` (see
    :func:`_bvp_terms`), each with its polynomial on absolute values."""
    a_hi, a_lo = r * r * rs, R * R * Rs
    a_num, a_abs = a_hi - a_lo, a_hi + a_lo
    b_hi, b_lo, b_fac = r * Rs, R * rs, r * r * (R * R)
    b_num, b_abs = b_fac * (b_hi - b_lo), b_fac * (b_hi + b_lo)
    out = []
    for t in (r, R):
        t3 = t * t * t
        out.append((2.0 * b_num - a_num * t3, 2.0 * b_abs + a_abs * t3))
    return out


def _exact_admissible(r: int, R: int, rs: int, Rs: int) -> bool:
    """:func:`_admissible_terms` is ``>= 0``, on radii scaled to integers."""
    return rs * (r**3 + 2 * R**3) <= 3 * r * R * R * Rs


def _exact_monotone(r: int, R: int, rs: int, Rs: int) -> bool:
    """Both values of :func:`_monotone_terms` are ``>= 0``, on radii scaled
    to integers."""
    a_num, b_num, _ = _bvp_terms(r, R, rs, Rs)
    return a_num * r**3 - 2 * b_num <= 0 and a_num * R**3 - 2 * b_num <= 0


def _admissible_rows(radii: np.ndarray) -> np.ndarray:
    """Admissibility of each row ``(r, R, r*, R*)`` of an ``(N, 4)`` float
    array, as a boolean array."""
    return _filtered(radii, _admissible_terms, _exact_admissible)


def _monotone_rows(radii: np.ndarray) -> np.ndarray:
    """:func:`harmonic_profile_monotone` of each row ``(r, R, r*, R*)`` of
    an ``(N, 4)`` float array, as a boolean array."""
    return _filtered(radii, _monotone_terms, _exact_monotone)


def _filtered(radii: np.ndarray, terms, exact) -> np.ndarray:
    """Rows of ``radii`` on which every value of ``terms`` is ``>= 0``.

    A row whose radii all lie in ``[_SAFE_LOW, _SAFE_HIGH]`` is decided in
    float64 when every value exceeds ``_FILTER_REL`` times its bound, or one
    lies below minus that; ``exact`` decides every other row on its radii
    scaled to integers.
    """
    safe = np.all((radii >= _SAFE_LOW) & (radii <= _SAFE_HIGH), axis=1)
    rows = radii[safe]
    positive = np.ones(len(rows), dtype=bool)
    negative = np.zeros(len(rows), dtype=bool)
    for value, bound in terms(*rows.T):
        bound *= _FILTER_REL
        positive &= value > bound
        negative |= value < -bound
    verdict = np.zeros(len(radii), dtype=bool)
    verdict[safe] = positive
    undecided = ~safe
    undecided[safe] = ~(positive | negative)
    for i in np.flatnonzero(undecided).tolist():
        verdict[i] = exact(*_scaled_integers(*radii[i].tolist())[0])
    return verdict


@lru_cache(maxsize=4)
def _integer_radii(pair: AnnulusPair):
    """:func:`_scaled_integers` of the pair's radii, kept for its next call."""
    return _scaled_integers(pair.r, pair.R, pair.r_star, pair.R_star)


def _scaled_integers(r: float, R: float, rs: float, Rs: float):
    """The float radii times one power of two ``scale``, as a tuple of
    ints; and ``scale``."""
    (r, dr), (R, dR) = r.as_integer_ratio(), R.as_integer_ratio()
    (rs, drs), (Rs, dRs) = rs.as_integer_ratio(), Rs.as_integer_ratio()
    scale = max(dr, dR, drs, dRs)  # powers of two: each divides the largest
    return (r * (scale // dr), R * (scale // dR), rs * (scale // drs), Rs * (scale // dRs)), scale


def _bvp_terms(r, R, rs, Rs):
    """Numerators of the BVP's ``a`` and ``b``, and their denominator."""
    return r**2 * rs - R**2 * Rs, r**2 * R**2 * (r * Rs - R * rs), r**3 - R**3


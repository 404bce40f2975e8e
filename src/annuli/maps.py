"""Radial profiles and annulus mappings built from them.

A generalized radial map sends ``x`` with ``t = |x|`` to
``H(t) * T(x / t)`` where ``H`` is a positive radial profile and ``T`` a
Moebius transform of the unit sphere.  Closed-form profiles have
derivatives; sampled profiles have values only.  Sampled maps wrap an
arbitrary vectorized evaluator and are differentiated by finite
differences.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .errors import DomainError, EvaluationError
from .geometry import AnnulusPair, RadialGrid, _as_points, _log_width, _profile_coefficient
from .geometry import _squared_norms, row_norms
from .sphere_maps import MobiusTransform, _radial_scale, _sphere_action, _unit_safe


# the largest exponent whose exp is finite, and the float epsilon
_LOG_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon


class _Profile:
    """Front shared by every radial profile.

    ``eval`` takes a radius or an array of radii, runs the class's domain
    check (``t > 0`` unless overridden) and returns a Python float for a
    scalar radius.  A class supplies ``_h`` on float arrays.
    """

    def _check(self, t):
        bad = t[t <= 0.0]
        if bad.size:
            raise DomainError(f"{type(self).__name__} is defined for t > 0, "
                              f"got t = {float(bad[0])!r}")

    def _front(self, t, fn):
        t = np.asarray(t, dtype=float)
        self._check(t)
        out = fn(t)
        return float(out) if t.ndim == 0 else out

    def eval(self, t):
        return self._front(t, self._h)


class _ClosedFormProfile(_Profile):
    """A profile given by a formula; it also supplies ``_d1`` and ``_d2``,
    which ``derivative`` evaluates through the same front."""

    def derivative(self, t, order: int = 1):
        if order not in (1, 2):
            raise ValueError("derivative order must be 1 or 2")
        return self._front(t, self._d1 if order == 1 else self._d2)


@dataclass(frozen=True)
class ExponentialProfile(_ClosedFormProfile):
    """Profile ``H(t) = a * exp(b * (1 / t - 1 / t0))`` with ``a > 0``, the
    value at the anchor radius ``t0 > 0``; the default ``t0 = inf`` gives
    ``a * exp(b / t)``.

    This two-parameter family contains every solution of the radial
    Euler-Lagrange equation of the weighted energy.  ``H`` is taken as
    ``exp(log a + x)``, ``x = (b / t0) ((t0 - t) / t)``: anchored at a
    boundary radius, ``x`` stays within the profile's log range, where the
    unanchored ``a`` may lie beyond the float range, and ``exp`` stays in
    range wherever ``H`` does.

    ``a`` and ``b`` may be arrays of one shape, a stack of profiles that
    broadcasts against the radii as :class:`HarmonicProfile`'s does:
    coefficients of shape ``(m, 1)`` on ``n`` radii give ``(m, n)`` values.
    Each row keeps the bits of its own scalar profile, as ``log a`` and
    ``b^2`` are taken member by member with Python's float operations
    (``np.log`` and ``np.square`` differ from them in the last bit on some
    draws).
    """

    a: float
    b: float
    t0: float = math.inf

    def __post_init__(self):
        if not (all(a > 0.0 and math.isfinite(a) for a in np.ravel(self.a).tolist())
                and all(map(math.isfinite, np.ravel(self.b).tolist())) and self.t0 > 0.0):
            raise ValueError("exponential profile needs a > 0, t0 > 0 and finite a, b")

    def _h(self, t):
        x = self.b / t if self.t0 == math.inf else (self.b / self.t0) * ((self.t0 - t) / t)
        log_a = _each(math.log, self.a)
        y = log_a + x
        if np.any(y > _LOG_MAX):
            # y carries a few ulps of rounding, so an H that is the float maximum
            # (R* at t = R) may come out past _LOG_MAX; within that rounding the
            # value is the float maximum, beyond it exp overflows
            near = y <= _LOG_MAX + 4.0 * _EPS * (abs(log_a) + np.abs(x))
            y = np.where(near, np.minimum(y, _LOG_MAX), y)
        return np.exp(y)

    def _d1(self, t):
        return -self.b / t**2 * self._h(t)

    def _d2(self, t):
        return (2.0 * self.b / t**3 + _each(_square, self.b) / t**4) * self._h(t)


def _square(x: float) -> float:
    return x**2


def _each(fn, x):
    """``fn`` of a Python float, or of each member of an array of them, in
    an array of its shape: a stack's row keeps the bits of its own scalar
    call where numpy's elementwise form of ``fn`` may round otherwise."""
    if np.ndim(x) == 0:
        return fn(x)
    return np.array([fn(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


@dataclass(frozen=True)
class HarmonicProfile(_ClosedFormProfile):
    """Profile ``H(t) = a t + b / t^2``; the radial part of a harmonic
    map of shells, not of a weighted-energy minimizer."""

    a: float
    b: float

    def _h(self, t):
        return self.a * t + self.b / t**2

    def _d1(self, t):
        return self.a - 2.0 * self.b / t**3

    def _d2(self, t):
        return 6.0 * self.b / t**4 + 0.0 * t


@dataclass(frozen=True, eq=False)
class SampledProfile(_Profile):
    """Piecewise-linear profile on a radial grid.

    It has values only, no ``derivative``: the discrete minimizers are
    judged by the discrete Euler-Lagrange equation they solve, not by
    differences of their samples.

    ``values`` may be a stack of profiles on the grid, with the nodes on
    the last axis, which :func:`energy.reduced_energy` reads as one energy
    per row, each with the bits of its own one-row profile.  ``eval`` and
    the map routes take one profile.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape[-1:] != self.grid.nodes.shape:
            raise ValueError("values must match the grid nodes")
        # a positive min() and a finite max() also reject nan
        if not (values.min() > 0.0 and values.max() < math.inf):
            raise ValueError("profile values must be strictly positive and finite")

    def _check(self, t):
        a = self.grid.annulus
        s = 1e-9 * a.width
        outside = t[(t < a.inner - s) | (t > a.outer + s)]
        if outside.size:
            raise DomainError(f"profile sampled on [{a.inner}, {a.outer}], got radius outside: "
                              f"t = {float(outside[0])!r}")

    def _h(self, t):
        return np.interp(t, self.grid.nodes, self.values)


RadialProfile = Union[ExponentialProfile, HarmonicProfile, SampledProfile]


def exp_profile_from_boundary(pair: AnnulusPair, orientation: str = "increasing") -> ExponentialProfile:
    """Euler-Lagrange profile through the boundary radii of a pair.

    ``increasing`` interpolates ``H(r) = r_star, H(R) = R_star``;
    ``decreasing`` swaps the target radii.  The two profiles multiply to
    the constant ``r_star * R_star``.
    The profile is anchored at ``t0 = r`` with ``a = H(r)``, as the paper
    writes the minimizer: ``H(t) = H(r) exp(ell R (t - r) / ((R - r) t))``
    with the float ``ell = log(R_star / r_star)``, negated for
    ``decreasing`` so that the two ``b`` are exact opposites.  Its exponent
    stays between 0 and ``ell``.  ``b = -ell r R / (R - r)`` is exact on the
    float radii and rounded once; ``geometry._profile_coefficient`` checks it.
    """
    ell = Fraction(_log_width(pair.target))
    if orientation == "increasing":
        lo = pair.r_star
    elif orientation == "decreasing":
        lo, ell = pair.R_star, -ell
    else:
        raise ValueError("orientation must be 'increasing' or 'decreasing'")
    profile = f"{orientation} exponential profile a exp(b / t)"
    r, R = Fraction(pair.r), Fraction(pair.R)
    b = _profile_coefficient("b", -ell * r * R / (R - r), profile, pair)
    return ExponentialProfile(a=lo, b=b, t0=pair.r)


@dataclass(frozen=True)
class GeneralizedRadialMap:
    """Map ``x -> H(|x|) * T(x / |x|)``.

    A sampled profile raises :class:`DomainError` outside its grid span.
    """

    profile: RadialProfile
    rotation: MobiusTransform = field(default_factory=MobiusTransform.identity)


@dataclass(frozen=True)
class SampledMap:
    """Map backed by a vectorized evaluator.

    ``evaluator`` must accept an ``(N, 3)`` array and return the mapped
    ``(N, 3)`` array.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]


AnnulusMap = Union[GeneralizedRadialMap, SampledMap]


def map_eval_many(f: AnnulusMap, points: np.ndarray) -> np.ndarray:
    """Evaluate a map on an ``(N, 3)`` array of points, to one of that shape.

    A generalized radial map's value ``H(t) T(x / t)`` is formed by
    :func:`sphere_maps._sphere_action` and :func:`sphere_maps._radial_scale`,
    the two steps of the FD route's polar path."""
    points = _as_points(points)
    if isinstance(f, SampledMap):
        image = np.asarray(f.evaluator(points), dtype=float)
        if image.shape != points.shape:
            raise ValueError(f"map evaluator returned shape {image.shape}, not {points.shape}")
        return image
    t = row_norms(points)
    if np.any(t <= 0.0):
        raise DomainError("radial map undefined at the origin")
    h = f.profile.eval(t)
    image = _sphere_action(f.rotation, points / t[:, None], _unit_safe(t))
    return _radial_scale(image, h, out=image).T


def as_sampled_map(f: AnnulusMap) -> SampledMap:
    """Wrap any map as a :class:`SampledMap`.

    Useful to force the finite-difference energy route on a map that
    would otherwise take the analytic decomposition.
    """
    if isinstance(f, SampledMap):
        return f
    return SampledMap(evaluator=lambda points: map_eval_many(f, points))


def sphere_inversion(a: float):
    """The sphere inversion ``y -> a * y / |y|^2`` on the rows of an
    ``(N, 3)`` array of map values; raises if a value hits the origin."""
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("inversion scale must be positive and finite")

    def invert(vals: np.ndarray) -> np.ndarray:
        nsq = _squared_norms(vals)
        if np.any(nsq <= 1e-300):
            raise EvaluationError("map value hit the origin; inversion undefined")
        image = a * vals
        image /= nsq[:, None]
        return image

    return invert


def perturbed_profile(
    base: RadialProfile,
    amplitude: float,
    mode: int,
    *,
    seed: int,
    grid: RadialGrid,
) -> SampledProfile:
    """Multiply a profile by sine bumps that vanish at both endpoints
    and sample the result on the nodes of ``grid``.

    The bump is a random mixture of the first ``mode`` frequencies,
    drawn from ``seed``, at total relative amplitude ``amplitude``.
    Endpoint values are untouched, so the perturbation stays admissible
    for boundary value problems.  The profile takes one member; its values
    are row 0 of :func:`_perturbed_values`, which forms a stack of members
    with the same bits per row.
    """
    if isinstance(mode, bool) or not isinstance(mode, numbers.Integral) or mode < 1:
        raise ValueError(f"mode must be a positive integer, got {mode!r}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    values = _perturbed_values(base, [amplitude], [int(mode)], [seed], grid)[0]
    if np.any(values <= 0.0):
        raise ValueError("perturbation amplitude destroys positivity")
    beyond = np.nonzero(values == math.inf)[0]
    if beyond.size:
        i = int(beyond[0])
        raise EvaluationError(f"perturbed profile exceeds the float range at t = "
                              f"{float(grid.nodes[i])!r} (node {i})")
    return SampledProfile(grid=grid, values=values)


def _perturbed_values(base: RadialProfile, amplitudes, modes, seeds,
                      grid: RadialGrid) -> np.ndarray:
    """The values of :func:`perturbed_profile` for each member
    ``(amplitude, mode, seed)`` of the three sequences, one row each, with
    the bits of that member's own call, unchecked.  ``H`` on the nodes and
    each frequency's sine are formed once for all rows; a row adds ``0``
    times each sine past its mode, which moves no bit of
    ``1 + amplitude * bump``."""
    t = grid.nodes
    a = grid.annulus
    s = (t - a.inner) / a.width
    coef = np.zeros((len(modes), max(modes)))
    for row, mode, seed in zip(coef, modes, seeds):
        c = np.random.default_rng(seed).uniform(-1.0, 1.0, size=mode)
        c /= np.sum(np.abs(c))
        row[:mode] = c
    bump = np.zeros((len(modes), s.size))
    for j in range(1, coef.shape[1] + 1):
        bump += coef[:, j - 1:j] * np.sin(j * np.pi * s)
    # a profile near the float maximum may be pushed past it; the caller checks
    with np.errstate(over="ignore"):
        return base.eval(t) * (1.0 + np.reshape(amplitudes, (-1, 1)) * bump)

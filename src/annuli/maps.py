"""Radial profiles and annulus mappings built from them.

A generalized radial map sends ``x`` with ``t = |x|`` to
``H(t) * T(x / t)`` where ``H`` is a positive radial profile and ``T`` a
Moebius transform of the unit sphere.  Sampled maps wrap an arbitrary
vectorized evaluator and are differentiated by finite differences.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DomainError, EvaluationError
from .geometry import AnnulusPair, RadialGrid, _log_ratio, row_norms
from .sphere_maps import MobiusTransform, _apply_to_units

# central-difference step of every map differential, relative to |x|
_FD_STEP = 1e-5


class _Profile:
    """Front shared by every radial profile.

    ``eval`` and ``derivative`` take a radius or an array of radii, run
    the class's domain check (``t > 0`` unless overridden) and return a
    Python float for a scalar radius.  A class supplies ``_h``, ``_d1``
    and ``_d2`` on float arrays.
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

    def derivative(self, t, order: int = 1):
        if order not in (1, 2):
            raise ValueError("derivative order must be 1 or 2")
        return self._front(t, self._d1 if order == 1 else self._d2)


@dataclass(frozen=True)
class ExponentialProfile(_Profile):
    """Profile ``H(t) = a * exp(b / t)`` with ``a > 0``.

    This two-parameter family contains every solution of the radial
    Euler-Lagrange equation of the weighted energy.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("exponential profile needs a > 0 and finite parameters")

    def _h(self, t):
        return np.exp(math.log(self.a) + self.b / t)

    def _d1(self, t):
        return -self.b / t**2 * self._h(t)

    def _d2(self, t):
        return (2.0 * self.b / t**3 + self.b**2 / t**4) * self._h(t)


@dataclass(frozen=True)
class HarmonicProfile(_Profile):
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

    Derivatives come from second-order stencils at the nodes (one-sided
    at the endpoints) interpolated linearly in between, so they are
    usable anywhere on the closed interval.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
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

    @cached_property
    def _nodal(self) -> tuple[np.ndarray, np.ndarray]:
        return _nodal_derivatives(self.grid.nodes, self.values)

    def _h(self, t):
        return np.interp(t, self.grid.nodes, self.values)

    def _d1(self, t):
        return np.interp(t, self.grid.nodes, self._nodal[0])

    def _d2(self, t):
        return np.interp(t, self.grid.nodes, self._nodal[1])


def _nodal_derivatives(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second-order first and second derivatives on a nonuniform grid.

    First derivatives are one-sided at the endpoints; second derivatives
    there repeat their neighbours'.
    """
    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    denom = hm * hp * (hm + hp)
    d1 = np.empty_like(y)
    d1[1:-1] = (hm**2 * y[2:] - hp**2 * y[:-2] + (hp**2 - hm**2) * y[1:-1]) / denom
    h0, h1 = hm[0], hp[0]
    d1[0] = (
        -(2.0 * h0 + h1) / (h0 * (h0 + h1)) * y[0]
        + (h0 + h1) / (h0 * h1) * y[1]
        - h0 / (h1 * (h0 + h1)) * y[2]
    )
    g0, g1 = hp[-1], hm[-1]
    d1[-1] = (
        (2.0 * g0 + g1) / (g0 * (g0 + g1)) * y[-1]
        - (g0 + g1) / (g0 * g1) * y[-2]
        + g0 / (g1 * (g0 + g1)) * y[-3]
    )
    d2 = np.empty_like(y)
    d2[1:-1] = 2.0 * (hm * y[2:] + hp * y[:-2] - (hm + hp) * y[1:-1]) / denom
    d2[0] = d2[1]
    d2[-1] = d2[-2]
    return d1, d2


RadialProfile = Union[ExponentialProfile, HarmonicProfile, SampledProfile]


def exp_profile_from_boundary(pair: AnnulusPair, orientation: str = "increasing") -> ExponentialProfile:
    """Euler-Lagrange profile through the boundary radii of a pair.

    ``increasing`` interpolates ``H(r) = r_star, H(R) = R_star``;
    ``decreasing`` swaps the target radii.  The two profiles multiply to
    the constant ``r_star * R_star``.
    """
    r, R = pair.r, pair.R
    if orientation == "increasing":
        lo, hi = pair.r_star, pair.R_star
    elif orientation == "decreasing":
        lo, hi = pair.R_star, pair.r_star
    else:
        raise ValueError("orientation must be 'increasing' or 'decreasing'")
    ell = _log_ratio(hi, lo)
    try:
        a = lo * math.exp(ell * R / (R - r))
    except OverflowError:
        a = math.inf
    b = -ell * r * R / (R - r)
    if not (0.0 < a < math.inf and math.isfinite(b)):
        raise EvaluationError(f"{orientation} exponential profile a exp(b / t) has a = {a!r}, "
                              f"b = {b!r}; the radii are too extreme for floating point")
    # b / r must reproduce the exponent at the inner radius, whose error is
    # the relative error of H(r); a subnormal b, or a subnormal product on
    # the way to it, keeps too few digits for that
    exponent = -ell * (R / (R - r))
    if not abs(b / r - exponent) <= 1e-12 * max(1.0, abs(exponent)):
        raise EvaluationError(f"{orientation} exponential profile a exp(b / t) has b = {b!r}, "
                              f"rounded through subnormal floats: b / r = {b / r!r}, not "
                              f"{exponent!r}; the inner radius r = {r!r} is too small "
                              "for floating point")
    return ExponentialProfile(a=a, b=b)


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
    """Evaluate a map on an ``(N, 3)`` array of points."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("expected points of shape (N, 3)")
    if isinstance(f, SampledMap):
        return np.asarray(f.evaluator(points), dtype=float)
    t = row_norms(points)
    if np.any(t <= 0.0):
        raise DomainError("radial map undefined at the origin")
    h = f.profile.eval(t)
    units = points / t[:, None]
    image = _apply_to_units(f.rotation, units, t)
    image *= h[:, None]
    return image


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
        nsq = np.einsum("ij,ij->i", vals, vals)
        if np.any(nsq <= 1e-300):
            raise EvaluationError("map value hit the origin; inversion undefined")
        image = a * vals
        image /= nsq[:, None]
        return image

    return invert


def inversion_transform(f: AnnulusMap, a: float = 1.0) -> SampledMap:
    """Compose a map with the sphere inversion ``y -> a * y / |y|^2``.

    The weighted energy is invariant under this composition; the image
    annulus radii become ``a / R_star`` and ``a / r_star``.
    """
    invert = sphere_inversion(a)

    def evaluator(points: np.ndarray) -> np.ndarray:
        return invert(map_eval_many(f, points))

    return SampledMap(evaluator=evaluator)


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
    for boundary value problems.
    """
    if isinstance(mode, bool) or not isinstance(mode, numbers.Integral) or mode < 1:
        raise ValueError(f"mode must be a positive integer, got {mode!r}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    t = grid.nodes
    a = grid.annulus
    s = (t - a.inner) / a.width
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-1.0, 1.0, size=mode)
    coef /= np.sum(np.abs(coef))
    bump = np.zeros_like(s)
    for j, cj in enumerate(coef, start=1):
        bump += cj * np.sin(j * np.pi * s)
    values = base.eval(t) * (1.0 + amplitude * bump)
    if np.any(values <= 0.0):
        raise ValueError("perturbation amplitude destroys positivity")
    return SampledProfile(grid=grid, values=values)

"""Radial profiles and annulus mappings built from them.

A generalized radial map sends ``x`` with ``t = |x|`` to
``H(t) * T(x / t)`` where ``H`` is a positive radial profile and ``T`` a
Moebius transform of the unit sphere.  Sampled maps wrap an arbitrary
vectorized evaluator and are differentiated by finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DomainError, EvaluationError
from .geometry import Annulus, AnnulusPair, RadialGrid, _log_ratio, row_norms, tangent_frame
from .sphere_maps import MobiusTransform, mobius_apply_points, mobius_pushforward

# central-difference step of every map differential, relative to |x|
_FD_STEP = 1e-5


def _as_floats(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class ExponentialProfile:
    """Profile ``H(t) = a * exp(b / t)`` with ``a > 0``.

    This two-parameter family contains every solution of the radial
    Euler-Lagrange equation of the weighted energy.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("exponential profile needs a > 0 and finite parameters")

    def _check(self, t):
        if np.any(t <= 0.0):
            raise DomainError("exponential profile defined for t > 0")

    def eval(self, t):
        t, scalar = _as_floats(t)
        self._check(t)
        out = np.exp(math.log(self.a) + self.b / t)
        return float(out) if scalar else out

    def derivative(self, t, order: int = 1):
        t, scalar = _as_floats(t)
        self._check(t)
        h = np.exp(math.log(self.a) + self.b / t)
        if order == 1:
            out = -self.b / t**2 * h
        elif order == 2:
            out = (2.0 * self.b / t**3 + self.b**2 / t**4) * h
        else:
            raise ValueError("derivative order must be 1 or 2")
        return float(out) if scalar else out


@dataclass(frozen=True)
class HarmonicProfile:
    """Profile ``H(t) = a t + b / t^2``; the radial part of a harmonic
    map of shells, not of a weighted-energy minimizer."""

    a: float
    b: float

    def _check(self, t):
        if np.any(t <= 0.0):
            raise DomainError("harmonic profile defined for t > 0")

    def eval(self, t):
        t, scalar = _as_floats(t)
        self._check(t)
        out = self.a * t + self.b / t**2
        return float(out) if scalar else out

    def derivative(self, t, order: int = 1):
        t, scalar = _as_floats(t)
        self._check(t)
        if order == 1:
            out = self.a - 2.0 * self.b / t**3
        elif order == 2:
            out = 6.0 * self.b / t**4 + 0.0 * t
        else:
            raise ValueError("derivative order must be 1 or 2")
        return float(out) if scalar else out


@dataclass(frozen=True, eq=False)
class SampledProfile:
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
        if not np.all(values > 0.0):
            raise ValueError("profile values must be strictly positive")

    @property
    def annulus(self) -> Annulus:
        return self.grid.annulus

    def _slack(self) -> float:
        return 1e-9 * self.grid.annulus.width

    def _check(self, t):
        a = self.grid.annulus
        s = self._slack()
        if np.any(t < a.inner - s) or np.any(t > a.outer + s):
            raise DomainError(
                f"profile sampled on [{a.inner}, {a.outer}], got radius outside"
            )

    @cached_property
    def _nodal_d1(self) -> np.ndarray:
        return _nodal_derivative(self.grid.nodes, self.values)

    @cached_property
    def _nodal_d2(self) -> np.ndarray:
        return _nodal_second_derivative(self.grid.nodes, self.values)

    def eval(self, t):
        t, scalar = _as_floats(t)
        self._check(t)
        out = np.interp(t, self.grid.nodes, self.values)
        return float(out) if scalar else out

    def derivative(self, t, order: int = 1):
        t, scalar = _as_floats(t)
        self._check(t)
        if order == 1:
            out = np.interp(t, self.grid.nodes, self._nodal_d1)
        elif order == 2:
            out = np.interp(t, self.grid.nodes, self._nodal_d2)
        else:
            raise ValueError("derivative order must be 1 or 2")
        return float(out) if scalar else out


def _nodal_derivative(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second-order first derivative on a nonuniform grid."""
    d = np.empty_like(y)
    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    d[1:-1] = (
        hm**2 * y[2:] - hp**2 * y[:-2] + (hp**2 - hm**2) * y[1:-1]
    ) / (hm * hp * (hm + hp))
    h0, h1 = t[1] - t[0], t[2] - t[1]
    d[0] = (
        -(2.0 * h0 + h1) / (h0 * (h0 + h1)) * y[0]
        + (h0 + h1) / (h0 * h1) * y[1]
        - h0 / (h1 * (h0 + h1)) * y[2]
    )
    g0, g1 = t[-1] - t[-2], t[-2] - t[-3]
    d[-1] = (
        (2.0 * g0 + g1) / (g0 * (g0 + g1)) * y[-1]
        - (g0 + g1) / (g0 * g1) * y[-2]
        + g0 / (g1 * (g0 + g1)) * y[-3]
    )
    return d


def _nodal_second_derivative(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = np.empty_like(y)
    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    d[1:-1] = 2.0 * (hm * y[2:] + hp * y[:-2] - (hm + hp) * y[1:-1]) / (hm * hp * (hm + hp))
    d[0] = d[1]
    d[-1] = d[-2]
    return d


RadialProfile = Union[ExponentialProfile, HarmonicProfile, SampledProfile]


def exp_profile_from_boundary(pair: AnnulusPair, orientation: str = "increasing") -> ExponentialProfile:
    """Euler-Lagrange profile through the boundary radii of a pair.

    ``increasing`` interpolates ``H(r) = r_star, H(R) = R_star``;
    ``decreasing`` swaps the target radii.  The two profiles multiply to
    the constant ``r_star * R_star``.
    """
    pair.require_weighted()
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
    return ExponentialProfile(a=a, b=b)


@dataclass(frozen=True)
class GeneralizedRadialMap:
    """Map ``x -> H(|x|) * T(x / |x|)``.

    ``annulus`` optionally pins a domain; sampled profiles enforce their
    grid span regardless.
    """

    profile: RadialProfile
    rotation: MobiusTransform = field(default_factory=MobiusTransform.identity)
    annulus: Annulus | None = None

    def domain(self) -> Annulus | None:
        if self.annulus is not None:
            return self.annulus
        if isinstance(self.profile, SampledProfile):
            return self.profile.annulus
        return None


@dataclass(frozen=True)
class SampledMap:
    """Map backed by a vectorized evaluator.

    ``evaluator`` must accept an ``(N, 3)`` array and return the mapped
    ``(N, 3)`` array.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]


AnnulusMap = Union[GeneralizedRadialMap, SampledMap]


def _check_in_annulus(a: Annulus | None, t: np.ndarray):
    if a is None:
        return
    slack = 1e-9 * max(a.width, a.outer)
    if np.any(t < a.inner - slack) or np.any(t > a.outer + slack):
        raise DomainError(f"point radius outside the annulus [{a.inner}, {a.outer}]")


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
    _check_in_annulus(f.domain(), t)
    h = f.profile.eval(t)
    units = points / t[:, None]
    return h[:, None] * mobius_apply_points(f.rotation, units)


def map_eval(f: AnnulusMap, x) -> np.ndarray:
    """Evaluate a map at a single point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("expected a single 3-vector")
    return map_eval_many(f, x[None, :])[0]


def map_differential(f: GeneralizedRadialMap, x) -> np.ndarray:
    """Analytic 3x3 differential of a generalized radial map.

    Splits into the radial stretch ``H'(t)`` along the normal and the
    sphere pushforward scaled by ``H(t) / t`` on the tangent plane.
    """
    if not isinstance(f, GeneralizedRadialMap):
        raise TypeError("analytic differential needs a generalized radial map")
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    if t <= 0.0:
        raise DomainError("radial map undefined at the origin")
    _check_in_annulus(f.domain(), np.array([t]))
    eta = x / t
    frame = tangent_frame(eta)
    h = f.profile.eval(t)
    hd = f.profile.derivative(t, 1)
    s = mobius_apply_points(f.rotation, eta)
    etas = np.vstack([eta, eta])
    ds = mobius_pushforward(f.rotation, etas, np.vstack([frame.u, frame.v]))
    d = np.outer(hd * s, eta)
    d += (h / t) * (np.outer(ds[0], frame.u) + np.outer(ds[1], frame.v))
    return d


def map_differential_fd(f: AnnulusMap, x) -> np.ndarray:
    """Central-difference 3x3 differential, step relative to ``|x|``."""
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    if t <= 0.0:
        raise DomainError("differential undefined at the origin")
    h = _FD_STEP * t
    dom = f.domain() if isinstance(f, GeneralizedRadialMap) else None
    if dom is not None and (t - h < dom.inner or t + h > dom.outer):
        raise DomainError("not enough margin to the annulus boundary for the step")
    shifts = np.vstack([x + h * e for e in np.eye(3)] + [x - h * e for e in np.eye(3)])
    vals = map_eval_many(f, shifts)
    return (vals[:3] - vals[3:]).T / (2.0 * h)


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
        return a * vals / nsq[:, None]

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
    mode: int = 1,
    seed: int | None = None,
    grid: RadialGrid | None = None,
) -> SampledProfile:
    """Multiply a profile by sine bumps that vanish at both endpoints.

    With a seed, the bump is a seeded random mixture of the first
    ``mode`` frequencies at total relative amplitude ``amplitude``;
    without one it is the single frequency ``mode``.  Endpoint values
    are untouched, so the perturbation stays admissible for boundary
    value problems.
    """
    if mode < 1:
        raise ValueError("mode must be a positive integer")
    if grid is None:
        if isinstance(base, SampledProfile):
            grid = base.grid
        else:
            raise ValueError("closed-form profiles need an explicit grid")
    t = grid.nodes
    a = grid.annulus
    s = (t - a.inner) / a.width
    if seed is None:
        bump = np.sin(mode * np.pi * s)
    else:
        rng = np.random.default_rng(seed)
        coef = rng.uniform(-1.0, 1.0, size=mode)
        norm = np.sum(np.abs(coef))
        if norm == 0.0:
            coef[0] = 1.0
            norm = 1.0
        coef /= norm
        bump = np.zeros_like(s)
        for j, cj in enumerate(coef, start=1):
            bump += cj * np.sin(j * np.pi * s)
    values = base.eval(t) * (1.0 + amplitude * bump)
    if np.any(values <= 0.0):
        raise ValueError("perturbation amplitude destroys positivity")
    return SampledProfile(grid=grid, values=values)

"""Annuli, radial grids, spherical quadrature, and tangent frames.

Everything downstream integrates over a spherical shell ``A(r, R)`` by
splitting into a radial factor and a unit-sphere factor, so this module
owns the two discretizations: Gauss-Legendre nodes along the radius and
a product rule on the sphere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

SPACING_MODES = ("uniform-in-t", "uniform-in-1/t")


@dataclass(frozen=True)
class Annulus:
    """Closed spherical shell ``{x : inner <= |x| <= outer}`` with
    ``0 < inner <= outer < inf``: the weight ``|y|^-2`` divides by ``|f|``
    and the radial reduction by ``t``.

    A degenerate shell with ``inner == outer`` (a sphere) is allowed as
    the target of a mapping problem; domain-side consumers that need an
    open interval of radii reject it.
    """

    inner: float
    outer: float

    def __post_init__(self):
        if not (math.isfinite(self.inner) and math.isfinite(self.outer)):
            raise DomainError(f"annulus radii must be finite, got {self.inner!r}, {self.outer!r}")
        # numpy scalars would warn where Python floats overflow quietly
        inner, outer = float(self.inner), float(self.outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)
        if not inner > 0.0:
            raise DomainError(f"inner radius must be positive, got {inner!r}")
        if inner > outer:
            raise DomainError(f"inner radius must be less than outer, got {inner!r} > {outer!r}")

    @property
    def width(self) -> float:
        return self.outer - self.inner

    @property
    def is_degenerate(self) -> bool:
        return self.inner == self.outer


def _log_ratio(hi: float, lo: float) -> float:
    """``log(hi / lo)`` of two positive radii."""
    ratio = hi / lo
    if 0.0 < ratio < math.inf:
        return math.log(ratio)
    # the quotient leaves the float range for extreme radii; its log does not
    return math.log(hi) - math.log(lo)


@dataclass(frozen=True)
class AnnulusPair:
    """Domain and target shells of a mapping problem."""

    domain: Annulus
    target: Annulus

    def __post_init__(self):
        if self.domain.is_degenerate:
            raise DomainError(f"domain annulus must have inner < outer, got {self.domain!r}")

    @classmethod
    def from_radii(cls, r: float, R: float, r_star: float, R_star: float) -> "AnnulusPair":
        return cls(Annulus(r, R), Annulus(r_star, R_star))

    @property
    def r(self) -> float:
        return self.domain.inner

    @property
    def R(self) -> float:
        return self.domain.outer

    @property
    def r_star(self) -> float:
        return self.target.inner

    @property
    def R_star(self) -> float:
        return self.target.outer


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing radial nodes spanning an annulus exactly."""

    annulus: Annulus
    nodes: np.ndarray
    spacing_mode: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(np.diff(nodes) > 0.0):
            raise DomainError(
                f"grid nodes must be strictly increasing: {nodes.size} nodes on the annulus "
                f"[{self.annulus.inner!r}, {self.annulus.outer!r}]"
            )
        if nodes[0] != self.annulus.inner or nodes[-1] != self.annulus.outer:
            raise DomainError(f"grid must span the annulus exactly: nodes {float(nodes[0])!r} "
                              f"to {float(nodes[-1])!r} on {self.annulus!r}")
        if self.spacing_mode not in SPACING_MODES:
            raise ValueError(f"unknown spacing mode {self.spacing_mode!r}")


def make_radial_grid(annulus: Annulus, n: int, spacing_mode: str = "uniform-in-t") -> RadialGrid:
    """Build a radial grid with ``n`` intervals (``n + 1`` nodes).

    ``uniform-in-t`` spaces the nodes evenly in the radius itself;
    ``uniform-in-1/t`` spaces them evenly in the reciprocal radius,
    which is the natural coordinate of the radial Euler-Lagrange
    equation.  Endpoints land on the annulus boundary exactly.
    """
    if n < 2:
        raise ValueError("need at least two intervals")
    if annulus.is_degenerate:
        raise DomainError(f"cannot grid a degenerate annulus, got {annulus!r}")
    if spacing_mode == "uniform-in-t":
        nodes = np.linspace(annulus.inner, annulus.outer, n + 1)
    elif spacing_mode == "uniform-in-1/t":
        nodes = 1.0 / np.linspace(1.0 / annulus.inner, 1.0 / annulus.outer, n + 1)
    else:
        raise ValueError(f"unknown spacing mode {spacing_mode!r}")
    nodes[0] = annulus.inner
    nodes[-1] = annulus.outer
    return RadialGrid(annulus, nodes, spacing_mode)


@lru_cache(maxsize=64)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(a: float, b: float, order: int):
    """Gauss-Legendre nodes and weights on ``[a, b]``."""
    if order < 1:
        raise ValueError("quadrature order must be positive")
    x, w = _leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@dataclass(frozen=True, eq=False)
class SphericalQuadrature:
    """Product quadrature on the unit sphere.

    Gauss-Legendre in the polar cosine crossed with a uniform azimuthal
    rule.  Weights sum to the sphere area ``4 pi`` and the rule is exact
    for polynomial integrands up to the Gauss degree in ``z``.
    """

    nodes: np.ndarray
    weights: np.ndarray


def make_sphere_quadrature(order: int) -> SphericalQuadrature:
    """Build a sphere rule with ``order`` polar nodes and ``2 * order``
    azimuthal nodes (``2 * order**2`` points in total)."""
    if order < 2:
        raise ValueError("sphere quadrature order must be at least 2")
    z, wz = _leggauss(order)
    n_phi = 2 * order
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    rho = np.sqrt(1.0 - z**2)
    x = np.outer(rho, np.cos(phi)).ravel()
    y = np.outer(rho, np.sin(phi)).ravel()
    zz = np.repeat(z, n_phi)
    nodes = np.column_stack([x, y, zz])
    weights = np.repeat(wz, n_phi) * (np.pi / order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return SphericalQuadrature(nodes=nodes, weights=weights)


_AXES = np.eye(3)


def row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an ``(N, 3)`` array.

    Same bits as ``np.linalg.norm(pts, axis=1)``, which sums the squares
    in the same order, at a fraction of its cost on long arrays.
    """
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return np.sqrt(x * x + y * y + z * z)


def tangent_frames(points: np.ndarray):
    """Tangent frames at the rows of an ``(N, 3)`` array of unit vectors.

    Returns ``(U, V)`` arrays of the same shape; with the point ``n``,
    each ``(u, v, n)`` is a right-handed orthonormal frame.  The helper
    axis is chosen by the largest-magnitude component of the point, so
    nearby points get nearby frames and no cross product degenerates.
    """
    pts = np.asarray(points, dtype=float)
    norms = row_norms(pts)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("tangent frames require unit vectors")
    pts = pts / norms[:, None]
    idx = (np.argmax(np.abs(pts), axis=1) + 1) % 3
    helpers = _AXES[idx]
    u = np.cross(helpers, pts)
    u = u / row_norms(u)[:, None]
    v = np.cross(pts, u)
    return u, v

"""Annuli, radial grids, spherical quadrature, and tangent frames.

Everything downstream integrates over a spherical shell ``A(r, R)`` by
splitting into a radial factor and a unit-sphere factor, so this module
owns the two discretizations: Gauss-Legendre nodes along the radius and
a product rule on the sphere.  Radial grids space their nodes evenly in
``t``, in ``1 / t`` or in ``log t``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, EvaluationError

SPACING_MODES = ("uniform-in-t", "uniform-in-1/t", "uniform-in-log-t")
# angle of the centred great-circle differences of a callable sphere map
_GREAT_CIRCLE_STEP = 1e-6


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


def _log_width(annulus: Annulus) -> float:
    """``log(R / r)`` of a shell: ``log1p((R - r) / r)``, which keeps every
    digit on thin shells, or ``log R - log r`` where ``(R - r) / r`` leaves
    the float range."""
    ratio = (annulus.outer - annulus.inner) / annulus.inner
    if ratio < math.inf:
        return math.log1p(ratio)
    return math.log(annulus.outer) - math.log(annulus.inner)


def _radii(annulus: Annulus, s: np.ndarray) -> np.ndarray:
    """The radii ``t = r e^s`` at offsets ``s`` from 0 to :func:`_log_width`:
    ``r + r expm1(s)``, which keeps every digit on thin shells, or
    ``exp(log r + s)`` where ``(R - r) / r``, and so ``expm1(s)``, leaves
    the float range."""
    r = annulus.inner
    if (annulus.outer - r) / r < math.inf:
        return r + r * np.expm1(s)
    return np.exp(math.log(r) + s)


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


def _four_pi_times(exact: Fraction) -> float:
    """``4 pi`` times the float nearest ``exact``; ``inf`` beyond the float range."""
    try:
        return 4.0 * math.pi * float(exact)
    except OverflowError:
        return math.inf


def _profile_coefficient(name: str, exact: Fraction, profile: str, pair: AnnulusPair) -> float:
    """Coefficient ``name`` of ``profile``: ``exact`` rounded once.  It must
    be finite, and normal or within 1e-12 relative of ``exact``; else
    :class:`EvaluationError` names it and the radii."""
    try:
        value = float(exact)
    except OverflowError:
        value = math.inf if exact > 0 else -math.inf
    if math.isfinite(value) and (abs(value) >= sys.float_info.min
                                 or abs(exact - Fraction(value)) <= abs(exact) / 10**12):
        return value
    how = ", rounded through subnormal floats" if math.isfinite(value) else ""
    raise EvaluationError(f"{profile} has {name} = {value!r}{how}; the radii r = {pair.r!r}, "
                          f"R = {pair.R!r}, r_star = {pair.r_star!r}, R_star = {pair.R_star!r} "
                          "are too extreme for floating point")


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float array: itself if it is one, else a
    copy, so that no caller's buffer is frozen or shared writable."""
    arr = np.asarray(values, dtype=float)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing radial nodes spanning an annulus exactly.  The
    nodes are read-only, so a grid can be shared."""

    annulus: Annulus
    nodes: np.ndarray
    spacing_mode: str

    def __post_init__(self):
        nodes = _read_only(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(nodes[1:] > nodes[:-1]):
            raise DomainError(
                f"grid nodes must be strictly increasing: {nodes.size} nodes on the annulus "
                f"[{self.annulus.inner!r}, {self.annulus.outer!r}]"
            )
        if nodes[0] != self.annulus.inner or nodes[-1] != self.annulus.outer:
            raise DomainError(f"grid must span the annulus exactly: nodes {float(nodes[0])!r} "
                              f"to {float(nodes[-1])!r} on {self.annulus!r}")
        if self.spacing_mode not in SPACING_MODES:
            raise ValueError(f"unknown spacing mode {self.spacing_mode!r}")


def _stiffness_exponent(grid: RadialGrid) -> int:
    """``e`` of the scale ``2^-e`` of :func:`_form_stiffness`: the mean binary
    exponent of ``t0 t1`` and the largest product formed (``R^2``, or ``t_{n-1} R``
    on a reciprocal grid), halved, to a multiple of 8 (0 on shells near 1), but
    so large that neither that product nor ``R`` passes ``2^1021``.  Centred on
    the shell (``verify._at_unit_scale``) or on ``R``, wide grids would not fit."""
    t, (_, eR) = grid.nodes, math.frexp(grid.annulus.outer)
    lo = math.frexp(t[0])[1] + math.frexp(t[1])[1]
    hi = eR + (math.frexp(t[-2])[1] if grid.spacing_mode == "uniform-in-1/t" else eR)
    return max(8 * round((lo + hi) / 32), (hi - 1021) // 2, eR - 1021)


def _form_stiffness(grid: RadialGrid, a: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Per-interval stiffness ``a_i`` of the discrete quadratic form
    ``Q(K) = sum a_i (K_{i+1} - K_i)^2`` of the reduced energy on ``grid``,
    formed on the nodes times ``2^-e`` (:func:`_stiffness_exponent`), so
    ``2^-e`` times the grid's own, written into ``a``, returned, with ``tmp``
    as scratch: float64 arrays of one entry per interval sharing no memory.

    The weight ``t^2`` is integrated exactly against the interpolant:
    linear in ``1 / t`` on a ``uniform-in-1/t`` grid, linear in ``t`` on
    the other two.  So the form is the true reduced energy of the
    discrete competitor.  That keeps the discrete minimum an upper bound
    of the continuum minimum on every grid, and makes the reciprocal
    spacing reproduce the closed-form minimizer at the nodes.  Raises
    :class:`EvaluationError` where an entry is not positive and finite.
    """
    e = _stiffness_exponent(grid)
    t = np.ldexp(grid.nodes, -e) if e else grid.nodes
    t0, t1 = t[:-1], t[1:]
    # the integral of t^2 against a K linear in 1/t over one interval is
    # t0 t1; against a K linear in t it is (t0^2 + t0 t1 + t1^2) / 3.
    # a and tmp hold every step, in the plain formula's operation order
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.multiply(t0, t1, out=a)
        if grid.spacing_mode != "uniform-in-1/t":
            a += np.multiply(t0, t0, out=tmp)
            a += np.multiply(t1, t1, out=tmp)
            a /= 3.0
        a /= np.subtract(t1, t0, out=tmp)
    # a positive min() and a finite max() need no temporary
    if not (a.min() > 0.0 and math.isfinite(a.max())):
        i = int(np.nonzero(~(np.isfinite(a) & (a > 0.0)))[0][0])
        raise EvaluationError(
            f"interval stiffness a_{i} = {a[i]} on [{grid.nodes[i]:.6g}, "
            f"{grid.nodes[i + 1]:.6g}], formed on the nodes times 2^{-e}, is not positive and "
            "finite; the radii are too extreme for floating point")
    return a


def make_radial_grid(annulus: Annulus, n: int, spacing_mode: str = "uniform-in-t") -> RadialGrid:
    """Build a radial grid with ``n`` intervals (``n + 1`` nodes).

    ``uniform-in-t`` spaces the nodes evenly in the radius itself;
    ``uniform-in-1/t`` spaces them evenly in the reciprocal radius,
    which is the natural coordinate of the radial Euler-Lagrange
    equation; ``uniform-in-log-t`` spaces them evenly in ``log t``, so
    every interval has the same ``h / t`` on any shell.  Endpoints land on
    the annulus boundary exactly.  A ``uniform-in-1/t`` grid raises
    :class:`EvaluationError` where ``1 / r`` is past the float range, for
    ``r`` below about 5.6e-309.
    """
    if n < 2:
        raise ValueError("need at least two intervals")
    if annulus.is_degenerate:
        raise DomainError(f"cannot grid a degenerate annulus, got {annulus!r}")
    # RadialGrid rejects any other mode
    if spacing_mode == "uniform-in-1/t":
        inverse = 1.0 / annulus.inner
        if inverse == math.inf:
            raise EvaluationError(f"a uniform-in-1/t grid on r = {annulus.inner!r}, R = "
                                  f"{annulus.outer!r} needs 1 / r, which is past the float range")
        nodes = 1.0 / np.linspace(inverse, 1.0 / annulus.outer, n + 1)
    elif spacing_mode == "uniform-in-log-t":
        nodes = _radii(annulus, np.linspace(0.0, _log_width(annulus), n + 1))
    else:
        nodes = np.linspace(annulus.inner, annulus.outer, n + 1)
    nodes[0] = annulus.inner
    nodes[-1] = annulus.outer
    # RadialGrid keeps a read-only array as it is, without a copy
    nodes.setflags(write=False)
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
    for polynomial integrands up to the Gauss degree in ``z``.  Nodes and
    weights are read-only, so the tangent frames at the nodes, and the
    point sets of the great-circle differences along them, are computed
    once and kept, read-only, with the rule: on first read, or with the
    rule for those of :func:`make_sphere_quadrature`.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _read_only(self.nodes))
        object.__setattr__(self, "weights", _read_only(self.weights))

    @cached_property
    def _frames(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`tangent_frames` of the nodes."""
        u, v = tangent_frames(self.nodes)
        u.setflags(write=False)
        v.setflags(write=False)
        return u, v

    @cached_property
    def _great_circle_points(self) -> np.ndarray:
        """The four point sets of the centred great-circle differences at
        the nodes, ``cos(step) nodes +- sin(step) u`` and then the same
        along ``v``, with ``step`` the ``_GREAT_CIRCLE_STEP``: one
        column-major, read-only ``(4 N, 3)`` array."""
        step = _GREAT_CIRCLE_STEP
        ch, sh = math.cos(step), math.sin(step)
        u, v = self._frames
        n = self.nodes.shape[0]
        points = np.empty((4 * n, 3), order="F")
        # axes: coordinate, tangent (u or v), sign of the offset, node
        sets = points.T.reshape(3, 2, 2, n)
        along = np.multiply(self.nodes, ch).T[:, None]
        offsets = np.empty((3, 2, n))
        np.multiply(u.T, sh, out=offsets[:, 0])
        np.multiply(v.T, sh, out=offsets[:, 1])
        np.add(along, offsets, out=sets[:, :, 0])
        np.subtract(along, offsets, out=sets[:, :, 1])
        points.setflags(write=False)
        return points


def make_sphere_quadrature(order: int) -> SphericalQuadrature:
    """A sphere rule with ``order`` polar nodes and ``2 * order``
    azimuthal nodes (``2 * order**2`` points in total).  Rules are built
    once per order and shared, with their tangent frames and great-circle
    point sets; their arrays are read-only."""
    if order < 2:
        raise ValueError("sphere quadrature order must be at least 2")
    return _sphere_rule(order)


@lru_cache(maxsize=8)
def _sphere_rule(order: int) -> SphericalQuadrature:
    z, wz = _leggauss(order)
    n_phi = 2 * order
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    rho = np.sqrt(1.0 - z**2)
    x = np.outer(rho, np.cos(phi)).ravel()
    y = np.outer(rho, np.sin(phi)).ravel()
    zz = np.repeat(z, n_phi)
    nodes = np.column_stack([x, y, zz])
    weights = np.repeat(wz, n_phi) * (np.pi / order)
    rule = SphericalQuadrature(nodes=nodes, weights=weights)
    # built with the shared rule, before any caller's transient arrays: built
    # on first use, in the middle of a verify op, these long-lived arrays leave
    # the heap so that glibc trims and faults back the inversion check's arrays
    # on most later ops, about 1 900 minor faults per op
    rule._great_circle_points
    return rule


_AXES = np.eye(3)


def _as_points(points) -> np.ndarray:
    """``points`` as a float array, which must have shape ``(N, 3)``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (N, 3), got shape {pts.shape}")
    return pts


def _squared_norms(pts: np.ndarray) -> np.ndarray:
    """``x^2 + y^2 + z^2`` of the rows of an ``(N, 3)`` array, summed
    column by column, so any memory layout gives the same bits."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    out = x * x
    out += y * y
    out += z * z
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross(a, b)`` of two ``(N, 3)`` arrays, column by column in
    numpy's order of operations, so with its bits: a column-major
    ``(N, 3)`` array."""
    out = np.empty(a.shape, order="F")
    tmp = np.empty(a.shape[0])
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        col = np.multiply(a[:, i], b[:, j], out=out[:, k])
        col -= np.multiply(a[:, j], b[:, i], out=tmp)
    return out


def row_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an ``(N, 3)`` array.

    Same bits as ``np.linalg.norm(pts, axis=1)``, which sums the squares
    in the same order, at a fraction of its cost on long arrays.
    """
    out = _squared_norms(pts)
    return np.sqrt(out, out=out)


def tangent_frames(points: np.ndarray):
    """Tangent frames at the rows of an ``(N, 3)`` array of unit vectors.

    Returns ``(U, V)`` arrays of the same shape; with the point ``n``,
    each ``(u, v, n)`` is a right-handed orthonormal frame.  The helper
    axis is chosen by the largest-magnitude component of the point, so
    nearby points get nearby frames and no cross product degenerates.
    """
    pts = _as_points(points)
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

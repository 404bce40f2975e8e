"""Moebius transformations acting on the unit sphere.

A transform is a determinant-normalized 2x2 complex matrix acting on the
stereographic coordinate.  Its sphere action, conformal stretch and
pushforward take ``(N, 3)`` arrays of unit vectors in any memory order
and go through the equivalent real 4x4 Lorentz matrix (PSL(2, C) =
SO+(3, 1)), whose action is a quotient with a denominator that stays
positive at both poles; point batches come back column-major.
``sphere_inequality_integral`` integrates the tangential energy of a
sphere map, a transform or a callable, over a quadrature rule: a
transform's action is differentiated along both tangent frames from one
image, and a callable along great circles from one call on the rule's
four kept point sets.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import _kernels
from .geometry import (
    _GREAT_CIRCLE_STEP,
    SphericalQuadrature,
    _as_points,
    _squared_norms,
    row_norms,
)

_DET_TOL = 1e-12
# largest condition number of a random_mobius draw
_MAX_CONDITION = 5.0


@dataclass(frozen=True)
class MobiusTransform:
    """Entries of the matrix ``[[a, b], [c, d]]``, normalized so that
    ``a d - b c = 1``.  Matrices differing by sign act identically.

    Raises ``ValueError`` on a nearly singular matrix, and where an
    entry, the determinant or a normalized entry is not finite."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        entries = [complex(v) for v in (self.a, self.b, self.c, self.d)]
        if not all(map(cmath.isfinite, entries)):
            raise ValueError(f"matrix entries must be finite, got a, b, c, d = {entries}")
        a, b, c, d = entries
        det = a * d - b * c
        if not cmath.isfinite(det):
            raise ValueError(f"determinant a d - b c = {det!r} of the entries {entries} "
                             "is not finite")
        # abs() raises OverflowError where |det| passes the float range
        if math.hypot(det.real, det.imag) < _DET_TOL:
            raise ValueError("matrix is singular or nearly singular")
        s = cmath.sqrt(det)
        normalized = [v / s for v in entries]
        if not all(map(cmath.isfinite, normalized)):
            raise ValueError(f"dividing the entries by sqrt(a d - b c) = {s!r} gives "
                             f"{normalized}, not all finite")
        for name, v in zip("abcd", normalized):
            object.__setattr__(self, name, v)

    @classmethod
    def identity(cls) -> "MobiusTransform":
        return cls(1.0, 0.0, 0.0, 1.0)


def _act(kernel, t: MobiusTransform, pts, *vecs):
    """Run a sphere-action kernel of ``_kernels`` on unit vectors of shape
    ``(N, 3)`` and on any number of tangent fields of the same shape."""
    pts = _as_points(pts)
    dev = row_norms(pts)
    dev -= 1.0
    if np.any(np.abs(dev, out=dev) > 1e-9):
        raise ValueError("sphere action expects unit vectors")
    vecs = [np.asarray(v, dtype=float) for v in vecs]
    if any(v.shape != pts.shape for v in vecs):
        raise ValueError("tangent vectors must have the shape of the points")
    return kernel(t.a, t.b, t.c, t.d, pts, *vecs)


def _is_identity(t: MobiusTransform) -> bool:
    """Whether ``t`` has the entries of the identity matrix."""
    return t.a == 1.0 and t.b == 0.0 and t.c == 0.0 and t.d == 1.0


def _unit_safe(norms: np.ndarray) -> bool:
    """Whether rows just divided by ``norms``, their ``row_norms``, are unit
    vectors up to rounding: a norm in 1e-150..1e150 squares to a normal
    float."""
    return bool(norms.size) and 1e-150 <= norms.min() and norms.max() <= 1e150


def _lorentz(t: MobiusTransform) -> np.ndarray:
    """The kernel's Lorentz matrix of ``t``, formed anew on every call."""
    return _kernels._lorentz(t.a, t.b, t.c, t.d)


def _sphere_action(t: MobiusTransform, units: np.ndarray, safe: bool = True) -> np.ndarray:
    """``T(units[i])`` for the rows of an ``(N, 3)`` float array that the
    caller has divided by their norms, as ``(3, N)`` coordinate rows: the
    sphere part ``T(u)`` of a generalized radial map's value ``H(t) T(u)``.
    ``safe`` is :func:`_unit_safe` of those norms; unsafe rows take the
    public action's unit check.  Safe rows go to the kernel's Lorentz
    action; the identity gives ``units`` itself, as the kernel would give
    the same bits but for the sign of an exact zero."""
    if not safe:
        return mobius_apply_points(t, units).T
    if _is_identity(t):
        return units.T
    return _kernels._image(_lorentz(t), units)[0].T


def _radial_scale(image: np.ndarray, scale: np.ndarray, out: np.ndarray | None = None):
    """``H(t) T(u)``: the coordinate rows ``image`` of
    :func:`_sphere_action`, of shape ``(3, ...)``, times the profile
    values ``scale``, which broadcast against each row; a fresh array, or
    ``out``."""
    return np.multiply(image, scale, out=out)


def mobius_apply_points(t: MobiusTransform, pts: np.ndarray) -> np.ndarray:
    """Apply the sphere action of ``t`` to an ``(N, 3)`` array of unit
    vectors.  Outputs are unit vectors up to rounding."""
    return _act(_kernels.mobius_apply_points, t, pts)


def conformal_stretch_points(t: MobiusTransform, pts: np.ndarray) -> np.ndarray:
    """Pointwise stretch factor of the sphere action.

    With ``L = [[w0, w^T], [l, A]]`` the Lorentz matrix of ``t``, the
    action scales the spherical metric at ``p`` by ``1 / (w . p + w0)``.
    """
    return _act(_kernels.conformal_stretch_points, t, pts)


def mobius_pushforward(t: MobiusTransform, etas: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Derivative of the sphere action at unit points ``etas`` along
    tangent vectors ``vecs`` of the same shape, at unit-sphere scale."""
    return _act(_kernels.mobius_pushforward, t, etas, vecs)


def random_mobius(rng: np.random.Generator) -> MobiusTransform:
    """Draw a random transform with entries uniform on the unit square.

    Rejects nearly singular draws (``|det| < 1e-6``) and, after the
    determinant normalization, draws whose condition number exceeds 5:
    those concentrate the stretch factor in a cap too small for
    fixed-order quadrature to resolve.
    """
    while True:
        e = rng.uniform(-1.0, 1.0, size=8)
        a = complex(e[0], e[1])
        b = complex(e[2], e[3])
        c = complex(e[4], e[5])
        d = complex(e[6], e[7])
        det = a * d - b * c
        if abs(det) < 1e-6:
            continue
        f2 = (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2) / abs(det)
        # det-one matrices satisfy f2 = kappa + 1/kappa
        kappa = 0.5 * (f2 + math.sqrt(max(f2 * f2 - 4.0, 0.0)))
        if kappa > _MAX_CONDITION:
            continue
        return MobiusTransform(a, b, c, d)


# ---------------------------------------------------------------------------
# Tangential energy of a sphere map.

SphereMap = Union[MobiusTransform, Callable[[np.ndarray], np.ndarray]]


def _frame_pushforwards(t: MobiusTransform, quad: SphericalQuadrature):
    """Derivatives of the action of ``t`` at the nodes of ``quad`` along
    both of its tangent frames, from one kernel call: one image and one
    unit check of the nodes."""
    return _act(_kernels.mobius_pushforward, t, quad.nodes, *quad._frames)


def _tangent_derivatives_fd(s: Callable[[np.ndarray], np.ndarray], quad: SphericalQuadrature):
    """Centered great-circle differences of a sphere-to-sphere callable at
    the nodes of ``quad``, along both of its tangent frames.

    The rule's four kept point sets (``_great_circle_points``) go to ``s``
    in one read-only column-major ``(4 N, 3)`` call; as ``s`` acts row by
    row, the bits are those of four calls.  An output of another shape
    raises :class:`ValueError` naming both shapes."""
    points = quad._great_circle_points
    vals = np.asarray(s(points))
    if vals.shape != points.shape:
        raise ValueError(f"sphere map returned shape {vals.shape}, not {points.shape}")
    images = vals.T.reshape(3, 2, 2, quad.nodes.shape[0])
    diffs = np.subtract(images[:, :, 0], images[:, :, 1])
    diffs /= 2.0 * _GREAT_CIRCLE_STEP
    return diffs[:, 0].T, diffs[:, 1].T


def _shell_energy(du: np.ndarray, dv: np.ndarray, quad: SphericalQuadrature) -> float:
    """Quadrature sum of ``|du|^2 + |dv|^2``: the tangential energy of a
    sphere map with derivatives ``du`` and ``dv`` along the frames of
    ``quad``."""
    density = _squared_norms(du) + _squared_norms(dv)
    # on a sphere of radius t the 1/t^2 from each derivative cancels the
    # t^2 area element
    return float(np.sum(quad.weights * density))


def sphere_inequality_integral(mapping: SphereMap, quad: SphericalQuadrature) -> float:
    """Integral of the tangential energy density of a shell map.

    For the map ``S(x) = mapping(x / |x|)`` on a sphere centred at the
    origin, returns the surface integral of ``|DS|^2 - |DS . x/|x||^2``.
    The value does not depend on the sphere's radius, so it is taken on
    the unit sphere of ``quad``.  It is exactly ``8 pi`` for every Moebius
    transform, and exceeds ``8 pi`` for any other surjective map of the
    sphere.

    A callable acts row by row: it takes an ``(M, 3)`` array of unit
    vectors, in any memory layout, and returns the ``(M, 3)`` array of
    their images, each row depending on its own row alone.  It is called
    once, on four point sets of the nodes' size, which the rule keeps for
    every call: the array is read-only, and a callable must not write it
    (a write raises :class:`ValueError`).  An output of another shape
    raises :class:`ValueError`.
    """
    if isinstance(mapping, MobiusTransform):
        du, dv = _frame_pushforwards(mapping, quad)
    else:
        du, dv = _tangent_derivatives_fd(mapping, quad)
    return _shell_energy(du, dv, quad)

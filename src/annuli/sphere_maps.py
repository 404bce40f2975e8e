"""Moebius transformations acting on the unit sphere.

A transform is a determinant-normalized 2x2 complex matrix acting on the
stereographic coordinate.  Every evaluation goes through the equivalent
real 4x4 Lorentz matrix (PSL(2, C) = SO+(3, 1)), whose action on the
sphere is a quotient with a denominator that stays positive at both
poles; the plain chart functions are provided for callers that want the
complex-plane picture.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import _kernels
from .geometry import SphericalQuadrature, TangentFrame, row_norms, tangent_frame, tangent_frames

_DET_TOL = 1e-12
# angle of the centred great-circle differences of a callable sphere map
_GREAT_CIRCLE_STEP = 1e-6


@dataclass(frozen=True)
class MobiusTransform:
    """Entries of the matrix ``[[a, b], [c, d]]``, normalized so that
    ``a d - b c = 1``.  Matrices differing by sign act identically."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = (complex(v) for v in (self.a, self.b, self.c, self.d))
        det = a * d - b * c
        if abs(det) < _DET_TOL:
            raise ValueError("matrix is singular or nearly singular")
        s = cmath.sqrt(det)
        object.__setattr__(self, "a", a / s)
        object.__setattr__(self, "b", b / s)
        object.__setattr__(self, "c", c / s)
        object.__setattr__(self, "d", d / s)

    @classmethod
    def identity(cls) -> "MobiusTransform":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])


def stereographic(p) -> complex:
    """Project a unit vector to the complex plane from the north pole.

    ``(0, 0, 1)`` maps to complex infinity, ``(0, 0, -1)`` to zero and
    ``(1, 0, 0)`` to one.
    """
    p = np.asarray(p, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > 1e-9:
        raise ValueError("stereographic projection expects a unit vector")
    denom = 1.0 - p[2]
    if denom <= 1e-15:
        return complex(math.inf, 0.0)
    return complex(p[0] / denom, p[1] / denom)


def inverse_stereographic(w: complex) -> np.ndarray:
    """Inverse of :func:`stereographic`; accepts complex infinity."""
    if cmath.isinf(w):
        return np.array([0.0, 0.0, 1.0])
    q = abs(w) ** 2
    s = 1.0 + q
    return np.array([2.0 * w.real / s, 2.0 * w.imag / s, (q - 1.0) / s])


def _act(kernel, t: MobiusTransform, pts, *vecs):
    """Run a sphere-action kernel of ``_kernels`` on unit vectors of shape
    ``(N, 3)`` or ``(3,)`` and on tangent vectors of the same shape."""
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected points of shape (N, 3)")
    if np.any(np.abs(row_norms(pts) - 1.0) > 1e-9):
        raise ValueError("sphere action expects unit vectors")
    vecs = [np.asarray(v, dtype=float).reshape(pts.shape) for v in vecs]
    out = kernel(t.a, t.b, t.c, t.d, pts, *vecs)
    return out[0] if single else out


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


def mobius_compose(t1: MobiusTransform, t2: MobiusTransform) -> MobiusTransform:
    """Transform acting as ``t1`` after ``t2``."""
    return MobiusTransform(
        t1.a * t2.a + t1.b * t2.c,
        t1.a * t2.b + t1.b * t2.d,
        t1.c * t2.a + t1.d * t2.c,
        t1.c * t2.b + t1.d * t2.d,
    )


def mobius_inverse(t: MobiusTransform) -> MobiusTransform:
    return MobiusTransform(t.d, -t.b, -t.c, t.a)


def random_mobius(rng: np.random.Generator, max_condition: float = 5.0) -> MobiusTransform:
    """Draw a random transform with entries uniform on the unit square.

    Rejects nearly singular draws (``|det| < 1e-6``) and, after the
    determinant normalization, draws whose condition number exceeds
    ``max_condition``: those concentrate the stretch factor in a cap too
    small for fixed-order quadrature to resolve.
    """
    if max_condition < 1.0:
        raise ValueError("condition bound must be at least 1")
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
        if kappa > max_condition:
            continue
        return MobiusTransform(a, b, c, d)


# ---------------------------------------------------------------------------
# Differentials.

SphereMap = Union[MobiusTransform, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SphereDifferential:
    """Directional derivatives of ``x -> T(x / |x|)`` at a point with
    ``|x| = t``, taken along a tangent frame.  ``d_n`` vanishes because
    the map ignores the radius; ``scale`` records the ``1 / t`` factor
    already applied to ``d_u`` and ``d_v``."""

    d_u: np.ndarray
    d_v: np.ndarray
    d_n: np.ndarray
    scale: float


def sphere_map_differential(t: MobiusTransform, x, frame: TangentFrame | None = None) -> SphereDifferential:
    """Differential of ``x -> T(x / |x|)`` at a point off the origin."""
    x = np.asarray(x, dtype=float)
    tt = float(np.linalg.norm(x))
    if tt <= 0.0:
        raise ValueError("differential undefined at the origin")
    eta = x / tt
    if frame is None:
        frame = tangent_frame(eta)
    vecs = np.vstack([frame.u, frame.v])
    etas = np.vstack([eta, eta])
    ds = mobius_pushforward(t, etas, vecs)
    return SphereDifferential(d_u=ds[0] / tt, d_v=ds[1] / tt, d_n=np.zeros(3), scale=1.0 / tt)


def gram_determinant(t: MobiusTransform, x) -> float:
    """Area stretch ``|d_u x d_v|`` of the shell map at ``x``; equals
    ``lambda^2 / t^2`` for a conformal sphere action."""
    diff = sphere_map_differential(t, x)
    return float(np.linalg.norm(np.cross(diff.d_u, diff.d_v)))


def _tangent_derivatives_fd(s: Callable[[np.ndarray], np.ndarray], etas: np.ndarray,
                            u: np.ndarray, v: np.ndarray, step: float):
    """Centered great-circle differences of a sphere-to-sphere callable."""
    ch, sh = math.cos(step), math.sin(step)
    du = (s(ch * etas + sh * u) - s(ch * etas - sh * u)) / (2.0 * step)
    dv = (s(ch * etas + sh * v) - s(ch * etas - sh * v)) / (2.0 * step)
    return du, dv


def sphere_inequality_integral(mapping: SphereMap, t: float, quad: SphericalQuadrature) -> float:
    """Integral of the tangential energy density of a shell map.

    For a map ``S(x) = mapping(x / |x|)`` restricted to the sphere of
    radius ``t``, returns the surface integral of
    ``|DS|^2 - |DS . x/|x||^2``.  The value is scale invariant in ``t``,
    is exactly ``8 pi`` for every Moebius transform, and exceeds ``8 pi``
    for any other surjective map of the sphere.
    """
    if t <= 0.0:
        raise ValueError("shell radius must be positive")
    u, v = tangent_frames(quad.nodes)
    if isinstance(mapping, MobiusTransform):
        du = mobius_pushforward(mapping, quad.nodes, u)
        dv = mobius_pushforward(mapping, quad.nodes, v)
    else:
        du, dv = _tangent_derivatives_fd(mapping, quad.nodes, u, v, _GREAT_CIRCLE_STEP)
    density = np.einsum("ij,ij->i", du, du) + np.einsum("ij,ij->i", dv, dv)
    # the 1/t^2 from each derivative cancels the t^2 area element
    return float(quad.weights @ density)

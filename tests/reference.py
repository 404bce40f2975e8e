"""Independent reference formulas that the tests check the package against.

None of these is part of the ``annuli`` API.  The stereographic chart
and the 2x2 matrix product check the Lorentz-matrix sphere action, and
the analytic single-point differential checks the finite-difference
differential of a generalized radial map.
"""
import cmath
import math

import numpy as np

from annuli import (
    DomainError,
    GeneralizedRadialMap,
    MobiusTransform,
    mobius_apply_points,
    mobius_pushforward,
    tangent_frames,
)


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


def mobius_matrix(t: MobiusTransform) -> np.ndarray:
    """The normalized matrix ``[[a, b], [c, d]]`` of ``t``."""
    return np.array([[t.a, t.b], [t.c, t.d]])


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
    eta = x / t
    u, v = tangent_frames(eta[None])
    h = f.profile.eval(t)
    hd = f.profile.derivative(t, 1)
    s = mobius_apply_points(f.rotation, eta[None])[0]
    ds = mobius_pushforward(f.rotation, np.vstack([eta, eta]), np.vstack([u, v]))
    d = np.outer(hd * s, eta)
    d += (h / t) * (np.outer(ds[0], u[0]) + np.outer(ds[1], v[0]))
    return d

"""Independent reference formulas that the tests check the package against.

None of these is part of the ``annuli`` API.  The stereographic chart
and the 2x2 matrix product check the Lorentz-matrix sphere action, the
analytic single-point differential checks the finite-difference
differential of a generalized radial map, the projective form of the
twisted minimizers checks their matrix form, the map composed with a
sphere inversion checks the FD route's shared-stencil inversion, the FD
route that evaluates its stencil one point set per call checks the
batched one, the pair generator's scalar loop checks its rounds, and the
logs of the closed-form energies decide where those energies lie beyond
the float range.  The Lorentz affine map one row at a time, the
great-circle differences of a sphere map in four calls, the weighted
minimum in ``Fraction`` arithmetic, the admissible pair drawn one pair
at a time, the perturbed profile's bump summed one frequency at a time
for one member and the sampled weighted integral with both branches formed
on every interval check the forms that replaced them.
"""
import cmath
import math
from fractions import Fraction

import numpy as np

from annuli import (
    DomainError,
    GeneralizedRadialMap,
    MobiusTransform,
    SampledMap,
    analytic_min_weighted_energy,
    map_eval_many,
    mobius_apply_points,
    mobius_pushforward,
    nitsche_condition,
    random_annulus_pair,
    tangent_frames,
)
from annuli.energy import _EXP_SERIES, _SINH_SERIES, _fd_stencil, _same
from annuli.geometry import _log_width, _squared_norms, row_norms
from annuli.maps import sphere_inversion
from annuli.verify import _MIN_RATIO


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


def inversion_transform(f, a: float = 1.0) -> SampledMap:
    """Compose a map with the sphere inversion ``y -> a * y / |y|^2``.

    The weighted energy is invariant under this composition; the image
    annulus radii become ``a / R_star`` and ``a / r_star``.
    """
    invert = sphere_inversion(a)
    return SampledMap(evaluator=lambda points: invert(map_eval_many(f, points)))


def projective_twisted_minimizer(pair, rng):
    """The member that ``verify._twisted_minimizer(pair, rng)`` draws from the
    same stream, as the evaluator ``x -> exp(log r* + k (t - r) / t + eps phi(t))
    mobius_apply_points(T0, Rot_z(c (t - r)) eta)`` with ``np.cos`` and
    ``np.sin``: ``T0`` goes through the projective sphere action and its
    unit check.  Returns the evaluator and the twist rate ``c``."""
    r, R, width = pair.r, pair.R, pair.domain.width
    ell = _log_width(pair.target)
    log_rs, k = math.log(pair.r_star), ell * R / width
    q = rng.normal(size=4)
    q /= math.hypot(*q)
    rot = MobiusTransform(complex(q[0], q[1]), complex(q[2], q[3]),
                          complex(-q[2], q[3]), complex(q[0], -q[1]))
    eps = rng.uniform(0.0, 1.0) * ell * r / R
    twist = analytic_min_weighted_energy(pair) * 10.0 ** rng.uniform(-3.0, -1.0)
    c = math.sqrt(9.0 * twist / (8.0 * math.pi * width * (R * R + R * r + r * r)))

    def evaluator(points):
        t = np.linalg.norm(points, axis=1)
        units = points / t[:, None]
        cos, sin = np.cos(c * (t - r)), np.sin(c * (t - r))
        x, y = units[:, 0], units[:, 1]
        units[:, 0], units[:, 1] = cos * x - sin * y, sin * x + cos * y
        image = mobius_apply_points(rot, units)
        image *= np.exp((t - r) / t * k + log_rs
                        + eps * ((t - r) / width) * ((R - t) / width))[:, None]
        return image

    return evaluator, c


def log_min_weighted_energy(pair) -> float:
    """Log of the weighted minimum, finite for every valid pair: each
    term of the sum is taken in logs."""
    r, R = pair.r, pair.R
    terms = [math.log(2.0) + math.log(R - r)]
    ell = _log_width(pair.target)
    if ell > 0.0:
        terms.append(math.log(r) + math.log(R) + 2.0 * math.log(ell) - math.log(R - r))
    hi = max(terms)
    return math.log(4.0 * math.pi) + hi + math.log(sum(math.exp(x - hi) for x in terms))


def log_dirichlet_energy_radial(pair) -> float:
    """Log of the harmonic map's Dirichlet energy, finite for every valid
    pair.  With the exact coefficients ``a`` and ``b`` of
    ``H(t) = a t + b / t^2``, the integrand ``t^2 H'^2 + 2 H^2`` is
    ``3 a^2 t^2 + 6 b^2 / t^4``, so the energy is
    ``4 pi (R^3 - r^3) (a^2 + 2 b^2 / (r R)^3)``, a sum of squares."""
    r, R, rs, Rs = map(Fraction, (pair.r, pair.R, pair.r_star, pair.R_star))
    cube = R**3 - r**3
    a = (R**2 * Rs - r**2 * rs) / cube
    b = r**2 * R**2 * (R * rs - r * Rs) / cube
    energy = cube * (a * a + 2 * b * b / (r * R) ** 3)
    return math.log(4.0 * math.pi) + math.log(energy.numerator) - math.log(energy.denominator)


def fd_energies_per_set(f, pair, radial_order, sphere_order, weighted, views=(_same,)):
    """``energy._fd_energies`` with one map call per point set of the
    stencil: ``+e_k`` and ``-e_k`` for each axis in turn, then the centres,
    each set the points ``t_i v`` of every radial node ``t_i`` and every
    point ``v`` of that set of the unit shell.  A generalized radial map's
    values on a set are ``H(t_i |v|) T(v / |v|)``, the public sphere action
    of the set's unit vectors times the profile; any other map's are
    ``map_eval_many`` of the points.  The values, differences and squared
    norms are those of the batched route, so it must give the same bits;
    no error checks."""
    t, shell, two_steps, weights = _fd_stencil(pair.domain, radial_order, sphere_order)

    def values(j):
        v = shell[:, j].T
        if isinstance(f, GeneralizedRadialMap):
            norms = row_norms(v)
            image = mobius_apply_points(f.rotation, v / norms[:, None])
            h = f.profile.eval(np.multiply.outer(t, norms))
            return (image * h[:, :, None]).reshape(-1, 3)
        return map_eval_many(f, np.multiply.outer(t, v).reshape(-1, 3))

    span = np.repeat(two_steps, shell.shape[2])[:, None]
    density = np.zeros((len(views), weights.size))
    for k in range(3):
        plus, minus = values(2 * k), values(2 * k + 1)
        for view, dens in zip(views, density):
            dens += _squared_norms((view(plus) - view(minus)) / span)
    if weighted:
        vals = values(6)
        for view, dens in zip(views, density):
            dens /= _squared_norms(view(vals))
    return [float(np.sum(weights * dens)) for dens in density]


def random_annulus_pair_scalar(rng, low=0.1, high=10.0):
    """One pair with radii log-uniform in ``[low, high]``, four uniforms a
    draw, rejected until ``R / r`` and ``R* / r*`` reach the generator's
    least ratio: the generator's draw, one at a time."""
    lo, hi = math.log(low), math.log(high)
    while True:
        vals = np.exp(rng.uniform(lo, hi, size=4))
        r, R = sorted(vals[:2])
        rs, Rs = sorted(vals[2:])
        if R / r < _MIN_RATIO or Rs / rs < _MIN_RATIO:
            continue
        return float(r), float(R), float(rs), float(Rs)


def affine_per_row(lor, pts):
    """``_kernels._affine`` as a loop over the rows of ``lor``, each row
    summed column by column into its own output row."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    out = np.empty((lor.shape[0], pts.shape[0]))
    term = np.empty(pts.shape[0])
    for row, (c, wx, wy, wz) in zip(out, lor):
        np.multiply(x, wx, out=row)
        row += np.multiply(y, wy, out=term)
        row += np.multiply(z, wz, out=term)
        row += c
    return out


def great_circle_differences_four_calls(s, etas, u, v, step):
    """Centred great-circle differences of a sphere map ``s`` from four
    calls, one per point set: ``cos(step) etas +- sin(step) u``, then the
    same along ``v``."""
    ch, sh = math.cos(step), math.sin(step)
    du = (s(ch * etas + sh * u) - s(ch * etas - sh * u)) / (2.0 * step)
    dv = (s(ch * etas + sh * v) - s(ch * etas - sh * v)) / (2.0 * step)
    return du, dv


def min_weighted_energy_fraction(pair) -> Fraction:
    """The weighted minimum over ``4 pi``, ``2 (R - r) + r R ell^2 / (R - r)``
    with ``ell = log(R* / r*)``, in ``Fraction`` arithmetic on the floats."""
    r, R = Fraction(pair.r), Fraction(pair.R)
    ell = Fraction(_log_width(pair.target))
    return 2 * (R - r) + r * R * ell * ell / (R - r)



def random_admissible_pair_loop(rng):
    """One admissible pair: :func:`annuli.random_annulus_pair` drawn one
    pair at a time until ``nitsche_condition`` admits one."""
    while True:
        pair = random_annulus_pair(rng)
        if nitsche_condition(pair).admissible:
            return pair


def perturbed_values_one_member(base, amplitude, mode, seed, grid):
    """The values of ``perturbed_profile(base, amplitude, mode, seed=seed,
    grid=grid)``, formed for one member as the function once formed them."""
    t = grid.nodes
    a = grid.annulus
    s = (t - a.inner) / a.width
    coef = np.random.default_rng(seed).uniform(-1.0, 1.0, size=mode)
    coef /= np.sum(np.abs(coef))
    bump = np.zeros_like(s)
    for j, cj in enumerate(coef, start=1):
        bump += cj * np.sin(j * np.pi * s)
    with np.errstate(over="ignore"):
        return base.eval(t) * (1.0 + amplitude * bump)


def sampled_weighted_integral_both_branches(t, u):
    """``integral(t^2 (H'/H)^2) dt`` of the piecewise-linear interpolant of
    the values ``u`` (one row per profile) on the nodes ``t``, as
    ``energy._sampled_weighted_integral`` once formed it: both branches of
    ``A`` and ``B`` on every interval, one picked by ``np.where``."""
    t0, h = t[:-1], np.diff(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = np.log1p(np.diff(u) / u[..., :-1])
        x = np.expm1(y)
        small = np.abs(y) < 1.0
        y2 = y * y
        y_over_x = np.divide(y, x, out=np.ones_like(y), where=(y != 0.0))
        a = np.where(small, 2.0 * y2 * y_over_x * np.polyval(_SINH_SERIES, y2),
                     2.0 * (np.sinh(y) - y) / x)
        b = np.where(small, y2 * np.polyval(_EXP_SERIES, y), np.expm1(-y) + y)
        half = np.sinh(0.5 * y)
        parts = h * a + t0 * (2.0 * b + 4.0 * (t0 / h) * (half * half))
        return parts.sum(axis=-1)

"""Energy functionals of annulus mappings.

Two quadrature routes coexist on purpose.  Generalized radial maps split
into a radial integral and a sphere integral (the decomposition route);
arbitrary sampled maps go through a full 3-D tensor rule with central
finite differences (the FD route).  Cross-checking the two is one of the
main verification tools, so neither is allowed to call the other.

The FD route and the decomposition of a closed-form profile integrate
over the radius with one Gauss-Legendre rule in ``s = log(t / r)``.  The
weighted density of the minimizer is ``b^2 / t^2 + 2`` in ``t`` but
``b^2 / t + 2 t`` in ``s``, which is smooth on any shell, so at the
default orders the decomposition route reads the minimizers' energies
to rounding on thin and wide shells alike.

The FD route evaluates a map once per stencil point.  It sends the
stencil ``_FD_CHUNK`` centres at a time, with all six or seven point sets
of the chunk in one call, as numpy's fixed cost per call outweighs the
arithmetic on a few hundred points; the ``+-e_k`` pairs of a call are
then differenced as one block, each step one numpy call for all of them.
For the inversion check, ``f`` and its composition with
``y -> a y / |y|^2`` are differentiated from that one set of samples.
Each shell has one stencil per pair of orders: its centres, steps and
weights are built once and shared, read-only, by every FD energy on that
shell.  The radial rule is rebuilt on each decomposition, which costs
microseconds.  The last two stencils requested more than once are kept,
since the inversion check alternates two sphere orders on one shell, and
apart from them the last two requested once, so the harmonic check's
one-shot shells never evict the pair's two (:class:`_StencilCache`).
Each chunk's points, differences and squared norms are fresh arrays.

A generalized radial map sends no points to ``map_eval_many``.
``f(x) = H(t) T(x / t)``, ``t = |x|``, so the route reads the norms and
unit vectors of the stencil's points from its polar form, computed once
per stencil with the numpy steps ``map_eval_many`` takes on those points,
and ``H(t)`` from values kept there for the last two closed-form
profiles; a sampled profile's values are computed once per energy.
``sphere_maps._apply_to_units``, which forms ``map_eval_many``'s values
too, applies ``T`` and multiplies by ``H``, chunk by chunk, in one
buffer kept for the energy, so the values, and the energies, keep their
bits.  The inversion row's Moebius members alternate two minimizers on
one stencil, so all but the first two reuse their profile values.
Sampled maps, stencils of more than ``_POLAR_MAX_POINTS`` points, and
stencils with a norm outside the window where the sphere action skips
its unit check, take ``map_eval_many``.
"""
from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, EvaluationError
from .geometry import Annulus, AnnulusPair, gauss_legendre, make_sphere_quadrature
from .geometry import _four_pi_times, _log_width, _radii, _squared_norms, row_norms
from .maps import (
    AnnulusMap,
    ExponentialProfile,
    GeneralizedRadialMap,
    RadialProfile,
    SampledProfile,
    _ClosedFormProfile,
    map_eval_many,
)
from .sphere_maps import _apply_to_units, _lorentz, _unit_safe, conformal_stretch_points

# central-difference step of the FD route, relative to the radius t
_FD_STEP = 1e-5
# least step at the outer radius R, in ulps of R, on a shell that verify
# accepts.  The shifted coordinates round to floats, so a central difference
# spans 2 h to within one ulp, and the density |Df|^2 is off by up to 1 / u
# at a step of u ulps: 1.2e-4 at this floor, under the 2e-4 of the inversion
# row.  Over 40 random shells per band at each of r = 1e-8, 1 and 1e8, at
# seeds 1 and 2, the row's worst read 8.0e-4 at 800-1 000 ulps, 2.3e-4 at
# 2 800-3 000 (8 of 80 over 2e-4 at r = 1e8), 1.7e-4 at 3 500-4 000 and
# 7.9e-5 at 8 000-9 000
_FD_MIN_STEP_ULPS = 8192
# centres per chunk of the FD route, whose map call holds a chunk's six or
# seven point sets: at most 4 704 points, which puts the 4 608-centre stencil
# of orders (9, 16) in seven calls, as many as one call per set.  A stencil
# of 288 centres (9 x 4) takes one call, one of 1 152 (9 x 8) two
_FD_CHUNK = 672
# most points of a stencil that keeps a polar form (32 bytes a point, 8 per
# kept profile): radial orders up to 36 at sphere order 16, where it saves
# verify at least about the share of wall time that it adds to peak RSS; from
# order 38 on, map_eval_many saves 1.4-1.8 times the share of RSS it costs
_POLAR_MAX_POINTS = 2**17


@dataclass(frozen=True)
class EnergyReport:
    """Value of an energy integral plus bookkeeping.

    ``radial_part`` and ``spherical_part`` are filled by the
    decomposition route and sum to ``value``; the FD route leaves them
    as None.  ``refinement_delta`` is the change in value when both
    quadrature orders are doubled, a cheap accuracy estimate.
    """

    value: float
    radial_part: float | None
    spherical_part: float | None
    quad_orders: tuple[int, int]
    refinement_delta: float | None


# radial order of reduced_energy, and the default orders of the energy routes
_RADIAL_ORDER = 64
_SPHERE_ORDER = 32


def _radial_rule(annulus: Annulus, order: int):
    """Nodes and weights of ``integral(g(t) dt)`` over the shell: Gauss-
    Legendre in ``s = log(t / r)``, with ``t = r e^s`` and ``dt = t ds``.
    The width and the nodes keep every digit on thin shells (see
    ``geometry._log_width`` and ``geometry._radii``)."""
    s, ws = gauss_legendre(0.0, _log_width(annulus), order)
    t = _radii(annulus, s)
    return t, ws * t


def _same_annulus(profile: SampledProfile, annulus: Annulus):
    if profile.grid.annulus != annulus:
        raise DomainError(f"profile sampled on {profile.grid.annulus!r}, not on {annulus!r}")


def _profile_quadrature(profile: RadialProfile, annulus: Annulus, order: int):
    """Radial quadrature triples (t, weight, H, H') for a profile.

    Sampled profiles take a two-point Gauss rule per interval on their
    piecewise-linear interpolant, with its slope as ``H'``.  That rule is
    exact where the integrand is a polynomial of degree at most 3 on each
    interval, as are ``t^2 H'^2`` and ``H^2``, so it serves the plain
    energy only; the weighted one is :func:`_sampled_weighted_integral`.
    Closed forms use :func:`_radial_rule`, Gauss in ``log t``, of the
    given order.
    """
    if isinstance(profile, SampledProfile):
        _same_annulus(profile, annulus)
        t = profile.grid.nodes
        dt = np.diff(t)
        slopes = np.diff(profile.values) / dt
        mid = 0.5 * (t[:-1] + t[1:])
        off = dt * (0.5 / math.sqrt(3.0))
        tq = np.concatenate([mid - off, mid + off])
        wq = np.concatenate([0.5 * dt, 0.5 * dt])
        return tq, wq, profile.eval(tq), np.concatenate([slopes, slopes])
    tq, wq = _radial_rule(annulus, order)
    # extreme radii overflow here; _radial_integral raises on the result
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return tq, wq, profile.eval(tq), profile.derivative(tq, 1)


# Taylor coefficients, highest degree first, of (sinh y - y) / y^3 in y^2 and
# of (e^-y - 1 + y) / y^2 in y; for |y| < 1 the terms left out are below 1e-16
# of either sum
_SINH_SERIES = [1.0 / math.factorial(2 * k + 3) for k in reversed(range(8))]
_EXP_SERIES = [(-1.0) ** k / math.factorial(k + 2) for k in reversed(range(17))]


def _sampled_weighted_integral(profile: SampledProfile, annulus: Annulus) -> float:
    """``integral(t^2 (H'/H)^2) dt`` of the piecewise-linear interpolant,
    in closed form on each interval.

    With ``H = alpha + s t`` on ``[t0, t1]``, ``h = t1 - t0``,
    ``u0 = H(t0)`` and ``u1 = H(t1)``, the interval contributes
    ``h (1 - 2 alpha log(u1 / u0) / (u1 - u0) + alpha^2 / (u0 u1))``.  Its
    three terms cancel when ``s t`` is small beside ``H``, so it is taken
    as ``h A + t0 (2 B + 4 k sinh^2(y / 2))``, ``y = log(u1 / u0)``,
    ``k = t0 / h``, ``A = 2 (sinh y - y) / expm1(y)`` and
    ``B = expm1(-y) + y``: three terms that are never negative, with
    ``A`` and ``B`` summed as Taylor series where ``|y| < 1``.

    A stack of profiles gives one integral per row, each summed alone and
    so with the bits of its own call.  Each interval forms only the branch
    of ``A`` and ``B`` that it takes, and the terms are summed in place.
    """
    _same_annulus(profile, annulus)
    t, u = profile.grid.nodes, profile.values
    t0, h = t[:-1], np.diff(t)
    # extreme profiles overflow here; _finite_radial raises on the result
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = np.diff(u)
        y /= u[..., :-1]
        np.log1p(y, out=y)
        small = np.abs(y) < 1.0
        a, b = np.empty_like(y), np.empty_like(y)
        for take, branches in ((small, _series_terms), (~small, _closed_terms)):
            a[take], b[take] = branches(y[take])
        # h A + t0 (2 B + 4 (t0 / h) sinh^2(y / 2)), each product in the
        # order of that formula but for the commuted factors
        half = np.multiply(y, 0.5, out=y)
        np.sinh(half, out=half)
        half *= half
        half *= 4.0 * (t0 / h)
        b *= 2.0
        b += half
        b *= t0
        a *= h
        a += b
        val = a.sum(axis=-1)
    return _finite_radial(val, float(t[0]), float(t[-1]))


def _series_terms(y: np.ndarray):
    """``A`` and ``B`` of :func:`_sampled_weighted_integral` as Taylor
    series, for ``|y| < 1``."""
    y2 = y * y
    # y / x is 1 where H is flat
    a = np.divide(y, np.expm1(y), out=np.ones_like(y), where=(y != 0.0))
    a *= 2.0 * y2
    a *= np.polyval(_SINH_SERIES, y2)
    b = np.polyval(_EXP_SERIES, y)
    b *= y2
    return a, b


def _closed_terms(y: np.ndarray):
    """``A`` and ``B`` of :func:`_sampled_weighted_integral` in closed
    form, for ``|y| >= 1`` and for ``y`` that is not a number."""
    a = np.sinh(y)
    a -= y
    a *= 2.0
    a /= np.expm1(y)
    b = np.expm1(-y)
    b += y
    return a, b


def _require_positive(h: np.ndarray, t: np.ndarray):
    # the node index of the first zero, of the first row that has one
    bad = np.nonzero(h <= 0.0)[-1]
    if bad.size:
        i = int(bad[0])
        raise EvaluationError(f"profile vanishes at radius t={t[i]!r} (node {i})")


def _radial_integral(t: np.ndarray, w: np.ndarray, g: np.ndarray) -> float:
    """``integral(t^2 g^2) dt`` by the rule ``(t, w)``, one per row of a
    stack of ``g``."""
    with np.errstate(over="ignore", invalid="ignore"):
        val = np.sum(w * (t**2 * g**2), axis=-1)
    return _finite_radial(val, float(t[0]), float(t[-1]))


def _finite_radial(val, lo: float, hi: float):
    """``val``, a radial integral over ``[lo, hi]`` or an array of them, one
    per row of a stack, if every one is finite: a Python float, or the
    array.

    Radii so large that ``t^2`` overflows, or so small that it underflows
    (a profile derivative ``b / t^2`` is then ``0 / 0`` or infinite), would
    give ``inf`` or ``nan``; they raise instead, naming which, with the
    first value that is not finite.
    """
    bad = np.flatnonzero(~np.isfinite(val))
    if bad.size:
        val = float(np.ravel(val)[bad[0]])
        if hi * hi == math.inf:
            cause = f"t^2 overflows at radii up to {hi:.6g}; the radii are too large"
        elif lo * lo < sys.float_info.min:
            cause = f"t^2 underflows at radii down to {lo:.6g}; the radii are too small"
        else:
            cause = f"(H'/H)^2 overflows on [{lo:.6g}, {hi:.6g}]; the profile is too steep"
        raise EvaluationError(f"radial energy integral is not finite ({val}): {cause} "
                              "for floating point")
    return val if np.ndim(val) else float(val)


def _weighted_radial(profile: RadialProfile, annulus: Annulus, order: int) -> float:
    """``integral(t^2 (H'/H)^2) dt`` over the shell: exact for a sampled
    profile, by the Gauss rule in ``log t`` of the given order for a
    closed form.  An exponential profile's ``H'/H`` is ``-b / t^2``, which
    stays in range where ``H`` and ``H'`` need not, so neither is formed."""
    if isinstance(profile, SampledProfile):
        return _sampled_weighted_integral(profile, annulus)
    t, w = _radial_rule(annulus, order)
    # extreme radii overflow here; _radial_integral raises on the result
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(profile, ExponentialProfile):
            log_slope = -profile.b / t**2
        else:
            h = profile.eval(t)
            _require_positive(h, t)
            log_slope = profile.derivative(t, 1) / h
    return _radial_integral(t, w, log_slope)


def reduced_energy(profile: RadialProfile, annulus: Annulus) -> float:
    """One-dimensional weighted energy of a radial profile,
    ``4 pi * integral(t^2 (H'/H)^2 + 2) dt``.

    This equals the weighted energy of the radial map built from the
    profile and an arbitrary Moebius rotation.  A closed form takes the
    Gauss rule in ``log t`` of order 64; a sampled profile is integrated
    exactly, as its piecewise-linear interpolant.

    The profile may be a stack: a :class:`SampledProfile` whose values hold
    the nodes on the last axis, or a closed form whose coefficient arrays
    broadcast against the radii with one more axis.  The energy is then an
    array of one per member, each with the bits of its own one-profile
    call, as each row is summed alone (a plain ``sum(axis=-1)``, not a
    BLAS product); the first member whose integral is not finite raises.
    """
    val = _weighted_radial(profile, annulus, _RADIAL_ORDER) + 2.0 * annulus.width
    return 4.0 * math.pi * val


def _sphere_factor(f: GeneralizedRadialMap, sphere_order: int) -> float:
    quad = make_sphere_quadrature(sphere_order)
    lam = conformal_stretch_points(f.rotation, quad.nodes)
    return float(np.sum(quad.weights * lam**2))


def _decomposed(f: GeneralizedRadialMap, pair: AnnulusPair, radial_order: int,
                sphere_order: int, weighted: bool):
    """``(radial, spherical, value)`` parts of the energy of a generalized
    radial map.  The radial part integrates ``t^2 (H'/H)^2`` (weighted)
    or ``t^2 H'^2``; the sphere factor is scaled by ``2 (R - r)`` or by
    ``2 integral(H^2)``."""
    if weighted:
        radial = 4.0 * math.pi * _weighted_radial(f.profile, pair.domain, radial_order)
        shell = 2.0 * pair.domain.width
    else:
        t, w, h, hd = _profile_quadrature(f.profile, pair.domain, radial_order)
        radial = 4.0 * math.pi * _radial_integral(t, w, hd)
        shell = 2.0 * float(np.sum(w * h**2))
    spherical = shell * _sphere_factor(f, sphere_order)
    return radial, spherical, radial + spherical


def _same(vals: np.ndarray) -> np.ndarray:
    return vals


def _fd_steps(t, width: float):
    """The FD step at radii ``t`` on a shell of the given width."""
    # at most 1e-5 of 64 shell widths: on a thin shell log H bends as 2 b / t^3,
    # with |b| up to log(R* / r*) r R / (R - r), and a step of 1e-5 t would set
    # the error; from R / r = 64 / 63 on the step is 1e-5 t
    return _FD_STEP * np.minimum(t, 64.0 * width)


class _Stencil(tuple):
    """An FD stencil, ``(centers, steps, two_steps, weights)``, which keeps
    its polar form, so that form lives as long as the stencil's cache
    entry."""

    @cached_property
    def polar(self):
        """The norm ``t`` and the unit vector ``p / t`` of each point ``p`` of
        the seven sets, computed as :func:`maps.map_eval_many` computes them,
        and a dict that keeps the values ``H(t)`` of at most two profiles
        (:func:`_profile_values`).  None, and nothing kept, if the sets hold
        more than ``_POLAR_MAX_POINTS`` points, or if a norm leaves the
        window where the sphere action skips its unit check
        (``sphere_maps._unit_safe``).

        The points are laid out as the weighted route's map calls: chunk by
        chunk of ``_FD_CHUNK`` centres, each chunk's seven sets one after
        another, so the ``n_sets * m`` points of a chunk of ``m`` centres are
        one contiguous span.  The arrays are read-only."""
        centers, steps, _, _ = self
        n = centers.shape[0]
        if 7 * n > _POLAR_MAX_POINTS:
            return None
        units = np.empty((3, 7 * n))
        for lo in range(0, n, _FD_CHUNK):
            hi = min(lo + _FD_CHUNK, n)
            _stencil_points(centers, steps, lo, hi, units[:, 7 * lo:7 * hi])
        # a norm beyond the float range is inf here, and no polar form is kept
        with np.errstate(over="ignore"):
            t = row_norms(units.T)
        if not _unit_safe(t):
            return None
        units /= t
        for a in (t, units):
            a.setflags(write=False)
        return t, units, {}


class _StencilCache:
    """The FD stencils kept, by shell and orders.  A stencil is built on its
    first request and kept among the last ``once`` stencils requested once;
    a second request moves it among the last ``kept`` stencils requested
    again, the least recently used going first.  So shells requested once,
    as the harmonic row's twenty, pass through without evicting the two
    stencils that the competitor and inversion rows request again and
    again.  ``builds`` counts the stencils built."""

    def __init__(self, build, kept: int, once: int):
        self._build, self._kept_size, self._once_size = build, kept, once
        self._kept, self._once = {}, {}
        self._lock = threading.Lock()
        self.builds = 0

    def __call__(self, annulus: Annulus, radial_order: int, sphere_order: int) -> _Stencil:
        key = (annulus, radial_order, sphere_order)
        with self._lock:
            stencil = self._kept.pop(key, None) or self._once.pop(key, None)
            if stencil is None:
                stencil, tier, size = self._build(*key), self._once, self._once_size
                self.builds += 1
            else:
                tier, size = self._kept, self._kept_size
            tier[key] = stencil
            if len(tier) > size:
                del tier[next(iter(tier))]
        return stencil

    def cache_clear(self):
        with self._lock:
            self._kept.clear()
            self._once.clear()


def _build_stencil(annulus: Annulus, radial_order: int, sphere_order: int) -> _Stencil:
    """The FD route's stencil on a shell: its centres, a column-major
    ``(N, 3)`` product of the radial rule and the sphere rule, the step
    at each centre and twice that step, and the quadrature weight of each
    centre.  Built once per shell and orders and kept by
    :data:`_fd_stencil`; every array is read-only.  Weights beyond the
    float range raise :class:`EvaluationError`, with no numpy warning."""
    t, wt = _radial_rule(annulus, radial_order)
    quad = make_sphere_quadrature(sphere_order)
    n_sphere = quad.weights.size
    centers = np.empty((t.size * n_sphere, 3), order="F")
    for k in range(3):
        np.multiply.outer(t, quad.nodes[:, k], out=centers[:, k].reshape(t.size, n_sphere))
    steps = np.repeat(_fd_steps(t, annulus.width), n_sphere)
    two_steps = 2.0 * steps
    # w t^2 grows as t^3
    with np.errstate(over="ignore"):
        weights = (wt[:, None] * t[:, None] ** 2 * quad.weights[None, :]).ravel()
    if weights.max() == math.inf:
        raise EvaluationError(f"finite-difference quadrature weights w t^2 overflow at radii "
                              f"up to {float(t[-1]):.6g}; the radii are too large for "
                              "floating point")
    for a in (centers, steps, two_steps, weights):
        a.setflags(write=False)
    return _Stencil((centers, steps, two_steps, weights))


_fd_stencil = _StencilCache(_build_stencil, kept=2, once=2)


def _stencil_points(centers: np.ndarray, steps: np.ndarray, lo: int, hi: int,
                    out: np.ndarray) -> np.ndarray:
    """Write the point sets of centres ``lo:hi`` to ``out``, read as axes
    coordinate, set, node: ``+e_k`` and ``-e_k`` for each axis, then the
    centres, or only the first six sets where ``out`` holds six."""
    blocks = out.reshape(3, -1, hi - lo)
    np.copyto(blocks, centers[lo:hi].T[:, None])
    for k in range(3):
        blocks[k, 2 * k] += steps[lo:hi]
        blocks[k, 2 * k + 1] -= steps[lo:hi]
    return blocks


def _profile_values(polar, profile: RadialProfile) -> np.ndarray:
    """``H(t)`` on every point of a polar form.  A closed form's values are
    read-only and kept with the polar form for at most two profiles, as the
    inversion row alternates two minimizers; the oldest goes first.  A
    sampled profile's are not kept, as its ``values`` array is writable."""
    t, _, kept = polar
    if not isinstance(profile, _ClosedFormProfile):
        return profile.eval(t)
    h = kept.get(profile)
    if h is None:
        h = profile.eval(t)
        h.setflags(write=False)
        for old in list(kept)[:-1]:
            kept.pop(old, None)
        kept[profile] = h
    return h


def _fd_energies(f: AnnulusMap, pair: AnnulusPair, radial_order: int, sphere_order: int,
                 weighted: bool, views=(_same,)) -> list[float]:
    """FD energies of ``view(f)`` for each ``view`` of the map values,
    all differentiated from one evaluation of ``f`` on the stencil.

    The stencil (:func:`_fd_stencil`) has seven point sets of ``N`` points:
    ``+e_k`` and ``-e_k`` for each axis, then the centres, which only the
    weighted route evaluates.  The map gets them ``_FD_CHUNK`` centres at
    a time, all six or seven sets of the chunk in one call, so every call
    holds whole ``+-e_k`` pairs.  Each view runs once on a chunk's pairs,
    and their differences, squared norms and density sums take one numpy
    call for all of them.  A view acts row by row, so the bits are those
    of one set at a time, and each node's density adds its pairs in the
    order ``+x, +y, +z``.  The centres' values are kept until every chunk
    is differenced; their views and norm checks then run view by view, so
    a view error still raises before any centre's norm check.  An error of
    the evaluator itself comes in chunk order, so it can precede a view
    error on a set of a later chunk.

    Point batches are column-major, so each coordinate of the nodes is
    one contiguous column, and shifts, differences and squared norms run
    column by column.  An evaluator may return either layout, with the
    same bits.  Each chunk's points, differences and squared norms are
    fresh arrays.  An image norm or an energy beyond the float range
    raises :class:`EvaluationError`, with no numpy warning.

    A :class:`GeneralizedRadialMap` is evaluated from the stencil's polar
    form instead, where there is one: each chunk's image is
    ``sphere_maps._apply_to_units`` of the kept unit vectors and the
    profile values (:func:`_profile_values`), with the affine rows, the
    image and their scratch in one buffer kept for the energy, and the
    action's Lorentz matrix fetched once per energy.  These are
    ``map_eval_many``'s steps on the same points, each point by point, so
    the values have its bits.  Such a map's action cannot raise; a sampled
    profile's domain error comes before any chunk is differenced.
    """
    stencil = _fd_stencil(pair.domain, radial_order, sphere_order)
    centers, steps, two_steps, weights = stencil
    n = centers.shape[0]
    n_sets = 7 if weighted else 6
    polar = stencil.polar if isinstance(f, GeneralizedRadialMap) else None
    chunk = min(n, _FD_CHUNK)
    density = np.empty((len(views), n))
    vals = np.empty((n, 3), order="F") if weighted else None   # the centres' values
    # profile values and images near the float maximum overflow here; the
    # checks below raise
    with np.errstate(over="ignore", invalid="ignore"):
        if polar is not None:
            _, units, _ = polar
            h = _profile_values(polar, f.profile)
            # the affine rows of the sphere action, the image in rows 1-3, and
            # their scratch, kept for every chunk, as fresh rows read 0.1-0.3 MB
            # more peak RSS; the action's matrix, fetched once for every chunk
            rows = np.empty((2, 4, n_sets * chunk))
            lor = _lorentz(f.rotation)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            m = hi - lo
            if polar is None:
                points = _stencil_points(centers, steps, lo, hi, np.empty((3, n_sets * m)))
                batch = map_eval_many(f, points.reshape(3, -1).T)
            else:
                span = slice(7 * lo, 7 * lo + n_sets * m)
                batch = _apply_to_units(f.rotation, units[:, span].T, h[span], True,
                                        *rows[:, :, :n_sets * m], lor=lor)
            if weighted:
                vals[lo:hi] = batch[6 * m:]
            for view, dens in zip(views, density):
                # rows +e_0, -e_0, +e_1, -e_1, +e_2, -e_2 of m each
                block = view(batch[:6 * m]).T.reshape(3, 3, 2, m)
                d = block[:, :, 0] - block[:, :, 1]
                d /= two_steps[lo:hi]
                pairs = _squared_norms(d.reshape(3, -1).T).reshape(3, m)
                # each node's sum 0 + x + y + z, as 0 + x is x
                part = np.add(pairs[0], pairs[1], out=dens[lo:hi])
                part += pairs[2]
        if weighted:
            for view, dens in zip(views, density):
                sq = _squared_norms(view(vals))
                bad = np.nonzero(~np.isfinite(sq) | (sq <= 1e-300))[0]
                if bad.size:
                    i = int(bad[0])
                    what = "vanished" if sq[i] <= 1e-300 else "left the float range"
                    raise EvaluationError(
                        f"image norm {what} at quadrature node {i}, "
                        f"x={centers[i].tolist()}"
                    )
                dens /= sq
        energies = [float(np.sum(weights * dens)) for dens in density]
    for value in energies:
        if not math.isfinite(value):
            raise EvaluationError(f"finite-difference energy is not finite ({value}): the "
                                  "map's differences leave the float range")
    return energies


def _energy(f: AnnulusMap, pair: AnnulusPair, radial_order: int, sphere_order: int,
            refine: bool, weighted: bool) -> EnergyReport:
    if radial_order < 2 or sphere_order < 2:
        raise ValueError("quadrature orders must be at least 2")

    def parts(ro, so):
        if isinstance(f, GeneralizedRadialMap):
            return _decomposed(f, pair, ro, so, weighted)
        return None, None, _fd_energies(f, pair, ro, so, weighted)[0]

    radial, spherical, value = parts(radial_order, sphere_order)
    delta = abs(parts(2 * radial_order, 2 * sphere_order)[2] - value) if refine else None
    return EnergyReport(value, radial, spherical, (radial_order, sphere_order), delta)


def weighted_energy(f: AnnulusMap, pair: AnnulusPair, radial_order: int = _RADIAL_ORDER,
                    sphere_order: int = _SPHERE_ORDER, refine: bool = True) -> EnergyReport:
    """Weighted Dirichlet energy ``integral(|Df|^2 / |f|^2)`` over the
    domain annulus."""
    return _energy(f, pair, radial_order, sphere_order, refine, True)


def dirichlet_energy(f: AnnulusMap, pair: AnnulusPair, radial_order: int = _RADIAL_ORDER,
                     sphere_order: int = _SPHERE_ORDER, refine: bool = True) -> EnergyReport:
    """Plain Dirichlet energy ``integral(|Df|^2)`` over the domain
    annulus."""
    return _energy(f, pair, radial_order, sphere_order, refine, False)


@lru_cache(maxsize=4)
def _min_weighted_energy(pair: AnnulusPair) -> Fraction:
    """The weighted minimum over ``4 pi``, exact on the float radii and
    the float ``log(R_star / r_star)``; kept for the pair's next call."""
    # in integers, over one denominator: with r = r_n / r_d, R = R_n / R_d,
    # ell = l_n / l_d and R - r = w / (r_d R_d) the sum is
    # (2 w^2 l_d^2 + r_n R_n l_n^2 r_d R_d) / (r_d R_d l_d^2 w)
    (r, r_d), (R, R_d) = pair.r.as_integer_ratio(), pair.R.as_integer_ratio()
    ell, l_d = _log_width(pair.target).as_integer_ratio()
    w_d, l_d2 = r_d * R_d, l_d * l_d
    w = R * r_d - r * R_d
    return Fraction(2 * w * w * l_d2 + r * R * ell * ell * w_d, w_d * l_d2 * w)


def analytic_min_weighted_energy(pair: AnnulusPair) -> float:
    """Minimum of the weighted energy over homeomorphisms between the
    shells of a pair:

    ``4 pi (2 (R - r) + r R log^2(R_star / r_star) / (R - r))``, exact
    on the float radii and rounded once; ``inf`` beyond the float range.
    """
    return _four_pi_times(_min_weighted_energy(pair))


def dirichlet_lower_bound(pair: AnnulusPair) -> float:
    """Lower bound for the plain Dirichlet energy of shell
    homeomorphisms.

    Since ``|f| >= r_star`` on the domain,
    ``integral(|Df|^2) >= r_star^2 * integral(|Df|^2 / |f|^2)``, and the
    right side is at least ``r_star^2`` times the weighted minimum.  The
    bound is strictly below the harmonic-map energy whenever the latter
    exists.  Exact on the float radii and rounded once, it is ``inf``
    beyond the float range and rounds toward 0 below it.
    """
    exact = _min_weighted_energy(pair)
    rs, rs_d = pair.r_star.as_integer_ratio()
    return _four_pi_times(Fraction(rs * rs * exact.numerator, rs_d * rs_d * exact.denominator))

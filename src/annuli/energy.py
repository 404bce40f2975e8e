"""Energy functionals of annulus mappings.

Two quadrature routes coexist on purpose.  Generalized radial maps split
into a radial integral and a sphere integral (the decomposition route);
arbitrary sampled maps go through a full 3-D tensor rule with central
finite differences (the FD route).  Cross-checking the two is one of the
main verification tools, so neither is allowed to call the other.

The FD route evaluates a map once per stencil point.  For the inversion
check, ``f`` and its composition with ``y -> a y / |y|^2`` are
differentiated from that one set of samples.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .geometry import Annulus, AnnulusPair, _log_ratio, gauss_legendre, make_sphere_quadrature
from .maps import (
    AnnulusMap,
    GeneralizedRadialMap,
    RadialProfile,
    SampledProfile,
    _FD_STEP,
    map_eval_many,
)
from .sphere_maps import conformal_stretch_points


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


def _profile_quadrature(profile: RadialProfile, annulus: Annulus, order: int):
    """Radial quadrature triples (t, weight, H, H') for a profile.

    Sampled profiles integrate their piecewise-linear interpolant
    exactly with a two-point rule per interval; closed forms use a
    single global Gauss rule.
    """
    if isinstance(profile, SampledProfile):
        t = profile.grid.nodes
        dt = np.diff(t)
        slopes = np.diff(profile.values) / dt
        mid = 0.5 * (t[:-1] + t[1:])
        off = dt * (0.5 / math.sqrt(3.0))
        tq = np.concatenate([mid - off, mid + off])
        hq = np.concatenate([profile.values[:-1] + (mid - off - t[:-1]) * slopes,
                             profile.values[:-1] + (mid + off - t[:-1]) * slopes])
        hdq = np.concatenate([slopes, slopes])
        wq = np.concatenate([0.5 * dt, 0.5 * dt])
        return tq, wq, hq, hdq
    tq, wq = gauss_legendre(annulus.inner, annulus.outer, order)
    # extreme radii overflow here; _radial_integral raises on the result
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return tq, wq, profile.eval(tq), profile.derivative(tq, 1)


def _require_positive(h: np.ndarray, t: np.ndarray):
    bad = np.nonzero(h <= 0.0)[0]
    if bad.size:
        i = int(bad[0])
        raise EvaluationError(f"profile vanishes at radius t={t[i]!r} (node {i})")


def _radial_integral(t: np.ndarray, w: np.ndarray, g: np.ndarray) -> float:
    """``integral(t^2 g^2) dt`` by the rule ``(t, w)``.

    Radii so large that ``t^2`` overflows, or so small that it underflows
    (a profile derivative ``b / t^2`` is then ``0 / 0`` or infinite), would
    give ``inf`` or ``nan``; they raise instead, naming which.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        val = float(w @ (t**2 * g**2))
    if not math.isfinite(val):
        lo, hi = float(t[0]), float(t[-1])
        if hi * hi == math.inf:
            cause = f"t^2 overflows at radii up to {hi:.6g}; the radii are too large"
        elif lo * lo < sys.float_info.min:
            cause = f"t^2 underflows at radii down to {lo:.6g}; the radii are too small"
        else:
            cause = f"(H'/H)^2 overflows on [{lo:.6g}, {hi:.6g}]; the profile is too steep"
        raise EvaluationError(f"radial energy integral is not finite ({val}): {cause} "
                              "for floating point")
    return val


def reduced_energy(profile: RadialProfile, annulus: Annulus, radial_order: int = 64) -> float:
    """One-dimensional weighted energy of a radial profile,
    ``4 pi * integral(t^2 (H'/H)^2 + 2) dt``.

    This equals the weighted energy of the radial map built from the
    profile and an arbitrary Moebius rotation.
    """
    t, w, h, hd = _profile_quadrature(profile, annulus, radial_order)
    _require_positive(h, t)
    val = _radial_integral(t, w, hd / h) + 2.0 * annulus.width
    return 4.0 * math.pi * val


def _sphere_factor(f: GeneralizedRadialMap, sphere_order: int) -> float:
    quad = make_sphere_quadrature(sphere_order)
    lam = conformal_stretch_points(f.rotation, quad.nodes)
    return float(quad.weights @ lam**2)


def _decomposed(f: GeneralizedRadialMap, pair: AnnulusPair, radial_order: int,
                sphere_order: int, weighted: bool):
    """``(radial, spherical, value)`` parts of the energy of a generalized
    radial map.  The radial part integrates ``t^2 (H'/H)^2`` (weighted)
    or ``t^2 H'^2``; the sphere factor is scaled by ``2 (R - r)`` or by
    ``2 integral(H^2)``."""
    t, w, h, hd = _profile_quadrature(f.profile, pair.domain, radial_order)
    if weighted:
        _require_positive(h, t)
    radial = 4.0 * math.pi * _radial_integral(t, w, hd / h if weighted else hd)
    shell = 2.0 * pair.domain.width if weighted else 2.0 * float(w @ h**2)
    spherical = shell * _sphere_factor(f, sphere_order)
    return radial, spherical, radial + spherical


def _same(vals: np.ndarray) -> np.ndarray:
    return vals


def _fd_energies(f: AnnulusMap, pair: AnnulusPair, radial_order: int, sphere_order: int,
                 weighted: bool, views=(_same,)) -> list[float]:
    """FD energies of ``view(f)`` for each ``view`` of the map values,
    all differentiated from one evaluation of ``f`` on the stencil.

    The stencil is walked one axis at a time (``+e_k`` and ``-e_k``, then
    the centres) rather than in one call over all seven shifts, whose
    arrays would be seven times larger and fall out of cache.
    """
    t, wt = gauss_legendre(pair.domain.inner, pair.domain.outer, radial_order)
    quad = make_sphere_quadrature(sphere_order)
    centers = (t[:, None, None] * quad.nodes[None, :, :]).reshape(-1, 3)
    steps = np.repeat(_FD_STEP * t, quad.nodes.shape[0])
    density = np.zeros((len(views), centers.shape[0]))
    for k in range(3):
        shift = np.zeros(3)
        shift[k] = 1.0
        plus = map_eval_many(f, centers + steps[:, None] * shift)
        minus = map_eval_many(f, centers - steps[:, None] * shift)
        for view, dens in zip(views, density):
            dk = (view(plus) - view(minus)) / (2.0 * steps[:, None])
            dens += np.einsum("ij,ij->i", dk, dk)
    if weighted:
        vals = map_eval_many(f, centers)
        for view, dens in zip(views, density):
            image = view(vals)
            nsq = np.einsum("ij,ij->i", image, image)
            bad = np.nonzero(~np.isfinite(nsq) | (nsq <= 1e-300))[0]
            if bad.size:
                i = int(bad[0])
                raise EvaluationError(
                    f"image norm vanished at quadrature node {i}, x={centers[i].tolist()}"
                )
            dens /= nsq
    weights = (wt[:, None] * t[:, None] ** 2 * quad.weights[None, :]).ravel()
    return [float(weights @ dens) for dens in density]


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


def weighted_energy(f: AnnulusMap, pair: AnnulusPair, radial_order: int = 64,
                    sphere_order: int = 32, refine: bool = True) -> EnergyReport:
    """Weighted Dirichlet energy ``integral(|Df|^2 / |f|^2)`` over the
    domain annulus."""
    return _energy(f, pair, radial_order, sphere_order, refine, True)


def dirichlet_energy(f: AnnulusMap, pair: AnnulusPair, radial_order: int = 64,
                     sphere_order: int = 32, refine: bool = True) -> EnergyReport:
    """Plain Dirichlet energy ``integral(|Df|^2)`` over the domain
    annulus."""
    return _energy(f, pair, radial_order, sphere_order, refine, False)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_min_weighted_energy(pair: AnnulusPair) -> float:
    """Log of the weighted minimum, finite for every valid pair: each
    term of the sum is taken in logs."""
    r, R = pair.r, pair.R
    terms = [math.log(2.0) + math.log(R - r)]
    ell = abs(_log_ratio(pair.R_star, pair.r_star))
    if ell > 0.0:
        terms.append(math.log(r) + math.log(R) + 2.0 * math.log(ell) - math.log(R - r))
    hi = max(terms)
    return math.log(4.0 * math.pi) + hi + math.log(sum(math.exp(x - hi) for x in terms))


def analytic_min_weighted_energy(pair: AnnulusPair) -> float:
    """Minimum of the weighted energy over homeomorphisms between the
    shells of a pair:

    ``4 pi (2 (R - r) + r R log^2(R_star / r_star) / (R - r))``.
    A minimum beyond the float range is ``inf``.
    """
    r, R = pair.r, pair.R
    ell = _log_ratio(pair.R_star, pair.r_star)
    value = 4.0 * math.pi * (2.0 * (R - r) + r * R * ell * ell / (R - r))
    if math.isfinite(value):
        return value
    # r * R overflows for extreme radii; the minimum itself may not
    return _exp_or_inf(_log_min_weighted_energy(pair))


def dirichlet_lower_bound(pair: AnnulusPair) -> float:
    """Lower bound for the plain Dirichlet energy of shell
    homeomorphisms.

    Since ``|f| >= r_star`` on the domain,
    ``integral(|Df|^2) >= r_star^2 * integral(|Df|^2 / |f|^2)``, and the
    right side is at least ``r_star^2`` times the weighted minimum.  The
    bound is strictly below the harmonic-map energy whenever the latter
    exists.  A bound beyond the float range is ``inf``; one below it is 0.
    """
    try:
        scale = pair.r_star**2
    except OverflowError:
        scale = math.inf
    bound = scale * analytic_min_weighted_energy(pair)
    if 0.0 < bound < math.inf:
        return bound
    # a factor left the float range; the product need not have
    return _exp_or_inf(2.0 * math.log(pair.r_star) + _log_min_weighted_energy(pair))

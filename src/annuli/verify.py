"""End-to-end verification checks with machine-readable results.

Every check compares an independently computed quantity against a
closed form or a structural bound, records the outcome in a
:class:`CheckResult`, and never raises on a mere numerical failure.
Each check takes one :class:`VerifyConfig`, the only holder of every
setting a caller can change.  ``run_suite`` executes the five checks in
a fixed order, so two runs with the same configuration produce
byte-identical serialized reports (wall time is reported separately,
not serialized).
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .energy import (
    _fd_energies,
    _same,
    analytic_min_weighted_energy,
    dirichlet_energy,
    dirichlet_lower_bound,
    reduced_energy,
    weighted_energy,
)
from .errors import ConfigError
from .geometry import (
    Annulus,
    AnnulusPair,
    _log_ratio,
    make_radial_grid,
    make_sphere_quadrature,
    row_norms,
    tangent_frames,
)
from .maps import (
    ExponentialProfile,
    GeneralizedRadialMap,
    HarmonicProfile,
    SampledMap,
    as_sampled_map,
    exp_profile_from_boundary,
    perturbed_profile,
    sphere_inversion,
)
from .nitsche import (
    analytic_dirichlet_energy_radial,
    harmonic_profile_monotone,
    harmonic_radial_bvp,
    nitsche_condition,
)
from .sphere_maps import (
    MobiusTransform,
    mobius_apply_points,
    mobius_pushforward,
    random_mobius,
    sphere_inequality_integral,
)
from .variational import (
    discrete_reduced_energy,
    el_residual,
    minimize_reduced_energy,
    reduced_energy_gradient,
    weighted_harmonic_residual,
)

EIGHT_PI = 8.0 * math.pi
# quadrature orders of the finite-difference energy route, its relative
# tolerance, and the tolerance of the pointwise residual identities
_FD_RADIAL_ORDER = 32
_FD_SPHERE_ORDER = 16
_FD_ENERGY_REL_TOL = 1e-4
_RESIDUAL_TOL = 1e-9
# tolerance of the checks against closed forms evaluated by quadrature
_CLOSED_FORM_TOL = 1e-8
# sample counts: competitor profiles, maps composed with an inversion,
# random Moebius transforms, non-conformal sphere maps, random pairs
_N_COMPETITORS = 50
_N_INVERSION_MAPS = 50
_N_TRANSFORMS = 20
_N_PERTURBATIONS = 20
_N_PAIRS = 1000
DEFAULT_PAIR = AnnulusPair.from_radii(1.0, 2.0, 1.0, math.e)


@dataclass(frozen=True)
class CheckResult:
    """One verified statement.

    For equality checks ``passed`` means
    ``|observed - expected| <= tolerance``; one-sided checks say so in
    ``detail`` and fill ``expected`` with the bound.
    """

    name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float
    detail: str = ""


def _equality(name: str, observed: float, expected: float, tolerance: float,
              detail: str = "") -> CheckResult:
    ok = math.isfinite(observed) and abs(observed - expected) <= tolerance
    return CheckResult(name, bool(ok), float(observed), float(expected),
                       float(tolerance), detail)


def _lower_bound(name: str, observed: float, bound: float, slack: float,
                 detail: str = "") -> CheckResult:
    ok = math.isfinite(observed) and observed >= bound - slack
    text = detail + ("; " if detail else "") + "one-sided: observed >= expected - tolerance"
    return CheckResult(name, bool(ok), float(observed), float(bound), float(slack), text)


@dataclass(frozen=True)
class VerifyConfig:
    """Pair, seed, quadrature orders and grid size of the verification
    suite."""

    pair: AnnulusPair = DEFAULT_PAIR
    seed: int = 42
    radial_order: int = 64
    sphere_order: int = 32
    grid_n: int = 1000

    def __post_init__(self):
        for name in ("seed", "radial_order", "sphere_order", "grid_n"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ConfigError(f"verify config field {name!r} must be an integer")
            if v < 0:
                raise ConfigError(f"verify config field {name!r} must be nonnegative")
        if self.grid_n < 8:
            raise ConfigError("verify config field 'grid_n' must be at least 8")
        if self.radial_order < 2 or self.sphere_order < 2:
            raise ConfigError("verify config orders must be at least 2")


@dataclass
class SuiteReport:
    """All results of one suite run plus the seed that produced them."""

    results: list[CheckResult]
    seed: int
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def rows(self) -> list[dict]:
        """Deterministic serialization; excludes wall time on purpose so
        repeat runs compare byte-identical."""
        return [asdict(r) for r in self.results]


# ---------------------------------------------------------------------------
# Random problem generators.


_MIN_RATIO = 1.02   # least R / r and R* / r* of a random pair


def random_annulus_pair(rng: np.random.Generator, low: float = 0.1,
                        high: float = 10.0) -> AnnulusPair:
    """Random pair with radii log-uniform in ``[low, high]``.

    Rejection enforces ``R / r >= 1.02`` and ``R* / r* >= 1.02``; both
    ratios are at most ``high / low`` (100 by default).  A draw passes
    with probability ``(1 - log 1.02 / log(high / low))^4``, so unless
    ``0 < low < high < inf`` and ``high / low >= 1.02^2``, where that is
    at least 1/16, it raises :class:`ValueError` before drawing.
    """
    if not (0.0 < low < high < math.inf and high / low >= _MIN_RATIO**2):
        raise ValueError(f"random pair needs 0 < low < high < inf and high / low >= "
                         f"{_MIN_RATIO}^2, got low = {low!r}, high = {high!r}")
    lo, hi = math.log(low), math.log(high)
    while True:
        vals = np.exp(rng.uniform(lo, hi, size=4))
        r, R = sorted(vals[:2])
        rs, Rs = sorted(vals[2:])
        if R / r < _MIN_RATIO or Rs / rs < _MIN_RATIO:
            continue
        return AnnulusPair.from_radii(r, R, rs, Rs)


def random_admissible_pair(rng: np.random.Generator) -> AnnulusPair:
    """Random pair satisfying the Nitsche admissibility condition."""
    while True:
        pair = random_annulus_pair(rng)
        if nitsche_condition(pair).admissible:
            return pair


def _modulated_minimizer(pair: AnnulusPair, rot: MobiusTransform,
                         factor: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> SampledMap:
    """Map ``x -> H(t) factor(t, eta) rot(eta)``, with ``t = |x|``,
    ``eta = x / t`` and ``H`` the increasing minimizer profile."""
    base = exp_profile_from_boundary(pair, "increasing")

    def evaluator(points: np.ndarray) -> np.ndarray:
        t = row_norms(points)
        units = points / t[:, None]
        return (base.eval(t) * factor(t, units))[:, None] * mobius_apply_points(rot, units)

    return SampledMap(evaluator=evaluator)


def _smooth_bump_map(pair: AnnulusPair, rng: np.random.Generator) -> SampledMap:
    """Radial map with a smooth multiplicative sine bump on the
    increasing minimizer profile and a random sphere rotation."""
    rot = random_mobius(rng)
    amp = rng.uniform(0.05, 0.3)
    mode = int(rng.integers(1, 4))
    r, width = pair.r, pair.domain.width
    return _modulated_minimizer(
        pair, rot, lambda t, units: 1.0 + amp * np.sin(mode * np.pi * (t - r) / width))


def _angular_competitor(pair: AnnulusPair, rng: np.random.Generator) -> SampledMap:
    """Admissible non-radial competitor: the increasing minimizer with a
    seeded angular modulation that vanishes on both boundary spheres."""
    rot = random_mobius(rng)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    ell = _log_ratio(pair.R_star, pair.r_star)
    cap = 0.4 * ell * pair.r / (math.pi * pair.R)
    amp = rng.uniform(0.3, 1.0) * cap
    r, width = pair.r, pair.domain.width
    return _modulated_minimizer(
        pair, rot, lambda t, units: 1.0 + amp * np.sin(np.pi * (t - r) / width) * (units @ axis))


# ---------------------------------------------------------------------------
# Checks.


def check_minimal_energy(config: VerifyConfig) -> list[CheckResult]:
    """Minimal-energy value, minimizer structure, and the lower bound
    against perturbed competitors."""
    pair = config.pair
    rng = np.random.default_rng([config.seed, 1])
    results: list[CheckResult] = []
    target = analytic_min_weighted_energy(pair)

    transforms = [MobiusTransform.identity()] + [random_mobius(rng) for _ in range(3)]
    worst = 0.0
    for orientation in ("increasing", "decreasing"):
        profile = exp_profile_from_boundary(pair, orientation)
        for t in transforms:
            rep = weighted_energy(GeneralizedRadialMap(profile, t), pair,
                                  config.radial_order, config.sphere_order, refine=False)
            worst = max(worst, abs(rep.value - target) / target)
    results.append(_equality(
        "minimal-energy-analytic-vs-numeric", worst, 0.0, _CLOSED_FORM_TOL,
        "max relative gap over both minimizers and 4 rotations"))

    inc = exp_profile_from_boundary(pair, "increasing")
    dec = exp_profile_from_boundary(pair, "decreasing")
    ts = np.linspace(pair.r, pair.R, 101)
    prod_err = float(np.max(np.abs(inc.eval(ts) * dec.eval(ts) - pair.r_star * pair.R_star)))
    results.append(_equality(
        "minimizer-profiles-multiply-to-constant", prod_err, 0.0,
        1e-12 * pair.r_star * pair.R_star))

    n_angular = _N_COMPETITORS // 3
    n_radial = _N_COMPETITORS - n_angular
    grid = make_radial_grid(pair.domain, 200)
    min_gap = math.inf
    for i in range(n_radial):
        amp = rng.uniform(0.02, 0.5)
        mode = int(rng.integers(1, 5))
        prof = perturbed_profile(inc, amp, mode, seed=int(rng.integers(2**31)), grid=grid)
        e = reduced_energy(prof, pair.domain, config.radial_order)
        min_gap = min(min_gap, e - target)
    for i in range(n_angular):
        f = _angular_competitor(pair, rng)
        rep = weighted_energy(f, pair, _FD_RADIAL_ORDER, _FD_SPHERE_ORDER, refine=False)
        min_gap = min(min_gap, rep.value - target)
    results.append(_lower_bound(
        "competitor-energies-above-minimum", min_gap, 0.0, 1e-6,
        f"{n_radial} radial and {n_angular} angular perturbations"))

    gaps = []
    grid_n = config.grid_n
    for n in (grid_n // 4, grid_n // 2, grid_n):
        sol = minimize_reduced_energy(pair, make_radial_grid(pair.domain, n))
        gaps.append(sol.energy - target)
    monotone = all(g2 <= g1 + 1e-12 * target for g1, g2 in zip(gaps, gaps[1:]))
    above = all(g >= -1e-9 * target for g in gaps)
    final_ok = gaps[-1] <= 1e-5 * target
    results.append(CheckResult(
        "discrete-minimum-converges-from-above",
        bool(monotone and above and final_ok),
        gaps[-1] / target, 0.0, 1e-5,
        "energy gaps decrease and stay nonnegative under grid refinement"))
    return results


def check_inversion_invariance(config: VerifyConfig) -> list[CheckResult]:
    """Weighted energy is unchanged by composing with ``y -> a y / |y|^2``.

    The composed map always goes through the finite-difference route;
    other maps are differentiated from the same stencil samples as
    their composition.  Generalized radial maps take the decomposition
    route for their own energy, so only their composition is
    differentiated, and the check doubles as a cross-check of the two
    quadrature paths; the tolerance is twice the FD energy tolerance,
    one per route.
    """
    pair = config.pair
    orders = (_FD_RADIAL_ORDER, _FD_SPHERE_ORDER)
    rng = np.random.default_rng([config.seed, 2])
    scales = (0.5, 1.0, pair.r_star * pair.R_star)
    worst = 0.0
    for i in range(_N_INVERSION_MAPS):
        kind = i % 3
        if kind == 0:
            orientation = "increasing" if i % 2 == 0 else "decreasing"
            f = GeneralizedRadialMap(exp_profile_from_boundary(pair, orientation),
                                     random_mobius(rng))
        elif kind == 1:
            # smooth radial bump; piecewise-linear profiles would put
            # kinks under the global radial quadrature of the
            # finite-difference route and drown the comparison
            f = _smooth_bump_map(pair, rng)
        else:
            f = _angular_competitor(pair, rng)
        invert = sphere_inversion(scales[i % len(scales)])
        if kind == 0:
            # the decomposition route gives the energy of f itself
            e_f = weighted_energy(f, pair, *orders, refine=False).value
            [e_g] = _fd_energies(f, pair, *orders, True, (invert,))
        else:
            e_f, e_g = _fd_energies(f, pair, *orders, True, (_same, invert))
        worst = max(worst, abs(e_f - e_g) / max(abs(e_f), 1.0))
    return [_equality("inversion-invariance-of-weighted-energy", worst, 0.0,
                      2.0 * _FD_ENERGY_REL_TOL,
                      f"{_N_INVERSION_MAPS} maps at scales 0.5; 1; r*R*")]


def check_sphere_inequality(config: VerifyConfig) -> list[CheckResult]:
    """Tangential shell energy: exactly ``8 pi`` for Moebius transforms,
    strictly larger for non-conformal surjections, and the mapped area
    identity ``4 pi``."""
    rng = np.random.default_rng([config.seed, 3])
    quad = make_sphere_quadrature(config.sphere_order)
    results = []

    transforms = [MobiusTransform.identity()]
    transforms += [random_mobius(rng) for _ in range(_N_TRANSFORMS)]
    # the shell integral is scale invariant, so one radius covers all
    worst = max(abs(sphere_inequality_integral(t, 1.0, quad) - EIGHT_PI) for t in transforms)
    results.append(_equality("shell-energy-sharp-at-mobius", worst, 0.0, _CLOSED_FORM_TOL,
                             f"{len(transforms)} transforms on the unit shell"))

    u, v = tangent_frames(quad.nodes)
    worst_area = 0.0
    for t in transforms:
        du = mobius_pushforward(t, quad.nodes, u)
        dv = mobius_pushforward(t, quad.nodes, v)
        area = float(quad.weights @ row_norms(np.cross(du, dv)))
        worst_area = max(worst_area, abs(area - 4.0 * math.pi))
    results.append(_equality("mapped-area-identity", worst_area, 0.0, _CLOSED_FORM_TOL,
                             "integral of the gram determinant over the sphere"))

    min_excess = math.inf
    for _ in range(_N_PERTURBATIONS):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        amp = rng.uniform(0.15, 0.35)

        def stretch(etas, axis=axis, amp=amp):
            out = etas + amp * (etas @ axis)[:, None] * axis[None, :]
            return out / row_norms(out)[:, None]

        min_excess = min(min_excess, sphere_inequality_integral(stretch, 1.0, quad) - EIGHT_PI)
    results.append(_lower_bound("shell-energy-strict-for-non-mobius", min_excess, 0.0, 0.0,
                                f"{_N_PERTURBATIONS} non-conformal sphere bijections"))
    return results


def check_harmonic_bvp(config: VerifyConfig) -> list[CheckResult]:
    """Radial harmonic BVP: threshold equivalence, harmonicity, energy
    closed form, and its ordering against the universal lower bound."""
    rng = np.random.default_rng([config.seed, 4])
    results = []

    mismatches = 0
    pairs = [random_annulus_pair(rng) for _ in range(_N_PAIRS)]
    for p in pairs:
        if nitsche_condition(p).admissible != harmonic_profile_monotone(p):
            mismatches += 1
    results.append(_equality("nitsche-threshold-matches-monotonicity",
                             float(mismatches), 0.0, 0.0,
                             f"{_N_PAIRS} random pairs"))

    worst_res = 0.0
    for p in pairs[:50]:
        prof = harmonic_radial_bvp(p)
        t = np.linspace(p.r, p.R, 100)
        res = prof.derivative(t, 2) + 2.0 * prof.derivative(t, 1) / t - 2.0 * prof.eval(t) / t**2
        worst_res = max(worst_res, float(np.max(np.abs(res))))
    results.append(_equality("harmonic-bvp-radial-laplacian-vanishes",
                             worst_res, 0.0, _RESIDUAL_TOL,
                             "50 random pairs; 100 radii each"))

    admissible = [random_admissible_pair(rng) for _ in range(20)]
    worst_rel = 0.0
    for p in admissible:
        x = analytic_dirichlet_energy_radial(p)
        f = as_sampled_map(GeneralizedRadialMap(harmonic_radial_bvp(p)))
        num = dirichlet_energy(f, p, _FD_RADIAL_ORDER, _FD_SPHERE_ORDER, refine=False).value
        worst_rel = max(worst_rel, abs(num - x) / x)
    results.append(_equality("harmonic-energy-closed-form-vs-quadrature",
                             worst_rel, 0.0, _FD_ENERGY_REL_TOL, "20 admissible pairs"))

    min_gap_rel = math.inf
    for p in admissible + [random_admissible_pair(rng) for _ in range(80)]:
        x = analytic_dirichlet_energy_radial(p)
        y = dirichlet_lower_bound(p)
        min_gap_rel = min(min_gap_rel, (x - y) / x)
    results.append(_lower_bound("lower-bound-below-harmonic-energy", min_gap_rel, 0.0, 0.0,
                                "relative gap over 100 admissible pairs"))

    r, R = 1.0, 2.0
    thr = nitsche_condition(AnnulusPair.from_radii(r, R, 1.0, 2.0)).threshold
    boundary_pair = AnnulusPair.from_radii(r, R, thr * 5.0, 5.0)
    prof = harmonic_radial_bvp(boundary_pair)
    slope_inner = prof.derivative(r, 1)
    results.append(_equality("threshold-pair-slope-touches-zero-at-inner-boundary",
                             abs(slope_inner), 0.0, 1e-9,
                             "derivative at t=r for a pair sitting on the threshold"))
    return results


def check_residuals(config: VerifyConfig) -> list[CheckResult]:
    """Pointwise identities: the Euler-Lagrange family, the weighted
    harmonicity reformulation, and the first-order form of the
    log-derivative density."""
    rng = np.random.default_rng([config.seed, 5])
    results = []
    t = np.linspace(0.8, 4.0, 100)

    worst_el = 0.0
    worst_wh = 0.0
    worst_link = 0.0
    for _ in range(20):
        prof = ExponentialProfile(a=rng.uniform(0.5, 2.0), b=rng.uniform(-1.5, 1.5))
        el = el_residual(prof, t)
        wh = weighted_harmonic_residual(prof, t)
        worst_el = max(worst_el, float(np.max(np.abs(el))))
        worst_wh = max(worst_wh, float(np.max(np.abs(wh))))
        h = prof.eval(t)
        worst_link = max(worst_link, float(np.max(np.abs(wh - el / (t**2 * h)))))
    results.append(_equality("euler-lagrange-residual-vanishes-on-exponential-family",
                             worst_el, 0.0, _RESIDUAL_TOL, "20 random profiles; 100 radii"))
    results.append(_equality("weighted-harmonic-residual-vanishes-on-exponential-family",
                             worst_wh, 0.0, _RESIDUAL_TOL, "same sample"))
    results.append(_equality("weighted-residual-equals-scaled-euler-lagrange",
                             worst_link, 0.0, 1e-12, "identity between the two residuals"))

    const = ExponentialProfile(a=1.0, b=0.0)
    worst_const = max(float(np.max(np.abs(el_residual(const, t)))),
                      float(np.max(np.abs(weighted_harmonic_residual(const, t)))))
    results.append(_equality("residuals-vanish-on-constant-profile", worst_const, 0.0, 1e-14))

    linear = HarmonicProfile(a=1.0, b=0.0)
    results.append(_equality("weighted-residual-separates-euclidean-harmonic",
                             weighted_harmonic_residual(linear, 1.0), 1.0, 1e-12,
                             "identity profile is euclidean harmonic but not weighted harmonic"))

    inc = exp_profile_from_boundary(DEFAULT_PAIR, "increasing")
    tt = np.linspace(DEFAULT_PAIR.r + 0.01, DEFAULT_PAIR.R - 0.01, 100)
    ld = inc.derivative(tt, 1) / inc.eval(tt)
    m = ld**2
    mprime = 2.0 * ld * (inc.derivative(tt, 2) / inc.eval(tt) - ld**2)
    worst_m = float(np.max(np.abs(2.0 * m / tt + 0.5 * mprime)))
    results.append(_equality("log-derivative-density-first-order-form",
                             worst_m, 0.0, _RESIDUAL_TOL,
                             "2 M / t + M' / 2 = 0 along the increasing minimizer"))

    grid = make_radial_grid(Annulus(1.0, 2.0), 50)
    worst_grad = 0.0
    for _ in range(10):
        k = rng.normal(0.0, 0.5, size=grid.nodes.size)
        grad = reduced_energy_gradient(k, grid)
        fd = np.empty_like(grad)
        for j in range(1, grid.nodes.size - 1):
            h = 1e-6 * max(1.0, abs(k[j]))
            kp = k.copy()
            km = k.copy()
            kp[j] += h
            km[j] -= h
            fd[j - 1] = (discrete_reduced_energy(kp, grid) - discrete_reduced_energy(km, grid)) / (2.0 * h)
        scale = float(np.max(np.abs(grad))) + 1.0
        worst_grad = max(worst_grad, float(np.max(np.abs(grad - fd))) / scale)
    results.append(_equality("discrete-gradient-matches-finite-differences",
                             worst_grad, 0.0, 1e-6, "10 random states on a 50-interval grid"))
    return results


def run_suite(config: VerifyConfig | None = None) -> SuiteReport:
    """Run every check with scales taken from ``config``.

    The result order is fixed and the only randomness comes from
    ``config.seed``, so serialized reports are reproducible byte for
    byte.
    """
    if config is None:
        config = VerifyConfig()
    if not isinstance(config, VerifyConfig):
        raise ConfigError("run_suite expects a VerifyConfig")
    start = time.perf_counter()
    # plain calls, so a wrapper swapped into this module's namespace is used
    results: list[CheckResult] = []
    results += check_residuals(config)
    results += check_minimal_energy(config)
    results += check_inversion_invariance(config)
    results += check_sphere_inequality(config)
    results += check_harmonic_bvp(config)
    wall = time.perf_counter() - start
    return SuiteReport(results=results, seed=config.seed, wall_time=wall)

"""End-to-end verification checks with machine-readable results.

Every check compares an independently computed quantity against a
closed form or a structural bound, records the outcome in a
:class:`CheckResult`, and never raises on a mere numerical failure.
Each check takes one :class:`VerifyConfig`, the only holder of every
setting.  ``run_suite`` executes the five checks in a fixed order, so
two runs with the same configuration produce byte-identical serialized
reports (wall time is reported separately, not serialized).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .energy import (
    _weighted_energies_with_inversion,
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
_SHELL_RADII = (1.0, 2.0, 5.0)  # where the sharp 8 pi value is checked
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
    """Scales, orders, and tolerances of the verification suite."""

    pair: AnnulusPair = DEFAULT_PAIR
    seed: int = 42
    radial_order: int = 64
    sphere_order: int = 32
    grid_n: int = 1000
    fd_radial_order: int = 32
    fd_sphere_order: int = 16
    n_competitors: int = 50
    n_inversion_maps: int = 50
    n_transforms: int = 20
    n_perturbations: int = 20
    n_pairs: int = 1000
    closed_form_tol: float = 1e-8
    fd_energy_rel_tol: float = 1e-4
    residual_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            if f.name in ("pair",):
                continue
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"verify config field {f.name!r} must be numeric")
            if v < 0:
                raise ConfigError(f"verify config field {f.name!r} must be nonnegative")
        if self.grid_n < 8:
            raise ConfigError("verify config field 'grid_n' must be at least 8")
        if self.radial_order < 2 or self.sphere_order < 2:
            raise ConfigError("verify config orders must be at least 2")
        if self.fd_radial_order < 2 or self.fd_sphere_order < 2:
            raise ConfigError("verify config fd orders must be at least 2")


@dataclass
class SuiteReport:
    """All results of one suite run plus the seed that produced them."""

    results: list[CheckResult]
    seed: int
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def coverage(self) -> list[str]:
        return [r.name for r in self.results]

    def rows(self) -> list[dict]:
        """Deterministic serialization; excludes wall time on purpose so
        repeat runs compare byte-identical."""
        return [
            {
                "name": r.name,
                "passed": r.passed,
                "observed": r.observed,
                "expected": r.expected,
                "tolerance": r.tolerance,
                "detail": r.detail,
            }
            for r in self.results
        ]


# ---------------------------------------------------------------------------
# Random problem generators.


def random_annulus_pair(rng: np.random.Generator, low: float = 0.1, high: float = 10.0,
                        min_ratio: float = 1.02,
                        max_domain_ratio: float | None = None) -> AnnulusPair:
    """Random pair with radii log-uniform in ``[low, high]``.

    Rejection enforces the orderings and, optionally, an upper bound on
    ``R / r`` for consumers whose slope brackets assume moderately
    proportioned domains.
    """
    lo, hi = math.log(low), math.log(high)
    while True:
        vals = np.exp(rng.uniform(lo, hi, size=4))
        r, R = sorted(vals[:2])
        rs, Rs = sorted(vals[2:])
        if R / r < min_ratio or Rs / rs < min_ratio:
            continue
        if max_domain_ratio is not None and R / r > max_domain_ratio:
            continue
        return AnnulusPair.from_radii(r, R, rs, Rs)


def random_admissible_pair(rng: np.random.Generator, **kwargs) -> AnnulusPair:
    """Random pair satisfying the Nitsche admissibility condition."""
    while True:
        pair = random_annulus_pair(rng, **kwargs)
        if nitsche_condition(pair).admissible:
            return pair


def _smooth_bump_map(pair: AnnulusPair, rng: np.random.Generator) -> SampledMap:
    """Radial map with a smooth multiplicative sine bump on the
    increasing minimizer profile and a random sphere rotation."""
    base = exp_profile_from_boundary(pair, "increasing")
    rot = random_mobius(rng)
    amp = rng.uniform(0.05, 0.3)
    mode = int(rng.integers(1, 4))
    r, width = pair.r, pair.domain.width

    def evaluator(points: np.ndarray) -> np.ndarray:
        t = row_norms(points)
        units = points / t[:, None]
        s = mobius_apply_points(rot, units)
        factor = 1.0 + amp * np.sin(mode * np.pi * (t - r) / width)
        return (base.eval(t) * factor)[:, None] * s

    return SampledMap(evaluator=evaluator)


def _angular_competitor(pair: AnnulusPair, rng: np.random.Generator) -> SampledMap:
    """Admissible non-radial competitor: the increasing minimizer with a
    seeded angular modulation that vanishes on both boundary spheres."""
    base = exp_profile_from_boundary(pair, "increasing")
    rot = random_mobius(rng)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    ell = _log_ratio(pair.R_star, pair.r_star)
    cap = 0.4 * ell * pair.r / (math.pi * pair.R)
    amp = rng.uniform(0.3, 1.0) * cap
    r, width = pair.r, pair.domain.width

    def evaluator(points: np.ndarray) -> np.ndarray:
        t = row_norms(points)
        units = points / t[:, None]
        s = mobius_apply_points(rot, units)
        envelope = np.sin(np.pi * (t - r) / width)
        factor = 1.0 + amp * envelope * (units @ axis)
        return (base.eval(t) * factor)[:, None] * s

    return SampledMap(evaluator=evaluator)


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
        "minimal-energy-analytic-vs-numeric", worst, 0.0, config.closed_form_tol,
        "max relative gap over both minimizers and 4 rotations"))

    inc = exp_profile_from_boundary(pair, "increasing")
    dec = exp_profile_from_boundary(pair, "decreasing")
    ts = np.linspace(pair.r, pair.R, 101)
    prod_err = float(np.max(np.abs(inc.eval(ts) * dec.eval(ts) - pair.r_star * pair.R_star)))
    results.append(_equality(
        "minimizer-profiles-multiply-to-constant", prod_err, 0.0,
        1e-12 * pair.r_star * pair.R_star))

    n_angular = config.n_competitors // 3
    n_radial = config.n_competitors - n_angular
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
        rep = weighted_energy(f, pair, config.fd_radial_order, config.fd_sphere_order, refine=False)
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

    The composed map always goes through the finite-difference route,
    differentiated from the same stencil samples as the map itself.
    Generalized radial maps take the decomposition route for their own
    energy, so this doubles as a cross-check of the two quadrature paths;
    the tolerance is twice the FD energy tolerance, one per route.
    """
    pair = config.pair
    orders = (config.fd_radial_order, config.fd_sphere_order)
    rng = np.random.default_rng([config.seed, 2])
    scales = (0.5, 1.0, pair.r_star * pair.R_star)
    worst = 0.0
    for i in range(config.n_inversion_maps):
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
        a = scales[i % len(scales)]
        e_f, e_g = _weighted_energies_with_inversion(f, pair, a, *orders)
        if kind == 0:
            e_f = weighted_energy(f, pair, *orders, refine=False).value
        worst = max(worst, abs(e_f - e_g) / max(abs(e_f), 1.0))
    return [_equality("inversion-invariance-of-weighted-energy", worst, 0.0,
                      2.0 * config.fd_energy_rel_tol,
                      f"{config.n_inversion_maps} maps at scales 0.5; 1; r*R*")]


def check_sphere_inequality(config: VerifyConfig) -> list[CheckResult]:
    """Tangential shell energy: exactly ``8 pi`` for Moebius transforms,
    strictly larger for non-conformal surjections, and the mapped area
    identity ``4 pi``."""
    rng = np.random.default_rng([config.seed, 3])
    quad = make_sphere_quadrature(config.sphere_order)
    tol = config.closed_form_tol
    results = []

    transforms = [MobiusTransform.identity()]
    transforms += [random_mobius(rng) for _ in range(config.n_transforms)]
    worst = 0.0
    for t in transforms:
        for tv in _SHELL_RADII:
            worst = max(worst, abs(sphere_inequality_integral(t, tv, quad) - EIGHT_PI))
    results.append(_equality("shell-energy-sharp-at-mobius", worst, 0.0, tol,
                             f"{len(transforms)} transforms at radii "
                             f"{'; '.join(str(v) for v in _SHELL_RADII)}"))

    u, v = tangent_frames(quad.nodes)
    worst_area = 0.0
    for t in transforms:
        du = mobius_pushforward(t, quad.nodes, u)
        dv = mobius_pushforward(t, quad.nodes, v)
        area = float(quad.weights @ row_norms(np.cross(du, dv)))
        worst_area = max(worst_area, abs(area - 4.0 * math.pi))
    results.append(_equality("mapped-area-identity", worst_area, 0.0, tol,
                             "integral of the gram determinant over the sphere"))

    min_excess = math.inf
    for _ in range(config.n_perturbations):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        amp = rng.uniform(0.15, 0.35)

        def stretch(etas, axis=axis, amp=amp):
            out = etas + amp * (etas @ axis)[:, None] * axis[None, :]
            return out / row_norms(out)[:, None]

        min_excess = min(min_excess, sphere_inequality_integral(stretch, 1.0, quad) - EIGHT_PI)
    results.append(_lower_bound("shell-energy-strict-for-non-mobius", min_excess, 0.0, 0.0,
                                f"{config.n_perturbations} non-conformal sphere bijections"))
    return results


def check_harmonic_bvp(config: VerifyConfig) -> list[CheckResult]:
    """Radial harmonic BVP: threshold equivalence, harmonicity, energy
    closed form, and its ordering against the universal lower bound."""
    rng = np.random.default_rng([config.seed, 4])
    results = []

    mismatches = 0
    pairs = [random_annulus_pair(rng) for _ in range(config.n_pairs)]
    for p in pairs:
        if nitsche_condition(p).admissible != harmonic_profile_monotone(p):
            mismatches += 1
    results.append(_equality("nitsche-threshold-matches-monotonicity",
                             float(mismatches), 0.0, 0.0,
                             f"{config.n_pairs} random pairs"))

    worst_res = 0.0
    for p in pairs[:50]:
        prof = harmonic_radial_bvp(p)
        t = np.linspace(p.r, p.R, 100)
        res = prof.derivative(t, 2) + 2.0 * prof.derivative(t, 1) / t - 2.0 * prof.eval(t) / t**2
        worst_res = max(worst_res, float(np.max(np.abs(res))))
    results.append(_equality("harmonic-bvp-radial-laplacian-vanishes",
                             worst_res, 0.0, config.residual_tol,
                             "50 random pairs; 100 radii each"))

    admissible = [random_admissible_pair(rng) for _ in range(20)]
    worst_rel = 0.0
    for p in admissible:
        x = analytic_dirichlet_energy_radial(p)
        f = as_sampled_map(GeneralizedRadialMap(harmonic_radial_bvp(p)))
        num = dirichlet_energy(f, p, config.fd_radial_order, config.fd_sphere_order,
                               refine=False).value
        worst_rel = max(worst_rel, abs(num - x) / x)
    results.append(_equality("harmonic-energy-closed-form-vs-quadrature",
                             worst_rel, 0.0, config.fd_energy_rel_tol, "20 admissible pairs"))

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
    residual_tol = config.residual_tol
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
                             worst_el, 0.0, residual_tol, "20 random profiles; 100 radii"))
    results.append(_equality("weighted-harmonic-residual-vanishes-on-exponential-family",
                             worst_wh, 0.0, residual_tol, "same sample"))
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
                             worst_m, 0.0, residual_tol,
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

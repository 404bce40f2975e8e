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

import contextlib
import itertools
import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from .energy import (
    _FD_MIN_STEP_ULPS,
    _RADIAL_ORDER,
    _SPHERE_ORDER,
    _fd_energies,
    _fd_step,
    _min_weighted_energy,
    _same,
    analytic_min_weighted_energy,
    dirichlet_energy,
    dirichlet_lower_bound,
    reduced_energy,
    weighted_energy,
)
from .errors import ConfigError, EvaluationError
from .geometry import (
    Annulus,
    AnnulusPair,
    _cross,
    _form_stiffness,
    _log_width,
    make_radial_grid,
    make_sphere_quadrature,
    row_norms,
)
from .maps import (
    ExponentialProfile,
    GeneralizedRadialMap,
    HarmonicProfile,
    SampledMap,
    SampledProfile,
    _perturbed_values,
    as_sampled_map,
    exp_profile_from_boundary,
    perturbed_profile,
    sphere_inversion,
)
from .nitsche import (
    _admissible_rows,
    _monotone_rows,
    analytic_dirichlet_energy_radial,
    harmonic_profile_monotone,
    harmonic_radial_bvp,
    nitsche_condition,
)
from .sphere_maps import (
    MobiusTransform,
    _frame_pushforwards,
    _shell_energy,
    mobius_apply_points,
    random_mobius,
    sphere_inequality_integral,
)
from .variational import (
    _energy_from_coefficients,
    el_residual,
    minimize_reduced_energy,
    reduced_energy_gradient,
    weighted_harmonic_residual,
)

EIGHT_PI = 8.0 * math.pi
# sphere orders of the finite-difference energy route (see _fd_radial_order for
# its radial order), its relative tolerance, and the tolerance of the pointwise
# residual identities.  Maps x -> H(t) T(eta) with a random Moebius rotation T
# take _FD_SPHERE_ORDER, set by the stretch of T (order 12 misses 4 pi by
# 3.6e-4).  Maps whose spheres map by rotations take _FD_ROTATION_SPHERE_ORDER:
# for G(t) T0(Rot_z(theta(t)) eta) with theta = c (t - r) the weighted density
# is (G' / G)^2 + 2 / t^2 + theta'^2 (1 - eta_z^2), quadratic in eta, which the
# product rule integrates exactly from order 2 on; an inversion y -> a y / |y|^2
# only swaps G for a / G, and the plain density of H(t) eta is H'^2 + 2 H^2 / t^2,
# constant on each sphere.  Only the O(h^2) FD error terms have angular content.
# Worst relative gap to the order-16 FD energy:
#
#   family                                            order 2  order 3  order 4
#   twisted members, 44 pairs x 3                      6.3e-9  2.1e-10  9.9e-12
#   radial harmonic maps, 100 admissible pairs        3.2e-11  3.2e-12  3.9e-12
#
# and against the exact energy order 4 reads as order 16 does (1.31e-10 and
# 1.33e-10 on the reference pair, 5.1e-8 at both on (1, 1.035, 1, 2)).
_FD_SPHERE_ORDER = 16
_FD_ROTATION_SPHERE_ORDER = 4
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


def _worst(rows: np.ndarray) -> float:
    """0 raised to each row's ``max |row|`` in turn, as a loop over the
    members of a stack raised it one at a time (a nan row is passed over)."""
    return max(0.0, *np.max(np.abs(rows), axis=-1).tolist())


def _profile_stack(cls, coefficients):
    """The profiles ``cls(a, b)`` of the ``m`` pairs ``(a, b)`` as one
    ``cls`` of ``(m, 1)`` coefficient arrays, a stack that broadcasts
    against radii on the last axis."""
    a, b = np.array(coefficients).T[:, :, None]
    return cls(a=a, b=b)


def _lower_bound(name: str, observed: float, bound: float, slack: float,
                 detail: str = "") -> CheckResult:
    ok = math.isfinite(observed) and observed >= bound - slack
    text = detail + ("; " if detail else "") + "one-sided: observed >= expected - tolerance"
    return CheckResult(name, bool(ok), float(observed), float(bound), float(slack), text)


@dataclass(frozen=True)
class VerifyConfig:
    """Pair and seed of the suite, which fixes its orders and derives its grids.

    The pair's shell must be thick enough for the finite-difference rows:
    their step at ``R``, ``R`` times ``energy._fd_step``, which is
    ``1e-5 min(R, 64 (R - r))``, must span at least
    ``energy._FD_MIN_STEP_ULPS`` (8 192) ulps of ``R``, which on ``r = 1``
    asks for ``R / r - 1 >= 2.8e-9``.  A thinner shell rounds the steps so
    far that those rows would misreport, and raises :class:`ConfigError`.
    """

    pair: AnnulusPair = DEFAULT_PAIR
    seed: int = 42

    def __post_init__(self):
        if not isinstance(self.pair, AnnulusPair):
            raise ConfigError("verify config field 'pair' must be an AnnulusPair")
        r, R = self.pair.r, self.pair.R
        ulps = _fd_step(self.pair.domain) * R / math.ulp(R)
        if ulps < _FD_MIN_STEP_ULPS:
            raise ConfigError(f"verify config field 'pair': the finite-difference step at R is "
                              f"{ulps:.4g} ulps of R, below the floor of {_FD_MIN_STEP_ULPS} "
                              f"(R/r - 1 = {(R - r) / r:.3g})")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ConfigError("verify config field 'seed' must be an integer")
        if self.seed < 0:
            raise ConfigError("verify config field 'seed' must be nonnegative")


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


def _fd_radial_order(annulus: Annulus) -> int:
    """Radial Gauss order of the finite-difference route on ``annulus``:
    ``8 + ceil(log(R / r))``.

    In ``s = log t`` the weighted density of the minimizer and of its twisted
    members is built from ``exp(+-s)`` terms on ``[0, log(R / r)]``, so the
    nodes it needs grow with ``log(R / r)``, not with ``R / r``.  Worst relative
    error of three twisted members against their exact energy, ``R* / r* = e``:

    ============  ================  ==============
    R / r         this order        order 16
    ============  ================  ==============
    2             9: 9.1e-11        9.1e-11
    100           13: 3.9e-11       3.9e-11
    1e4           18: 4.1e-11       4.1e-11
    1e10          32: 4.2e-11       4.2e-8
    ============  ================  ==============

    so the FD step, not the quadrature, sets the error at this order.
    """
    return 8 + math.ceil(_log_width(annulus))


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
    return AnnulusPair.from_radii(*_random_radii(rng, 1, low, high)[0])


def _random_radii(rng: np.random.Generator, count: int, low: float = 0.1,
                  high: float = 10.0) -> list[tuple[float, float, float, float]]:
    """The radii ``(r, R, r*, R*)`` of the pairs of ``count`` calls of
    :func:`random_annulus_pair`, which leave ``rng`` in the same state, as
    tuples of Python floats: a caller builds a pair only from the tuples it
    uses as pairs.  Each round draws the radii of the tuples still missing
    in one call and rejects as each draw would, so no round draws past the
    last tuple kept."""
    if not (0.0 < low < high < math.inf and high / low >= _MIN_RATIO**2):
        raise ValueError(f"random pair needs 0 < low < high < inf and high / low >= "
                         f"{_MIN_RATIO}^2, got low = {low!r}, high = {high!r}")
    lo, hi = math.log(low), math.log(high)
    radii = []
    while len(radii) < count:
        for a, b, c, d in np.exp(rng.uniform(lo, hi, size=(count - len(radii), 4))).tolist():
            r, R = (a, b) if a <= b else (b, a)
            rs, Rs = (c, d) if c <= d else (d, c)
            if R / r < _MIN_RATIO or Rs / rs < _MIN_RATIO:
                continue
            radii.append((r, R, rs, Rs))
    return radii


def _radius_rows(radii: list[tuple[float, float, float, float]]) -> np.ndarray:
    """Radius tuples as an ``(N, 4)`` float array, the same values as
    ``np.array(radii)`` in less than half its time."""
    return np.fromiter(itertools.chain.from_iterable(radii), float, 4 * len(radii)).reshape(-1, 4)


def random_admissible_pair(rng: np.random.Generator) -> AnnulusPair:
    """Random pair satisfying the Nitsche admissibility condition: the
    first admissible draw of :func:`random_annulus_pair`."""
    return _random_admissible_pairs(rng, 1)[0]


def _random_admissible_pairs(rng: np.random.Generator, count: int) -> list[AnnulusPair]:
    """The pairs of ``count`` calls of :func:`random_admissible_pair`, which
    leave ``rng`` in the same state: the first ``count`` admissible draws of
    :func:`random_annulus_pair`.  Each round draws as many radius tuples as
    pairs are still missing, and at most that many of them are admissible,
    so no round draws past the last pair kept; the round's tuples are tested
    in one :func:`nitsche._admissible_rows` call, and only the admissible
    ones are built into pairs."""
    pairs = []
    while len(pairs) < count:
        radii = _random_radii(rng, count - len(pairs))
        for row, admissible in zip(radii, _admissible_rows(_radius_rows(radii)).tolist()):
            if admissible:
                pairs.append(AnnulusPair.from_radii(*row))
    return pairs


def _twisted_minimizer(pair: AnnulusPair, rng: np.random.Generator) -> tuple[SampledMap, float]:
    """Seeded map ``x -> exp(log r* + k (t - r) / t + eps phi(t)) T0(Rot_z(c (t - r)) eta)``,
    ``t = |x|``, ``eta = x / t``, and its exact weighted energy.  With
    ``k = log(R* / r*) R / (R - r)``, ``r* exp(k (t - r) / t)`` is the increasing
    minimizer anchored at ``t = r``, ``phi = (t - r)(R - t) / (R - r)^2`` and ``T0``
    a seeded rotation.  The cross term ``2 eps t^2 K' phi'`` integrates to zero, as
    ``t^2 K'`` is constant and ``phi`` vanishes at both ends, and each sphere maps by
    a rotation, so the energy is ``E_min + 4 pi eps^2 ((r + R)^2 / (12 (R - r))
    + (R - r) / 20) + (8 pi / 9) c^2 (R^3 - r^3)``.  ``0 <= eps < log(R* / r*) r / R``
    keeps ``|f|`` increasing along rays, so each map is a homeomorphism; ``c`` makes
    the twist term a log-uniform fraction in [1e-3, 1e-1] of ``E_min``.  ``T0`` acts
    by its 3x3 matrix and ``Rot_z`` through ``tan(theta / 2)``, as column sums."""
    r, R, width = pair.r, pair.R, pair.domain.width
    ell = _log_width(pair.target)
    log_rs, k = math.log(pair.r_star), ell * R / width
    # a unit quaternion as an SU(2) matrix, which acts as a rotation
    q = rng.normal(size=4)
    q /= math.hypot(*q)
    rot = MobiusTransform(complex(q[0], q[1]), complex(q[2], q[3]),
                          complex(-q[2], q[3]), complex(q[0], -q[1]))
    eps = rng.uniform(0.0, 1.0) * ell * r / R
    target = analytic_min_weighted_energy(pair)
    twist = target * 10.0 ** rng.uniform(-3.0, -1.0)
    # the twist rate whose term (8 pi / 9) c^2 (R^3 - r^3) is `twist`; on the
    # unit-scale pairs of the checks width (R^2 + R r + r^2) is a positive
    # normal float wherever the FD route can evaluate the member
    c = math.sqrt(9.0 * twist / (8.0 * math.pi * width * (R * R + R * r + r * r)))
    # T0 is linear: row k of `m` is the image of the axis e_k
    m = mobius_apply_points(rot, np.eye(3))

    def evaluator(points: np.ndarray) -> np.ndarray:
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        t = row_norms(points)
        tau = np.subtract(t, r)
        # eps phi(t), then g = |f| / t = exp(log r* + k tau / t + eps phi(t)) / t
        phi = np.divide(tau, width)
        phi *= eps
        tmp = np.subtract(R, t)
        tmp /= width
        phi *= tmp
        g = np.divide(tau, t)
        g *= k
        g += log_rs
        g += phi
        np.exp(g, out=g)
        g /= t
        # tau = tan(theta / 2) gives cos theta = (1 - tau^2) / (1 + tau^2) and
        # sin theta = 2 tau / (1 + tau^2); hz, hc and hs are g z, g cos theta
        # and g sin theta
        tau *= 0.5 * c
        np.tan(tau, out=tau)
        hz = np.multiply(g, z, out=tmp)
        hc = np.multiply(tau, tau, out=phi)
        g /= np.add(hc, 1.0, out=t)
        hs = tau
        hs *= g
        hs *= 2.0
        np.subtract(1.0, hc, out=hc)
        hc *= g
        # g Rot_z(theta) eta, then its image under the matrix of T0
        v0 = np.multiply(hc, x, out=g)
        v0 -= np.multiply(hs, y, out=t)
        v1 = np.multiply(hs, x)
        v1 += np.multiply(hc, y, out=t)
        image = np.empty(points.shape, order="F")
        for j in range(3):
            col = image[:, j]
            np.multiply(v0, m[0, j], out=col)
            col += np.multiply(v1, m[1, j], out=t)
            col += np.multiply(hz, m[2, j], out=t)
        return image

    excess = 4.0 * math.pi * eps * eps * ((r + R) ** 2 / (12.0 * width) + width / 20.0)
    return SampledMap(evaluator=evaluator), target + excess + twist


# ---------------------------------------------------------------------------
# Checks.


def _discrete_convergence(pair: AnnulusPair, target: float) -> CheckResult:
    """Discrete minima on ``n / 4``, ``n / 2`` and ``n = 1000`` intervals uniform in
    ``log t``.  Since ``1 / a = (h / (t0 t1)) (1 - h^2 / (t0^2 + t0 t1 + t1^2))`` on
    ``[t0, t1]``, ``h = t1 - t0``, and ``t1 / t0 = rho = (R / r)^(1 / n)`` on every
    interval, the ``t^2 K'^2`` part of the discrete minimum exceeds its continuum
    value by ``(rho - 1)^2 / (3 rho) = (4 / 3) sinh^2(log(R / r) / (2 n))`` of it.
    That part's share of the minimum, the rest being ``8 pi (R - r)``, then bounds
    the relative gap.  Where the bound is below the float epsilon, as on
    ``(1, 1 + 1e-6)`` or ``(1, 1e100)``, the gaps are rounding and the row reads
    about 0, so ``detail`` says that the refinement is below float resolution."""
    grid_n = 1000
    share = float(1 - 2 * (Fraction(pair.R) - Fraction(pair.r)) / _min_weighted_energy(pair))
    finest = share * 4.0 / 3.0 * math.sinh(0.5 * _log_width(pair.domain) / grid_n) ** 2
    gaps = []
    for n in (grid_n // 4, grid_n // 2, grid_n):
        sol = minimize_reduced_energy(pair, make_radial_grid(pair.domain, n, "uniform-in-log-t"))
        gaps.append(sol.energy - target)
    monotone = all(g2 <= g1 + 1e-12 * target for g1, g2 in zip(gaps, gaps[1:]))
    above = all(g >= -1e-9 * target for g in gaps)
    final_ok = gaps[-1] <= 1e-5 * target
    detail = "energy gaps decrease and stay nonnegative under grid refinement"
    if finest < sys.float_info.epsilon:
        detail += (f"; the refinement is below float resolution: the gap on {grid_n} "
                   f"intervals is at most {finest:.1e} of the minimum")
    return CheckResult(
        "discrete-minimum-converges-from-above",
        bool(monotone and above and final_ok),
        gaps[-1] / target, 0.0, 1e-5, detail)


@contextlib.contextmanager
def _at_unit_scale(pair: AnnulusPair):
    """``(pair', e, e*)``: ``pair`` with its domain scaled by ``2^-e`` and its
    target by ``2^-e*``, each ``e = (frexp(r)[1] + frexp(R)[1]) // 2 - 1`` of its
    shell, so that the radii lie about 1 and ``DEFAULT_PAIR`` keeps ``e = e* = 0``.

    The weighted energy does not change under ``f -> 2^-e* f`` and scales by
    ``2^-e`` under ``x -> 2^-e x``, so a check reads the same relative values
    on ``pair'``, and scaling by a power of two changes no bit.  There only
    the widths ``R / r`` and ``R* / r*``, not where the shells sit, can take a
    value out of the float range.  An :class:`EvaluationError` raised inside
    names radii of ``pair'`` and says so.
    """
    # a subnormal r can take R past the float maximum: e is then the least
    # that keeps 2^-e R finite
    e, es = (max((math.frexp(a.inner)[1] + math.frexp(a.outer)[1]) // 2 - 1,
                 math.frexp(a.outer)[1] - 1024) for a in (pair.domain, pair.target))
    try:
        yield AnnulusPair.from_radii(math.ldexp(pair.r, -e), math.ldexp(pair.R, -e),
                                     math.ldexp(pair.r_star, -es),
                                     math.ldexp(pair.R_star, -es)), e, es
    except EvaluationError as exc:
        raise EvaluationError(f"{exc} (radii at unit scale: the domain's times 2^{-e}, the "
                              f"target's times 2^{-es})") from None


def _competitor_energies(base, amps, modes, seeds, grid) -> np.ndarray:
    """``reduced_energy(perturbed_profile(base, amp, mode, seed=seed,
    grid=grid), grid.annulus)`` of each member ``(amp, mode, seed)``, from
    one stack of values (``maps._perturbed_values``) and one
    :func:`reduced_energy` call, each with the bits of its own calls.  A
    member that ``perturbed_profile`` refuses raises its error after the
    energies of the members before it, as one member at a time would."""
    values = _perturbed_values(base, amps, modes, seeds, grid)
    accepted = np.logical_and.accumulate((values.min(axis=1) > 0.0)
                                         & (values.max(axis=1) < math.inf))
    n_ok = int(np.count_nonzero(accepted))
    energies = reduced_energy(SampledProfile(grid, values[:n_ok]), grid.annulus) if n_ok else None
    if n_ok < len(values):
        # the first refused member raises its own error
        perturbed_profile(base, amps[n_ok], modes[n_ok], seed=seeds[n_ok], grid=grid)
    return energies


def check_minimal_energy(config: VerifyConfig) -> list[CheckResult]:
    """Minimal-energy value, minimizer structure, and the lower bound
    against perturbed competitors: piecewise-linear radial profiles and
    twisted minimizers, whose exact energy (see ``_twisted_minimizer``)
    exceeds ``E_min`` by at least 1e-3 of it.  The check runs at unit
    scale (see ``_at_unit_scale``); the two rows that read absolute values
    report them in the units of ``config.pair``.  The radial competitors'
    parameters are drawn member by member, and their energies are one
    stack (``_competitor_energies``)."""
    with _at_unit_scale(config.pair) as (pair, e, es):
        rng = np.random.default_rng([config.seed, 1])
        results: list[CheckResult] = []
        target = analytic_min_weighted_energy(pair)

        transforms = [MobiusTransform.identity()] + [random_mobius(rng) for _ in range(3)]
        worst = 0.0
        for orientation in ("increasing", "decreasing"):
            profile = exp_profile_from_boundary(pair, orientation)
            for t in transforms:
                rep = weighted_energy(GeneralizedRadialMap(profile, t), pair,
                                      _RADIAL_ORDER, _SPHERE_ORDER, refine=False)
                worst = max(worst, abs(rep.value - target) / target)
        results.append(_equality(
            "minimal-energy-analytic-vs-numeric", worst, 0.0, _CLOSED_FORM_TOL,
            "max relative gap over both minimizers and 4 rotations"))

        inc = exp_profile_from_boundary(pair, "increasing")
        dec = exp_profile_from_boundary(pair, "decreasing")
        ts = np.linspace(pair.r, pair.R, 101)
        prod_err = float(np.max(np.abs(inc.eval(ts) * dec.eval(ts) - pair.r_star * pair.R_star)))
        # decided at unit scale, where r* R* is about 1; the error and the
        # tolerance are 4^e* times larger in the pair's units, where they may
        # leave the float range
        row = _equality("minimizer-profiles-multiply-to-constant", prod_err, 0.0,
                        1e-12 * pair.r_star * pair.R_star)
        results.append(replace(row, observed=prod_err * 2.0**es * 2.0**es,
                               tolerance=1e-12 * config.pair.r_star * config.pair.R_star))

        fd_order = _fd_radial_order(pair.domain)
        n_angular = _N_COMPETITORS // 3
        n_radial = _N_COMPETITORS - n_angular
        grid = make_radial_grid(pair.domain, 200)
        min_gap = math.inf
        draws = [(rng.uniform(0.02, 0.5), int(rng.integers(1, 5)), int(rng.integers(2**31)))
                 for _ in range(n_radial)]
        gaps = _competitor_energies(inc, *zip(*draws), grid) - target
        min_gap = min(min_gap, *gaps.tolist())
        for _ in range(n_angular):
            f, _ = _twisted_minimizer(pair, rng)
            rep = weighted_energy(f, pair, fd_order, _FD_ROTATION_SPHERE_ORDER, refine=False)
            min_gap = min(min_gap, rep.value - target)
        # energies scale by 2^e under x -> 2^e x
        results.append(_lower_bound(
            "competitor-energies-above-minimum", min_gap * 2.0**e, 0.0, 1e-6,
            f"{n_radial} radial and {n_angular} angular perturbations"))

        results.append(_discrete_convergence(pair, target))
    return results


def check_inversion_invariance(config: VerifyConfig) -> list[CheckResult]:
    """Weighted energy is unchanged by composing with ``y -> a y / |y|^2``.

    One map in three is a generalized radial minimizer with a random
    Moebius rotation; the others are twisted minimizers
    ``exp(log r* + k (t - r) / t + eps phi(t)) T0(Rot_z(c (t - r)) eta)`` of known
    energy (see ``_twisted_minimizer``), homeomorphisms on every pair.
    The composed map always goes through the finite-difference route;
    other maps are differentiated from the same stencil samples as
    their composition.  Generalized radial maps take the decomposition
    route for their own energy, so only their composition is
    differentiated, and the check doubles as a cross-check of the two
    quadrature paths; the tolerance is twice the FD energy tolerance,
    one per route.  The check runs at unit scale (see ``_at_unit_scale``).
    """
    with _at_unit_scale(config.pair) as (pair, _, _):
        fd_order = _fd_radial_order(pair.domain)
        mobius_orders = (fd_order, _FD_SPHERE_ORDER)
        rotation_orders = (fd_order, _FD_ROTATION_SPHERE_ORDER)
        rng = np.random.default_rng([config.seed, 2])
        scales = (0.5, 1.0, pair.r_star * pair.R_star)
        worst = 0.0
        for i in range(_N_INVERSION_MAPS):
            invert = sphere_inversion(scales[i % len(scales)])
            if i % 3 == 0:
                orientation = "increasing" if i % 2 == 0 else "decreasing"
                f = GeneralizedRadialMap(exp_profile_from_boundary(pair, orientation),
                                         random_mobius(rng))
                # the decomposition route gives the energy of f itself
                e_f = weighted_energy(f, pair, *mobius_orders, refine=False).value
                [e_g] = _fd_energies(f, pair, *mobius_orders, True, (invert,))
            else:
                f, _ = _twisted_minimizer(pair, rng)
                e_f, e_g = _fd_energies(f, pair, *rotation_orders, True, (_same, invert))
            worst = max(worst, abs(e_f - e_g) / max(abs(e_f), 1.0))
    return [_equality("inversion-invariance-of-weighted-energy", worst, 0.0,
                      2.0 * _FD_ENERGY_REL_TOL,
                      f"{_N_INVERSION_MAPS} maps at scales 0.5; 1; r*R*")]


def check_sphere_inequality(config: VerifyConfig) -> list[CheckResult]:
    """Tangential shell energy: exactly ``8 pi`` for Moebius transforms,
    strictly larger for non-conformal surjections, and the mapped area
    identity ``4 pi``."""
    rng = np.random.default_rng([config.seed, 3])
    quad = make_sphere_quadrature(_SPHERE_ORDER)
    results = []

    transforms = [MobiusTransform.identity()]
    transforms += [random_mobius(rng) for _ in range(_N_TRANSFORMS)]
    # both rows read one pushforward of each transform along both frames
    worst = worst_area = 0.0
    for t in transforms:
        du, dv = _frame_pushforwards(t, quad)
        worst = max(worst, abs(_shell_energy(du, dv, quad) - EIGHT_PI))
        area = float(np.sum(quad.weights * row_norms(_cross(du, dv))))
        worst_area = max(worst_area, abs(area - 4.0 * math.pi))
    results.append(_equality("shell-energy-sharp-at-mobius", worst, 0.0, _CLOSED_FORM_TOL,
                             f"{len(transforms)} transforms on the unit shell"))
    results.append(_equality("mapped-area-identity", worst_area, 0.0, _CLOSED_FORM_TOL,
                             "integral of the gram determinant over the sphere"))

    min_excess = math.inf
    for _ in range(_N_PERTURBATIONS):
        axis = rng.normal(size=3)
        axis /= math.hypot(*axis)
        amp = rng.uniform(0.15, 0.35)

        def stretch(etas, axis=axis, amp=amp):
            # eta . axis summed column by column, as geometry._squared_norms
            # does, then eta + (amp eta . axis) axis a column at a time
            along = etas[:, 0] * axis[0]
            along += etas[:, 1] * axis[1]
            along += etas[:, 2] * axis[2]
            along *= amp
            out = np.empty(etas.shape, order="F")
            for k in range(3):
                col = np.multiply(along, axis[k], out=out[:, k])
                col += etas[:, k]
            out /= row_norms(out)[:, None]
            return out

        min_excess = min(min_excess, sphere_inequality_integral(stretch, quad) - EIGHT_PI)
    results.append(_lower_bound("shell-energy-strict-for-non-mobius", min_excess, 0.0, 0.0,
                                f"{_N_PERTURBATIONS} non-conformal sphere bijections"))
    return results


def _bvp_laplacians(pairs: list[AnnulusPair]) -> np.ndarray:
    """The radial Laplacian ``H'' + 2 H' / t - 2 H / t^2`` of each pair's
    :func:`harmonic_radial_bvp` profile on ``np.linspace(r, R, 100)``, a row
    per pair: one :class:`HarmonicProfile` stack on one array of radii, each
    row with the bits of its own profile on its own radii."""
    prof = _profile_stack(HarmonicProfile, [(q.a, q.b) for q in map(harmonic_radial_bvp, pairs)])
    # contiguous, as numpy's power may take another loop on strided radii
    t = np.ascontiguousarray(np.linspace([p.r for p in pairs], [p.R for p in pairs], 100, axis=1))
    return prof.derivative(t, 2) + 2.0 * prof.derivative(t, 1) / t - 2.0 * prof.eval(t) / t**2


def check_harmonic_bvp(config: VerifyConfig) -> list[CheckResult]:
    """Radial harmonic BVP: threshold equivalence, harmonicity, energy
    closed form, and its ordering against the universal lower bound.

    The threshold row draws radius tuples, not pairs, and decides both
    statements on all of them in two array passes of the filtered exact
    predicates (float signs where an error bound settles them, integers
    elsewhere); the public functions then decide the threshold pair
    ``(1, 2, 12, 17)`` and its one-ulp neighbours in ``r*``, the pairs
    only the exact path decides.  Pairs are built only for the rows that
    read them: the first 50 tuples and the admissible draws.

    The harmonicity row evaluates its 50 BVP profiles as one stack
    (``_bvp_laplacians``)."""
    rng = np.random.default_rng([config.seed, 4])
    results = []

    radii = _random_radii(rng, _N_PAIRS)
    rows = _radius_rows(radii)
    mismatches = int(np.count_nonzero(_admissible_rows(rows) != _monotone_rows(rows)))
    for rs in (math.nextafter(12.0, 0.0), 12.0, math.nextafter(12.0, math.inf)):
        p = AnnulusPair.from_radii(1.0, 2.0, rs, 17.0)
        mismatches += nitsche_condition(p).admissible != harmonic_profile_monotone(p)
    results.append(_equality("nitsche-threshold-matches-monotonicity",
                             float(mismatches), 0.0, 0.0,
                             f"{_N_PAIRS} random pairs; the threshold pair r = 1; R = 2; "
                             "r* = 12; R* = 17 and its one-ulp neighbours in r*"))

    worst_res = _worst(_bvp_laplacians([AnnulusPair.from_radii(*x) for x in radii[:50]]))
    results.append(_equality("harmonic-bvp-radial-laplacian-vanishes",
                             worst_res, 0.0, _RESIDUAL_TOL,
                             "50 random pairs; 100 radii each"))

    # the first 20 of the 100 admissible pairs also take the FD route
    admissible = _random_admissible_pairs(rng, 100)
    exact = [analytic_dirichlet_energy_radial(p) for p in admissible]
    worst_rel = 0.0
    for p, x in zip(admissible[:20], exact):
        f = as_sampled_map(GeneralizedRadialMap(harmonic_radial_bvp(p)))
        num = dirichlet_energy(f, p, _fd_radial_order(p.domain), _FD_ROTATION_SPHERE_ORDER,
                               refine=False).value
        worst_rel = max(worst_rel, abs(num - x) / x)
    results.append(_equality("harmonic-energy-closed-form-vs-quadrature",
                             worst_rel, 0.0, _FD_ENERGY_REL_TOL, "20 admissible pairs"))

    min_gap_rel = math.inf
    for p, x in zip(admissible, exact):
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
    log-derivative density.

    The 20 exponential and the 20 harmonic profiles are each one stack
    (coefficients of shape ``(20, 1)``), drawn member by member and
    evaluated on the 100 radii at once, each row with the bits of its own
    profile's residuals."""
    rng = np.random.default_rng([config.seed, 5])
    results = []
    t = np.linspace(0.8, 4.0, 100)

    prof = _profile_stack(ExponentialProfile,
                          [(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5)) for _ in range(20)])
    worst_el = _worst(el_residual(prof, t))
    worst_wh = _worst(weighted_harmonic_residual(prof, t))
    results.append(_equality("euler-lagrange-residual-vanishes-on-exponential-family",
                             worst_el, 0.0, _RESIDUAL_TOL, "20 random profiles; 100 radii"))
    results.append(_equality("weighted-harmonic-residual-vanishes-on-exponential-family",
                             worst_wh, 0.0, _RESIDUAL_TOL, "same sample"))

    # the identity is checked where both residuals are far from 0, on a
    # family of its own stream so that no other row moves
    link_rng = np.random.default_rng([config.seed, 6])
    prof = _profile_stack(HarmonicProfile,
                          [(link_rng.uniform(0.5, 2.0), link_rng.uniform(0.1, 1.5))
                           for _ in range(20)])
    gap = weighted_harmonic_residual(prof, t) - el_residual(prof, t) / (t**2 * prof.eval(t))
    worst_link = _worst(gap)
    results.append(_equality("weighted-residual-equals-scaled-euler-lagrange",
                             worst_link, 0.0, 1e-12,
                             "identity between the two residuals; 20 random profiles a t + b / t^2"))

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
    a = _form_stiffness(grid, np.empty(50), np.empty(50))
    worst_grad = 0.0
    for _ in range(10):
        k = rng.normal(0.0, 0.5, size=grid.nodes.size)
        grad = reduced_energy_gradient(k, grid)
        # central differences at every interior node j from one stack of
        # states: row j - 1 of plane 0 moves node j by +h_j, of plane 1 by -h_j
        h = 1e-6 * np.maximum(1.0, np.abs(k[1:-1]))
        rows = np.arange(h.size)
        shifted = np.tile(k, (2, h.size, 1))
        shifted[0, rows, rows + 1] += h
        shifted[1, rows, rows + 1] -= h
        energies = _energy_from_coefficients(a, shifted, grid)
        fd = (energies[0] - energies[1]) / (2.0 * h)
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

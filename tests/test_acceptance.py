"""End-to-end acceptance gate.

Each test prints exactly one machine-greppable pass/fail line of the form
``criterion NN PASS|FAIL - detail`` and then asserts, so a failing run
still reports every criterion it reached.  The timed criteria (01, 03
and 10) measure wall time with ``time.perf_counter`` around their own
numpy work: the weighted energies of criterion 01 (5 s), the ten
closed-form, shooting and direct-solve comparisons of criterion 03
(10 s) and the two verification suites of criterion 10 (60 s).  Nothing
is warmed up first: a budget includes whatever first-call work its code
does, such as building quadrature rules, but not the import of
``annuli``.
"""

import json
import math
import time

import numpy as np

from annuli import (
    AnnulusPair,
    GeneralizedRadialMap,
    MobiusTransform,
    VerifyConfig,
    analytic_dirichlet_energy_radial,
    analytic_min_weighted_energy,
    as_sampled_map,
    dirichlet_energy,
    dirichlet_lower_bound,
    discrete_reduced_energy,
    el_residual,
    exp_profile_from_boundary,
    harmonic_profile_monotone,
    harmonic_radial_bvp,
    make_radial_grid,
    make_sphere_quadrature,
    minimize_reduced_energy,
    nitsche_condition,
    perturbed_profile,
    random_admissible_pair,
    random_annulus_pair,
    random_mobius,
    reduced_energy,
    reduced_energy_gradient,
    run_suite,
    shoot_el,
    sphere_inequality_integral,
    weighted_energy,
    weighted_harmonic_residual,
)
from annuli.cli import render_csv
from annuli.verify import _twisted_minimizer
from reference import inversion_transform

CANONICAL = AnnulusPair.from_radii(1.0, 2.0, 1.0, math.e)
SIXTEEN_PI = 16.0 * math.pi
EIGHT_PI = 8.0 * math.pi


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_minimal_energy_value():
    rng = np.random.default_rng(42)
    target = analytic_min_weighted_energy(CANONICAL)
    ok_value = math.isclose(target, SIXTEEN_PI, rel_tol=1e-14)

    start = time.perf_counter()
    h1 = exp_profile_from_boundary(CANONICAL, "increasing")
    transforms = [MobiusTransform.identity()] + [random_mobius(rng) for _ in range(3)]
    worst = 0.0
    for t in transforms:
        rep = weighted_energy(GeneralizedRadialMap(h1, t), CANONICAL, 64, 32)
        worst = max(worst, abs(rep.value - SIXTEEN_PI) / SIXTEEN_PI)
    elapsed = time.perf_counter() - start

    ok = ok_value and worst <= 1e-4 and elapsed <= 5.0
    report(1, ok, f"analytic 16pi exact, numeric rel err {worst:.3e} <= 1e-4 "
                  f"over 4 sphere transforms, {elapsed:.2f}s <= 5s")


def test_criterion_02_discrete_minimization():
    target = analytic_min_weighted_energy(CANONICAL)
    sups = {}
    for n in (500, 1000):
        sol = minimize_reduced_energy(CANONICAL, make_radial_grid(CANONICAL.domain, n))
        sups[n] = sol.sup_error_vs_closed_form
        if n == 1000:
            energy_rel = abs(sol.energy - target) / target
    ratio = sups[500] / sups[1000]

    recip = minimize_reduced_energy(
        CANONICAL, make_radial_grid(CANONICAL.domain, 1000, "uniform-in-1/t"))

    ok = (energy_rel <= 1e-5 and sups[1000] <= 1e-5 and 3.2 <= ratio <= 4.8
          and recip.sup_error_vs_closed_form <= 1e-12)
    report(2, ok, f"n=1000 energy rel {energy_rel:.3e} <= 1e-5, sup {sups[1000]:.3e} <= 1e-5, "
                  f"halving ratio {ratio:.2f} in [3.2, 4.8], "
                  f"reciprocal grid sup {recip.sup_error_vs_closed_form:.3e} <= 1e-12")


def test_criterion_03_three_way_oracle_agreement():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        pair = random_annulus_pair(rng, low=0.5, high=4.0)
        ts = np.linspace(pair.r, pair.R, 501)
        closed = exp_profile_from_boundary(pair, "increasing").eval(ts)
        shot = shoot_el(pair)
        assert shot.converged
        disc = minimize_reduced_energy(pair, make_radial_grid(pair.domain, 1000))
        shoot_vals = shot.profile.eval(ts)
        disc_vals = disc.profile.eval(ts)
        worst = max(worst,
                    float(np.max(np.abs(closed - shoot_vals))),
                    float(np.max(np.abs(closed - disc_vals))),
                    float(np.max(np.abs(shoot_vals - disc_vals))))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-5 and elapsed <= 10.0
    report(3, ok, f"pairwise sup over 10 random pairs {worst:.3e} <= 1e-5, "
                  f"{elapsed:.2f}s <= 10s")


def test_criterion_04_euler_lagrange_residuals():
    rng = np.random.default_rng(42)
    from annuli import ExponentialProfile

    worst = 0.0
    ts = np.linspace(0.8, 4.0, 100)
    profiles = [ExponentialProfile(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5))
                for _ in range(20)]
    profiles.append(ExponentialProfile(1.0, 0.0))  # H == 1
    for prof in profiles:
        worst = max(worst,
                    float(np.max(np.abs(el_residual(prof, ts)))),
                    float(np.max(np.abs(weighted_harmonic_residual(prof, ts)))))

    ok = worst <= 1e-9
    report(4, ok, f"max |residual| over 21 profiles x 100 points {worst:.3e} <= 1e-9")


def test_criterion_05_sharp_sphere_inequality():
    rng = np.random.default_rng(42)
    quad = make_sphere_quadrature(32)

    worst = 0.0
    for _ in range(20):
        worst = max(worst, abs(sphere_inequality_integral(random_mobius(rng), quad) - EIGHT_PI))

    min_excess = math.inf
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        amp = rng.uniform(0.15, 0.35)

        def squash(etas, axis=axis, amp=amp):
            out = etas + amp * (etas @ axis)[:, None] * axis[None, :]
            return out / np.linalg.norm(out, axis=1)[:, None]

        min_excess = min(min_excess, sphere_inequality_integral(squash, quad) - EIGHT_PI)

    ok = worst <= 1e-8 and min_excess > 0.0
    report(5, ok, f"|I - 8pi| {worst:.3e} <= 1e-8 over 20 transforms, "
                  f"non-conformal excess >= {min_excess:.3e} > 0")


def test_criterion_06_inversion_invariance():
    rng = np.random.default_rng(42)
    pair = CANONICAL
    scales = (0.5, 1.0, pair.r_star * pair.R_star)
    worst = 0.0
    for i in range(50):
        kind = i % 3
        if kind == 0:
            orientation = "increasing" if i % 2 == 0 else "decreasing"
            f = GeneralizedRadialMap(exp_profile_from_boundary(pair, orientation),
                                     random_mobius(rng))
        else:
            f, _ = _twisted_minimizer(pair, rng)
        e_f = weighted_energy(f, pair, 32, 16, refine=False).value
        for a in scales:
            e_g = weighted_energy(inversion_transform(f, a), pair, 32, 16, refine=False).value
            worst = max(worst, abs(e_f - e_g) / abs(e_f))

    ok = worst <= 2e-4
    report(6, ok, f"50 maps x 3 inversion scales, worst rel drift {worst:.3e} <= 2e-4")


def test_criterion_07_lower_bound_property():
    rng = np.random.default_rng(42)
    pair = CANONICAL
    target = analytic_min_weighted_energy(pair)
    inc = exp_profile_from_boundary(pair, "increasing")
    grid = make_radial_grid(pair.domain, 200)

    min_gap = math.inf
    for _ in range(67):
        amp = rng.uniform(0.02, 0.5)
        mode = int(rng.integers(1, 5))
        prof = perturbed_profile(inc, amp, mode, seed=int(rng.integers(2**31)), grid=grid)
        min_gap = min(min_gap, reduced_energy(prof, pair.domain) - target)
    for _ in range(33):
        f, _ = _twisted_minimizer(pair, rng)
        min_gap = min(min_gap, weighted_energy(f, pair, 32, 16, refine=False).value - target)

    ok = min_gap >= -1e-6 and min_gap > 0.0  # strict gap desk-check
    report(7, ok, f"100 seeded competitors, min energy gap above 16pi {min_gap:.3e} "
                  f"(>= -1e-6 and strictly positive)")


def test_criterion_08_harmonic_homeomorphisms():
    rng = np.random.default_rng(42)

    mismatches = sum(
        1 for _ in range(1000)
        if (lambda p: nitsche_condition(p).admissible != harmonic_profile_monotone(p))(
            random_annulus_pair(rng))
    )

    spot_pair = AnnulusPair.from_radii(1.0, 2.0, 1.0, 1.2)
    spot = analytic_dirichlet_energy_radial(spot_pair)
    spot_ok = math.isclose(spot, 4.0 * math.pi * 17.0 / 7.0, rel_tol=1e-12)

    worst_rel = 0.0
    ordering_ok = True
    pairs = [spot_pair] + [random_admissible_pair(rng) for _ in range(19)]
    for p in pairs:
        x = analytic_dirichlet_energy_radial(p)
        f = as_sampled_map(GeneralizedRadialMap(harmonic_radial_bvp(p)))
        num = dirichlet_energy(f, p, 32, 16, refine=False).value
        worst_rel = max(worst_rel, abs(num - x) / x)
        ordering_ok = ordering_ok and dirichlet_lower_bound(p) < x

    ok = mismatches == 0 and spot_ok and worst_rel <= 1e-4 and ordering_ok
    report(8, ok, f"threshold<->monotonicity mismatches {mismatches}/1000, "
                  f"spot value 4pi*17/7 exact, BVP energy rel err {worst_rel:.3e} <= 1e-4, "
                  f"lower bound < harmonic energy on all 20 pairs")


def test_criterion_09_gradient_check():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        pair = random_annulus_pair(rng, low=0.5, high=4.0)
        n = int(rng.integers(8, 41))
        mode = "uniform-in-t" if rng.random() < 0.5 else "uniform-in-1/t"
        grid = make_radial_grid(pair.domain, n, mode)
        k = np.linspace(math.log(pair.r_star), math.log(pair.R_star), n + 1)
        k[1:-1] += 0.3 * rng.standard_normal(n - 1)

        analytic = reduced_energy_gradient(k, grid)  # interior nodes only
        fd = np.zeros_like(analytic)
        for i in range(1, n):
            h = 1e-6 * max(1.0, abs(k[i]))
            kp = k.copy(); kp[i] += h
            km = k.copy(); km[i] -= h
            fd[i - 1] = (discrete_reduced_energy(kp, grid)
                         - discrete_reduced_energy(km, grid)) / (2 * h)

        scale = max(float(np.max(np.abs(analytic))), 1e-12)
        worst = max(worst, float(np.max(np.abs(analytic - fd))) / scale)

    ok = worst <= 1e-6
    report(9, ok, f"50 random interior states, worst rel gradient error {worst:.3e} <= 1e-6")


def test_criterion_10_determinism():
    start = time.perf_counter()
    first = run_suite(VerifyConfig(seed=42))
    second = run_suite(VerifyConfig(seed=42))
    elapsed = time.perf_counter() - start

    text_a = render_csv(first.rows())
    text_b = render_csv(second.rows())
    identical = text_a == text_b and json.dumps(first.rows()) == json.dumps(second.rows())

    ok = identical and first.passed and second.passed and elapsed <= 60.0
    report(10, ok, f"two seed-42 runs byte-identical ({len(text_a)} bytes), "
                   f"{len(first.results)} checks all passed, both runs in "
                   f"{elapsed:.2f}s <= 60s")

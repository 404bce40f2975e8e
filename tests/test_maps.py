import math
import re

import numpy as np
import pytest

from annuli import (
    AnnulusPair,
    DomainError,
    EvaluationError,
    ExponentialProfile,
    GeneralizedRadialMap,
    HarmonicProfile,
    SampledProfile,
    exp_profile_from_boundary,
    make_radial_grid,
    map_eval_many,
    perturbed_profile,
    random_mobius,
)
from annuli import _kernels
from reference import inversion_transform, map_differential


def fd_derivative(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def fd_second(fn, t, h=1e-5):
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / (h * h)


class TestExponentialProfile:
    """H(t) = a exp(b (1 / t - 1 / t0)), a exp(b / t) for the default t0 = inf."""

    def test_eval_matches_formula(self):
        p = ExponentialProfile(2.0, -1.5)
        assert math.isclose(p.eval(3.0), 2.0 * math.exp(-0.5), rel_tol=1e-15)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, -2.0), (3.0, 0.0)])
    def test_derivatives_against_finite_differences(self, a, b):
        p = ExponentialProfile(a, b)
        for t in (0.7, 1.3, 2.9):
            assert math.isclose(p.derivative(t), fd_derivative(p.eval, t), rel_tol=1e-8)
            assert math.isclose(p.derivative(t, 2), fd_second(p.eval, t), rel_tol=1e-4)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            ExponentialProfile(-1.0, 0.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            ExponentialProfile(1.0, 1.0).eval(0.0)

    def test_anchored_profile_is_a_at_its_anchor(self):
        # a exp(b (1 / t - 1 / t0)) is the unanchored a exp(-b / t0) exp(b / t)
        p = ExponentialProfile(2.0, -1.5, t0=1.25)
        assert p.eval(1.25) == 2.0
        q = ExponentialProfile(2.0 * math.exp(1.5 / 1.25), -1.5)
        ts = np.linspace(0.5, 4.0, 9)
        np.testing.assert_allclose(p.eval(ts), q.eval(ts), rtol=1e-15, atol=0.0)
        for order in (1, 2):
            np.testing.assert_allclose(p.derivative(ts, order), q.derivative(ts, order),
                                       rtol=1e-15, atol=0.0)

    def test_value_at_the_float_maximum_is_finite(self):
        # H(R) = R* is the float maximum; log r* + ell rounds past its log, where
        # exp overflowed with a warning
        top = 1.7976931348623157e308
        pair = AnnulusPair.from_radii(1.0, 2.0, 3.0, top)
        h = exp_profile_from_boundary(pair)
        assert math.log(h.a) + (h.b / h.t0) * ((h.t0 - 2.0) / 2.0) > math.log(top)
        assert math.isclose(h.eval(2.0), top, rel_tol=1e-13)
        assert np.all(np.isfinite(h.eval(np.linspace(1.0, 2.0, 101))))
        # beyond the exponent's rounding the value is beyond the float range
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert ExponentialProfile(top, 1e-12, t0=1.0).eval(0.5) == math.inf

    @pytest.mark.parametrize("t0", [0.0, -1.0, math.nan])
    def test_anchor_must_be_positive(self, t0):
        with pytest.raises(ValueError):
            ExponentialProfile(1.0, 1.0, t0=t0)


class TestHarmonicProfile:
    """H(t) = a t + b / t^2, the radial part of a harmonic map."""

    def test_eval_and_derivatives(self):
        p = HarmonicProfile(2.0, 3.0)
        t = 1.7
        assert math.isclose(p.eval(t), 2.0 * t + 3.0 / t**2, rel_tol=1e-15)
        assert math.isclose(p.derivative(t), fd_derivative(p.eval, t), rel_tol=1e-9)
        assert math.isclose(p.derivative(t, 2), fd_second(p.eval, t), rel_tol=1e-5)

    def test_profile_helpers_dispatch(self):
        p = HarmonicProfile(1.0, 1.0)
        ts = np.array([1.0, 2.0])
        assert np.allclose(p.eval(ts), ts + 1.0 / ts**2)
        assert np.allclose(p.derivative(ts), 1.0 - 2.0 / ts**3)


class TestSampledProfile:
    def test_interpolates_linearly_between_nodes(self, canonical_pair):
        grid = make_radial_grid(canonical_pair.domain, 4)
        values = grid.nodes**2
        p = SampledProfile(grid=grid, values=values)
        mid = 0.5 * (grid.nodes[1] + grid.nodes[2])
        expect = 0.5 * (values[1] + values[2])
        assert math.isclose(p.eval(mid), expect, rel_tol=1e-14)

    def test_rejects_nonpositive_values(self, canonical_pair):
        grid = make_radial_grid(canonical_pair.domain, 4)
        with pytest.raises(ValueError):
            SampledProfile(grid=grid, values=np.array([1.0, 1.0, 0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_values(self, canonical_pair, bad):
        grid = make_radial_grid(canonical_pair.domain, 4)
        with pytest.raises(ValueError, match="strictly positive and finite"):
            SampledProfile(grid=grid, values=np.array([1.0, bad, 2.0, 2.0, 3.0]))

    def test_eval_outside_domain_raises(self, canonical_pair):
        grid = make_radial_grid(canonical_pair.domain, 4)
        p = SampledProfile(grid=grid, values=np.ones(5))
        with pytest.raises(DomainError):
            p.eval(2.5)


_FRONT_GRID = make_radial_grid(AnnulusPair.from_radii(1.0, 2.0, 1.0, math.e).domain, 16)


class TestProfileFront:
    """Every profile class shares one eval front, and the closed forms one
    derivative front."""

    @pytest.mark.parametrize("profile, outside", [
        (ExponentialProfile(2.0, -1.5), 0.0),
        (HarmonicProfile(2.0, 3.0), -1.0),
        (SampledProfile(grid=_FRONT_GRID, values=np.exp(1.0 / _FRONT_GRID.nodes)), 2.5),
    ], ids=["exponential", "harmonic", "sampled"])
    def test_scalars_arrays_orders_and_domain(self, profile, outside):
        ts = np.array([[1.2, 1.5], [1.7, 1.9]])
        calls = [profile.eval]
        if isinstance(profile, SampledProfile):
            # a sampled profile has values only
            assert not hasattr(profile, "derivative")
        else:
            calls += [profile.derivative, lambda t: profile.derivative(t, 2)]
            with pytest.raises(ValueError, match="derivative order must be 1 or 2"):
                profile.derivative(1.5, 3)
        for call in calls:
            assert type(call(1.5)) is float
            assert call(ts).shape == ts.shape
        for call in calls[:2]:
            with pytest.raises(DomainError):
                call(outside)


class TestBoundaryProfiles:
    def test_increasing_profile_hits_the_target_radii(self, canonical_pair):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        assert math.isclose(h1.eval(1.0), 1.0, rel_tol=1e-14)
        assert math.isclose(h1.eval(2.0), math.e, rel_tol=1e-14)

    def test_canonical_coefficients(self, canonical_pair):
        # H = e^2 exp(-2 / t) for the (1, 2) -> (1, e) problem, anchored at
        # t0 = r = 1, where a = H(1) = 1
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        assert h1.a == 1.0 and h1.t0 == 1.0
        assert math.isclose(h1.b, -2.0, abs_tol=1e-13)
        assert math.isclose(h1.a * math.exp(-h1.b / h1.t0), math.e**2, rel_tol=1e-13)

    def test_two_minimizers_multiply_to_constant(self, canonical_pair, rng):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        h2 = exp_profile_from_boundary(canonical_pair, "decreasing")
        ts = rng.uniform(1.0, 2.0, size=50)
        rr = canonical_pair.r_star * canonical_pair.R_star
        assert np.allclose(h1.eval(ts) * h2.eval(ts), rr, rtol=1e-13)

    def test_decreasing_profile_swaps_boundary_values(self, canonical_pair):
        h2 = exp_profile_from_boundary(canonical_pair, "decreasing")
        assert math.isclose(h2.eval(1.0), math.e, rel_tol=1e-14)
        assert math.isclose(h2.eval(2.0), 1.0, rel_tol=1e-14)

    @pytest.mark.parametrize("radii", [(1.0, 2.0, 1.0, math.e), (0.5, 3.0, 2.0, 7.0)])
    def test_paper_formula_with_its_sign_corrected(self, radii):
        # the paper prints rho(t) = R* (r*/R*)^(R (r - t) / ((R - r) t)),
        # which is R*^2 / r* at t = R, outside the target shell; with the
        # exponent R (t - r) / ((R - r) t) it is the decreasing minimizer
        pair = AnnulusPair.from_radii(*radii)
        r, R, rs, Rs = radii

        def rho(t, sign):
            return Rs * (rs / Rs) ** (sign * R * (t - r) / ((R - r) * t))

        assert math.isclose(rho(R, -1.0), Rs**2 / rs, rel_tol=1e-14)
        ts = np.linspace(r, R, 7)
        h2 = exp_profile_from_boundary(pair, "decreasing")
        np.testing.assert_allclose(rho(ts, 1.0), h2.eval(ts), rtol=1e-14, atol=0.0)

    def test_unknown_orientation_rejected(self, canonical_pair):
        with pytest.raises(ValueError):
            exp_profile_from_boundary(canonical_pair, "sideways")

    @pytest.mark.parametrize("orientation", ["increasing", "decreasing"])
    def test_subnormal_b_is_an_evaluation_error(self, orientation):
        # b = -log(1e300) r R / (R - r) is -3.4e-321, four digits of a
        # subnormal: H(r) came out 0.80 instead of 1
        pair = AnnulusPair.from_radii(5e-324, 1.0, 1.0, 1e300)
        with pytest.raises(EvaluationError, match=r"has b = .*subnormal.*r = 5e-324"):
            exp_profile_from_boundary(pair, orientation)

    def test_subnormal_product_with_negligible_exponent_is_kept(self):
        # -ell r R is subnormal here too, but b / r is about 2e-15, so the
        # rounding moves H by a few ulps only
        pair = AnnulusPair.from_radii(1e-154, 2e-154, 1.0, 1.000000000000001)
        h = exp_profile_from_boundary(pair, "increasing")
        assert math.isclose(h.eval(1e-154), 1.0, rel_tol=1e-14)
        assert math.isclose(h.eval(2e-154), 1.000000000000001, rel_tol=1e-14)

    @pytest.mark.parametrize("radii, orientation", [
        ((1.0, 2.0, 1e-300, 1e-10), "increasing"),   # exp(1335.5) overflows, a ~ 1e280
        ((1.0, 2.0, 1e10, 1e300), "decreasing"),     # exp(-1335.5) underflows, a ~ 1e-280
    ], ids=["exp-overflows", "exp-underflows"])
    def test_a_in_range_is_found_where_exp_of_the_exponent_is_not(self, radii, orientation):
        pair = AnnulusPair.from_radii(*radii)
        h = exp_profile_from_boundary(pair, orientation)
        at_r, at_R = (pair.r_star, pair.R_star)[::1 if orientation == "increasing" else -1]
        assert math.isclose(h.eval(pair.r), at_r, rel_tol=1e-13)
        assert math.isclose(h.eval(pair.R), at_R, rel_tol=1e-13)


class TestGeneralizedRadialMap:
    def test_identity_rotation_scales_rays(self, canonical_pair):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        f = GeneralizedRadialMap(h1)
        x = np.array([1.5, 0.0, 0.0])
        assert np.allclose(map_eval_many(f, x[None])[0], [h1.eval(1.5), 0.0, 0.0], rtol=1e-14)

    def test_norm_of_image_is_profile_value(self, canonical_pair, rng):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        f = GeneralizedRadialMap(h1, rotation=random_mobius(rng))
        pts = rng.normal(size=(30, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        ts = rng.uniform(1.0, 2.0, size=30)
        xs = pts * ts[:, None]
        assert np.allclose(np.linalg.norm(map_eval_many(f, xs), axis=1), h1.eval(ts), rtol=1e-12)

    def test_identity_rotation_gives_the_kernel_bits(self, canonical_pair, rng):
        # the identity skips the sphere action; the kernel's quotient by
        # w . p + w0 = 1 is exact, so only the sign of an exact zero may differ
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        pts = rng.normal(size=(500, 3))
        pts[:3] = np.eye(3)
        pts[3:6] = -np.eye(3)
        pts *= rng.uniform(1.0, 2.0, size=(500, 1)) / np.linalg.norm(pts, axis=1)[:, None]
        t = np.linalg.norm(pts, axis=1)
        expect = h1.eval(t)[:, None] * _kernels.mobius_apply_points(1, 0, 0, 1, pts / t[:, None])
        got = map_eval_many(GeneralizedRadialMap(h1), pts)
        assert np.all(np.isfinite(got)) and np.array_equal(got, expect)

    def test_eval_outside_annulus_raises(self, canonical_pair):
        grid = make_radial_grid(canonical_pair.domain, 16)
        f = GeneralizedRadialMap(SampledProfile(grid=grid, values=np.ones(17)))
        with pytest.raises(DomainError):
            map_eval_many(f, np.array([[3.0, 0.0, 0.0]]))


class TestMapDifferential:
    def test_analytic_matches_finite_differences(self, canonical_pair, rng):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        f = GeneralizedRadialMap(h1, rotation=random_mobius(rng))
        for _ in range(10):
            x = rng.normal(size=3)
            x *= rng.uniform(1.1, 1.9) / np.linalg.norm(x)
            h = 1e-5 * np.linalg.norm(x)
            vals = map_eval_many(f, np.vstack([x + h * np.eye(3), x - h * np.eye(3)]))
            d_fd = (vals[:3] - vals[3:]).T / (2.0 * h)
            assert np.allclose(map_differential(f, x), d_fd, atol=1e-6)

    def test_radial_map_frobenius_norm(self, canonical_pair):
        # ||Df||^2 = H'^2 + 2 H^2 / t^2 for the identity rotation
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        f = GeneralizedRadialMap(h1)
        t = 1.5
        d = map_differential(f, np.array([t, 0.0, 0.0]))
        expect = h1.derivative(t) ** 2 + 2.0 * h1.eval(t) ** 2 / t**2
        assert math.isclose(float(np.sum(d * d)), expect, rel_tol=1e-12)


class TestInversionTransform:
    def test_norm_identity(self, canonical_pair, rng):
        # |a f / |f|^2| = a / |f|
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        f = GeneralizedRadialMap(h1, rotation=random_mobius(rng))
        g = inversion_transform(f, a=2.0)
        pts = rng.normal(size=(20, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        ts = rng.uniform(1.0, 2.0, size=20)
        xs = pts * ts[:, None]
        norms_f = np.linalg.norm(map_eval_many(f, xs), axis=1)
        norms_g = np.linalg.norm(map_eval_many(g, xs), axis=1)
        assert np.allclose(norms_g, 2.0 / norms_f, rtol=1e-12)

    def test_double_inversion_is_identity(self, canonical_pair, rng):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        f = GeneralizedRadialMap(h1)
        gg = inversion_transform(inversion_transform(f, a=1.0), a=1.0)
        x = np.array([0.0, 1.5, 0.0])
        assert np.allclose(map_eval_many(gg, x[None]), map_eval_many(f, x[None]), rtol=1e-12)

    def test_vanishing_image_raises(self):
        def zero_map(pts):
            return np.zeros_like(pts)

        from annuli import SampledMap

        g = inversion_transform(SampledMap(evaluator=zero_map), a=1.0)
        with pytest.raises(EvaluationError):
            map_eval_many(g, np.array([[1.0, 0.0, 0.0]]))

    def test_scale_must_be_positive(self, canonical_pair):
        f = GeneralizedRadialMap(exp_profile_from_boundary(canonical_pair, "increasing"))
        with pytest.raises(ValueError):
            inversion_transform(f, a=0.0)


class TestSampledMap:
    @pytest.mark.parametrize("evaluator, shape", [(lambda x: x[:, :2], (2, 2)),
                                                  (lambda x: x[:, 0], (2,))],
                             ids=["two-columns", "one-dimensional"])
    def test_evaluator_of_the_wrong_shape_is_rejected(self, evaluator, shape, canonical_pair):
        from annuli import SampledMap, weighted_energy

        f = SampledMap(evaluator=evaluator)
        message = f"map evaluator returned shape {shape}, not (2, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            map_eval_many(f, np.ones((2, 3)))
        # the FD route evaluates on the stencil and used to integrate the result
        with pytest.raises(ValueError, match="map evaluator returned shape"):
            weighted_energy(f, canonical_pair, 16, 8, refine=False)


class TestPerturbedProfile:
    def test_endpoints_are_preserved(self, canonical_pair):
        base = exp_profile_from_boundary(canonical_pair, "increasing")
        grid = make_radial_grid(canonical_pair.domain, 64)
        p = perturbed_profile(base, 0.2, mode=2, seed=3, grid=grid)
        assert math.isclose(p.eval(1.0), base.eval(1.0), rel_tol=1e-12)
        assert math.isclose(p.eval(2.0), base.eval(2.0), rel_tol=1e-12)

    def test_same_seed_reproduces(self, canonical_pair):
        base = exp_profile_from_boundary(canonical_pair, "increasing")
        grid = make_radial_grid(canonical_pair.domain, 64)
        p1 = perturbed_profile(base, 0.2, mode=3, seed=11, grid=grid)
        p2 = perturbed_profile(base, 0.2, mode=3, seed=11, grid=grid)
        assert np.array_equal(p1.values, p2.values)

    def test_positivity_guard(self, canonical_pair):
        base = exp_profile_from_boundary(canonical_pair, "increasing")
        # seed 0 draws one positive coefficient, so the bump is sin(pi s);
        # a downward full-depth bump pushes the profile through zero
        with pytest.raises(ValueError, match="positivity"):
            perturbed_profile(base, -1.5, mode=1, seed=0,
                              grid=make_radial_grid(canonical_pair.domain, 64))

    def test_values_beyond_the_float_range_are_an_evaluation_error(self, canonical_pair):
        # one of the two signs raises the profile at the float maximum past it;
        # the product overflowed with a warning and failed as a bad profile
        base = ExponentialProfile(1.7976931348623157e308, 0.0)
        grid = make_radial_grid(canonical_pair.domain, 8)
        outcomes = []
        for amplitude in (0.5, -0.5):
            try:
                perturbed_profile(base, amplitude, mode=1, seed=0, grid=grid)
                outcomes.append("kept")
            except EvaluationError as exc:
                assert re.search(r"exceeds the float range at t = 1\.125 \(node 1\)", str(exc))
                outcomes.append("raised")
        assert sorted(outcomes) == ["kept", "raised"]

    @pytest.mark.parametrize("mode", [2.5, True, 0])
    @pytest.mark.parametrize("seed", [3])
    def test_mode_must_be_a_positive_integer(self, canonical_pair, mode, seed):
        # a fractional mode would move the outer endpoint (sin(2.5 pi) = 1)
        base = exp_profile_from_boundary(canonical_pair, "increasing")
        grid = make_radial_grid(canonical_pair.domain, 64)
        with pytest.raises(ValueError, match="mode"):
            perturbed_profile(base, 0.2, mode=mode, seed=seed, grid=grid)

    def test_numpy_integer_mode_accepted(self, canonical_pair):
        base = exp_profile_from_boundary(canonical_pair, "increasing")
        grid = make_radial_grid(canonical_pair.domain, 64)
        p = perturbed_profile(base, 0.2, mode=np.int64(2), seed=3, grid=grid)
        assert math.isclose(p.eval(2.0), base.eval(2.0), rel_tol=1e-12)

    @pytest.mark.parametrize("amplitude", [math.inf, math.nan])
    def test_amplitude_must_be_finite(self, canonical_pair, amplitude):
        base = exp_profile_from_boundary(canonical_pair, "increasing")
        grid = make_radial_grid(canonical_pair.domain, 64)
        with pytest.raises(ValueError, match="amplitude must be finite"):
            perturbed_profile(base, amplitude, mode=1, seed=0, grid=grid)

    def test_zero_amplitude_reproduces_base(self, canonical_pair):
        base = exp_profile_from_boundary(canonical_pair, "increasing")
        p = perturbed_profile(base, 0.0, mode=1, seed=0,
                              grid=make_radial_grid(canonical_pair.domain, 64))
        assert np.allclose(p.values, base.eval(p.grid.nodes), rtol=1e-13)

import math

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
    inversion_transform,
    make_radial_grid,
    map_eval_many,
    perturbed_profile,
    random_mobius,
)
from reference import map_differential


def fd_derivative(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def fd_second(fn, t, h=1e-5):
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / (h * h)


class TestExponentialProfile:
    """H(t) = a exp(b / t)."""

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

    def test_nodal_derivatives_second_order(self, canonical_pair):
        # interior stencil should recover smooth profiles to O(h^2)
        errs = []
        for n in (50, 100):
            grid = make_radial_grid(canonical_pair.domain, n)
            values = np.exp(1.0 / grid.nodes)
            p = SampledProfile(grid=grid, values=values)
            exact = -np.exp(1.0 / grid.nodes) / grid.nodes**2
            errs.append(np.max(np.abs(p.derivative(grid.nodes[1:-1]) - exact[1:-1])))
        assert errs[0] / errs[1] > 3.0


_FRONT_GRID = make_radial_grid(AnnulusPair.from_radii(1.0, 2.0, 1.0, math.e).domain, 16)


class TestProfileFront:
    """Every profile class shares one eval / derivative front."""

    @pytest.mark.parametrize("profile, outside", [
        (ExponentialProfile(2.0, -1.5), 0.0),
        (HarmonicProfile(2.0, 3.0), -1.0),
        (SampledProfile(grid=_FRONT_GRID, values=np.exp(1.0 / _FRONT_GRID.nodes)), 2.5),
    ], ids=["exponential", "harmonic", "sampled"])
    def test_scalars_arrays_orders_and_domain(self, profile, outside):
        ts = np.array([[1.2, 1.5], [1.7, 1.9]])
        for call in (profile.eval, profile.derivative, lambda t: profile.derivative(t, 2)):
            assert type(call(1.5)) is float
            assert call(ts).shape == ts.shape
        with pytest.raises(ValueError, match="derivative order must be 1 or 2"):
            profile.derivative(1.5, 3)
        for call in (profile.eval, profile.derivative):
            with pytest.raises(DomainError):
                call(outside)


class TestBoundaryProfiles:
    def test_increasing_profile_hits_the_target_radii(self, canonical_pair):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        assert math.isclose(h1.eval(1.0), 1.0, rel_tol=1e-14)
        assert math.isclose(h1.eval(2.0), math.e, rel_tol=1e-14)

    def test_canonical_coefficients(self, canonical_pair):
        # a = e^2 and b = -2 for the (1, 2) -> (1, e) problem
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        assert math.isclose(h1.a, math.e**2, rel_tol=1e-13)
        assert math.isclose(h1.b, -2.0, abs_tol=1e-13)

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

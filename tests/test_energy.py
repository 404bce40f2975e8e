import math

import numpy as np
import pytest

from annuli import (
    AnnulusPair,
    DomainError,
    EvaluationError,
    GeneralizedRadialMap,
    SampledMap,
    analytic_min_weighted_energy,
    as_sampled_map,
    dirichlet_energy,
    dirichlet_lower_bound,
    exp_profile_from_boundary,
    inversion_transform,
    random_mobius,
    reduced_energy,
    weighted_energy,
)
from annuli.energy import _fd_energies, _same
from annuli.maps import sphere_inversion
from annuli.verify import (
    _angular_competitor,
    _smooth_bump_map,
    random_admissible_pair,
    random_annulus_pair,
)

PI = math.pi


class TestAnalyticMinimum:
    def test_reference_pair_gives_16_pi(self, canonical_pair):
        assert math.isclose(analytic_min_weighted_energy(canonical_pair), 16.0 * PI,
                            rel_tol=1e-15)

    def test_degenerate_target_gives_width_term_only(self):
        # log factor vanishes: 4 pi * 2 (R - r)
        pair = AnnulusPair.from_radii(1.0, 2.0, 1.0, 1.0)
        assert math.isclose(analytic_min_weighted_energy(pair), 8.0 * PI, rel_tol=1e-15)

    def test_closed_form_general_pair(self):
        r, R, rs, Rs = 0.5, 3.0, 2.0, 5.0
        pair = AnnulusPair.from_radii(r, R, rs, Rs)
        expect = 4.0 * PI * (2.0 * (R - r) + r * R * math.log(Rs / rs) ** 2 / (R - r))
        assert math.isclose(analytic_min_weighted_energy(pair), expect, rel_tol=1e-15)

    def test_requires_weighted_pair(self):
        # the weight divides by |f|: a zero target radius has no pair to evaluate
        with pytest.raises(DomainError, match="inner radius must be positive, got 0.0"):
            AnnulusPair.from_radii(1.0, 2.0, 0.0, 1.0)

    def test_target_ratio_beyond_float_range(self):
        # R_star / r_star overflows; the log of the ratio does not
        pair = AnnulusPair.from_radii(1.0, 2.0, 1e-300, 1e300)
        ell = 600.0 * math.log(10.0)
        expect = 4.0 * PI * (2.0 + 2.0 * ell * ell)
        assert math.isclose(analytic_min_weighted_energy(pair), expect, rel_tol=1e-12)

    def test_radii_product_beyond_float_range(self):
        # r * R overflows; the minimum, about 8 pi 1e300, does not
        r, R = 1e200, 1e300
        pair = AnnulusPair.from_radii(r, R, 1.0, 2.0)
        ell = math.log(2.0)
        expect = 4.0 * PI * (2.0 * (R - r) + r * (R / (R - r)) * ell * ell)
        assert math.isclose(analytic_min_weighted_energy(pair), expect, rel_tol=1e-12)

    def test_minimum_beyond_float_range_is_inf(self):
        # 2 (R - r) overflows
        pair = AnnulusPair.from_radii(1.0, 1e308, 1.0, 2.0)
        assert analytic_min_weighted_energy(pair) == math.inf


class TestReducedEnergy:
    def test_minimizer_profile_attains_the_minimum(self, canonical_pair):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        val = reduced_energy(h1, canonical_pair.domain)
        assert math.isclose(val, 16.0 * PI, rel_tol=1e-13)

    def test_both_orientations_have_equal_energy(self, canonical_pair):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        h2 = exp_profile_from_boundary(canonical_pair, "decreasing")
        e1 = reduced_energy(h1, canonical_pair.domain)
        e2 = reduced_energy(h2, canonical_pair.domain)
        assert math.isclose(e1, e2, rel_tol=1e-13)

    def test_constant_profile_energy_is_width_term(self, canonical_pair):
        from annuli import ExponentialProfile

        val = reduced_energy(ExponentialProfile(1.5, 0.0), canonical_pair.domain)
        assert math.isclose(val, 8.0 * PI, rel_tol=1e-14)


class TestWeightedEnergy:
    def test_minimizer_map_reaches_analytic_minimum(self, canonical_pair):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        rep = weighted_energy(GeneralizedRadialMap(h1), canonical_pair)
        assert math.isclose(rep.value, 16.0 * PI, rel_tol=1e-12)
        assert rep.radial_part is not None and rep.spherical_part is not None
        assert math.isclose(rep.radial_part + rep.spherical_part, rep.value, rel_tol=1e-14)

    def test_rotation_does_not_change_energy(self, canonical_pair, rng):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        plain = weighted_energy(GeneralizedRadialMap(h1), canonical_pair).value
        for _ in range(3):
            rot = weighted_energy(GeneralizedRadialMap(h1, rotation=random_mobius(rng)),
                                  canonical_pair).value
            assert math.isclose(rot, plain, rel_tol=1e-11)

    def test_constant_norm_map_energy(self, canonical_pair):
        # |f| = c kills the radial term; the weight cancels c:
        # remaining spherical term integrates to 8 pi (R - r) / ... over t
        from annuli import ExponentialProfile

        f = GeneralizedRadialMap(ExponentialProfile(1.5, 0.0))
        rep = weighted_energy(f, canonical_pair)
        assert math.isclose(rep.value, 8.0 * PI, rel_tol=1e-12)

    def test_fd_route_agrees_with_decomposition(self, canonical_pair, rng):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        f = GeneralizedRadialMap(h1, rotation=random_mobius(rng))
        exact = weighted_energy(f, canonical_pair).value
        fd = weighted_energy(as_sampled_map(f), canonical_pair,
                             radial_order=32, sphere_order=16, refine=False).value
        assert math.isclose(fd, exact, rel_tol=1e-6)

    def test_refinement_delta_is_small_for_smooth_maps(self, canonical_pair):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        rep = weighted_energy(GeneralizedRadialMap(h1), canonical_pair, refine=True)
        assert rep.refinement_delta is not None
        assert rep.refinement_delta < 1e-10

    def test_vanishing_image_is_an_evaluation_error(self, canonical_pair):
        def collapse(pts):
            return np.zeros_like(pts)

        with pytest.raises(EvaluationError, match="quadrature node"):
            weighted_energy(SampledMap(evaluator=collapse), canonical_pair,
                            radial_order=8, sphere_order=4, refine=False)

    @pytest.mark.parametrize("energy", [weighted_energy, dirichlet_energy])
    def test_radii_beyond_float_range_are_an_evaluation_error(self, energy):
        # t^2 overflows in the radial integral, which used to give nan
        pair = AnnulusPair.from_radii(1.0, 1e300, 1.0, 2.0)
        f = GeneralizedRadialMap(exp_profile_from_boundary(pair, "increasing"))
        with pytest.raises(EvaluationError, match=r"not finite .*t\^2 overflows.*too large"):
            energy(f, pair, refine=False)
        with pytest.raises(EvaluationError, match=r"not finite .*t\^2 overflows.*too large"):
            reduced_energy(f.profile, pair.domain)

    @pytest.mark.parametrize("energy", [weighted_energy, dirichlet_energy])
    def test_tiny_radii_name_the_underflow(self, energy):
        # t^2 underflows to zero, so H' = -b / t^2 * H is 0 / 0; that is no
        # overflow, and the message used to call the radii too large
        pair = AnnulusPair.from_radii(5e-324, 1e-300, 1.0, 1.0)
        f = GeneralizedRadialMap(exp_profile_from_boundary(pair, "increasing"))
        with pytest.raises(EvaluationError, match=r"not finite .*t\^2 underflows.*too small"):
            energy(f, pair, refine=False)
        with pytest.raises(EvaluationError, match=r"not finite .*t\^2 underflows.*too small"):
            reduced_energy(f.profile, pair.domain)


def _inversion_test_map(kind, pair, rng):
    if kind == "radial":
        return GeneralizedRadialMap(exp_profile_from_boundary(pair, "decreasing"),
                                    random_mobius(rng))
    if kind == "bump":
        return _smooth_bump_map(pair, rng)
    return _angular_competitor(pair, rng)


class TestWeightedEnergiesWithInversion:
    @pytest.mark.parametrize("kind", ["radial", "bump", "angular"])
    @pytest.mark.parametrize("scale", ["0.5", "1", "r*R*"])
    def test_equals_separate_fd_routes(self, canonical_pair, rng, kind, scale):
        pair = canonical_pair
        a = {"0.5": 0.5, "1": 1.0, "r*R*": pair.r_star * pair.R_star}[scale]
        f = _inversion_test_map(kind, pair, rng)
        e_f, e_g = _fd_energies(f, pair, 32, 16, True, (_same, sphere_inversion(a)))
        g = inversion_transform(f, a)
        assert e_g == weighted_energy(g, pair, 32, 16, refine=False).value
        sampled = as_sampled_map(f)
        assert e_f == weighted_energy(sampled, pair, 32, 16, refine=False).value
        assert math.isclose(e_f, e_g, rel_tol=2e-4)

    def test_map_hitting_the_origin_is_an_evaluation_error(self, canonical_pair):
        def collapse(pts):
            return np.zeros_like(pts)

        with pytest.raises(EvaluationError, match="hit the origin"):
            _fd_energies(SampledMap(evaluator=collapse), canonical_pair, 8, 4, True,
                         (_same, sphere_inversion(1.0)))

    @pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_scale(self, canonical_pair, a):
        f = GeneralizedRadialMap(exp_profile_from_boundary(canonical_pair, "increasing"))
        with pytest.raises(ValueError, match="inversion scale"):
            _fd_energies(f, canonical_pair, 32, 16, True, (_same, sphere_inversion(a)))


class TestDirichletEnergy:
    def test_identity_map_energy(self):
        # ||Dx||^2 = 3, so the integral is 3 * (4 pi / 3) (R^3 - r^3) = 28 pi
        pair = AnnulusPair.from_radii(1.0, 2.0, 1.0, 2.0)
        f = GeneralizedRadialMap(exp_profile_from_boundary(pair, "increasing"))
        from annuli import HarmonicProfile

        ident = GeneralizedRadialMap(HarmonicProfile(1.0, 0.0))
        rep = dirichlet_energy(ident, pair)
        assert math.isclose(rep.value, 28.0 * PI, rel_tol=1e-12)
        del f

    def test_retraction_to_sphere_energy(self, canonical_pair):
        # f = x / |x|: ||Df||^2 = 2 / t^2, integral = 8 pi (R - r)
        from annuli import ExponentialProfile

        f = GeneralizedRadialMap(ExponentialProfile(1.0, 0.0))
        rep = dirichlet_energy(f, canonical_pair)
        assert math.isclose(rep.value, 8.0 * PI, rel_tol=1e-12)

    def test_fd_route_matches_decomposition(self, canonical_pair, rng):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        f = GeneralizedRadialMap(h1, rotation=random_mobius(rng))
        exact = dirichlet_energy(f, canonical_pair).value
        fd = dirichlet_energy(as_sampled_map(f), canonical_pair,
                              radial_order=32, sphere_order=16, refine=False).value
        assert math.isclose(fd, exact, rel_tol=1e-6)


class TestLowerBound:
    def test_scales_with_inner_target_radius_squared(self, canonical_pair):
        x = analytic_min_weighted_energy(canonical_pair)
        assert math.isclose(dirichlet_lower_bound(canonical_pair), x, rel_tol=1e-15)
        scaled = AnnulusPair.from_radii(1.0, 2.0, 2.0, 2.0 * math.e)
        assert math.isclose(dirichlet_lower_bound(scaled),
                            4.0 * analytic_min_weighted_energy(scaled), rel_tol=1e-15)

    def test_bound_sits_below_harmonic_energy(self):
        from annuli import analytic_dirichlet_energy_radial

        rng = np.random.default_rng(10)
        for _ in range(25):
            pair = random_admissible_pair(rng)
            assert dirichlet_lower_bound(pair) < analytic_dirichlet_energy_radial(pair)

    def test_bound_beyond_float_range_is_inf(self):
        # r_star^2 overflows
        pair = AnnulusPair.from_radii(1.0, 2.0, 1e200, 1e300)
        assert dirichlet_lower_bound(pair) == math.inf

    @pytest.mark.parametrize("radii, expect", [
        # r_star^2 underflows to 0 and r * R overflows: 0 * inf was nan
        ((1e200, 1e300, 1e-300, 1.0), 8.0 * PI * 1e-300),
        # r_star^2 underflows to 0 and the minimum overflows
        ((1.0, 1.7e308, 1e-300, 1.0), 8.0 * PI * 1.7e-292),
        # the minimum overflows, the bound does not
        ((1.0, 1e308, 1e-100, 1.0), 8.0 * PI * 1e108),
    ])
    def test_bound_with_a_factor_beyond_float_range(self, radii, expect):
        bound = dirichlet_lower_bound(AnnulusPair.from_radii(*radii))
        assert math.isclose(bound, expect, rel_tol=1e-12)

    def test_bound_holds_for_actual_maps(self, rng):
        for _ in range(5):
            pair = random_annulus_pair(rng)
            f = GeneralizedRadialMap(exp_profile_from_boundary(pair, "increasing"),
                                     rotation=random_mobius(rng))
            val = dirichlet_energy(f, pair).value
            assert val >= dirichlet_lower_bound(pair) - 1e-9 * abs(val)

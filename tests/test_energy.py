import math
import sys
import threading

import numpy as np
import pytest

from annuli import (
    Annulus,
    AnnulusPair,
    DomainError,
    EvaluationError,
    ExponentialProfile,
    GeneralizedRadialMap,
    HarmonicProfile,
    SampledMap,
    SampledProfile,
    analytic_min_weighted_energy,
    as_sampled_map,
    dirichlet_energy,
    dirichlet_lower_bound,
    exp_profile_from_boundary,
    make_radial_grid,
    random_mobius,
    reduced_energy,
    weighted_energy,
)
from annuli import energy
from annuli.energy import _fd_energies, _fd_stencil, _same
from annuli.energy import _profile_values
from annuli.geometry import row_norms
from annuli.maps import sphere_inversion
from annuli.verify import (
    _twisted_minimizer,
    random_admissible_pair,
    random_annulus_pair,
)
from reference import (
    fd_energies_per_set,
    inversion_transform,
    sampled_weighted_integral_both_branches,
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


def _gauss_per_interval(t, u, order=20):
    """``integral(t^2 (H'/H)^2) dt`` of the piecewise-linear ``H`` through
    ``(t, u)``, by Gauss-Legendre of ``order`` in ``log H`` on each
    interval, where the integrand is smooth however steep ``H`` is."""
    x, w = np.polynomial.legendre.leggauss(order)
    tau, w = 0.5 * (x + 1.0), 0.5 * w
    t0, h = t[:-1, None], np.diff(t)[:, None]
    slope = np.diff(u)[:, None] / h
    y = np.log1p(np.diff(u) / u[:-1])[:, None]
    # log H runs linearly in tau from log u0 to log u1, so t - t0 is
    # h expm1(y tau) / expm1(y), or h tau where H is flat
    flat = y == 0.0
    den = np.where(flat, 1.0, np.expm1(y))
    frac = np.where(flat, tau, np.expm1(y * tau) / den)
    dfrac = np.where(flat, 1.0, y * np.exp(y * tau) / den)
    tq = t0 + h * frac
    hq = u[:-1, None] * np.exp(y * tau)
    return float(np.sum(w * h * dfrac * (tq * slope / hq) ** 2))


def _sampled(pair, kind):
    grid = make_radial_grid(pair.domain, 200)
    t, r, width = grid.nodes, pair.r, pair.domain.width
    inc = exp_profile_from_boundary(pair, "increasing").eval(t)
    values = {
        "minimizer": inc,
        "decreasing": exp_profile_from_boundary(pair, "decreasing").eval(t),
        # s t is 1e-9 of H: the three terms of the plain closed form cancel
        "nearly-flat": 1.0 + 1e-9 * (t - r) / width,
        "nearly-flat-decreasing": 2.0 - 1e-7 * (t - r) / width,
        # flat on half the intervals, where u1 == u0
        "plateau": np.minimum(inc, inc[100]),
    }[kind]
    return SampledProfile(grid, values)


class TestSampledReducedEnergy:
    @pytest.mark.parametrize("radii", [(1.0, 2.0, 1.0, math.e), (1.0, 1e3, 1.0, 1e3),
                                       (1e5, 1.01e5, 1.0, 2.0)])
    @pytest.mark.parametrize("kind", ["minimizer", "decreasing", "nearly-flat",
                                      "nearly-flat-decreasing", "plateau"])
    def test_matches_gauss_per_interval(self, radii, kind):
        # the radial part is exact on each interval, so it agrees with a
        # 20-point Gauss rule in log H per interval to rounding
        pair = AnnulusPair.from_radii(*radii)
        profile = _sampled(pair, kind)
        radial = weighted_energy(GeneralizedRadialMap(profile), pair, refine=False).radial_part
        expect = 4.0 * PI * _gauss_per_interval(profile.grid.nodes, profile.values)
        assert expect > 0.0
        assert abs(radial - expect) <= 1e-13 * expect, (radial, expect)

    @pytest.mark.parametrize("radii", [(1.0, 2.0, 1.0, math.e), (1.0, 1e3, 1.0, 1e3),
                                       (1e5, 1.01e5, 1.0, 2.0)])
    def test_each_interval_forms_its_own_branch_with_the_bits_of_both(self, radii):
        # every kind as one stack, and a row whose log steps cross |y| = 1 both
        # ways, with flat steps: the series and closed branches side by side
        pair = AnnulusPair.from_radii(*radii)
        kinds = ["minimizer", "decreasing", "nearly-flat", "nearly-flat-decreasing", "plateau"]
        values = np.array([_sampled(pair, kind).values for kind in kinds])
        n = values.shape[1]
        mixed = np.exp(np.cumsum(np.resize([0.5, 1.5, -2.0, 0.0, 0.99, -1.0, 1.0, 3.0], n)))
        values = np.vstack([values, mixed])
        grid = make_radial_grid(pair.domain, n - 1)
        expect = sampled_weighted_integral_both_branches(grid.nodes, values)
        stacked = energy._sampled_weighted_integral(SampledProfile(grid, values), pair.domain)
        assert stacked.tobytes() == expect.tobytes()
        for row, e in zip(values, expect):
            one = energy._sampled_weighted_integral(SampledProfile(grid, row), pair.domain)
            assert one.hex() == e.hex()

    @pytest.mark.parametrize("radii", [(1.0, 2.0, 1.0, math.e), (1e-3, 1.0, 1.0, 2.0),
                                       (1.0, 1e3, 1.0, 1e3), (1.0, 1e4, 1e-5, 1e5)])
    def test_interpolant_of_the_minimizer_is_above_the_minimum(self, radii):
        # the interpolant is a competitor; a two-point Gauss rule per interval
        # reads it 1.3 % below the minimum on (1, 1e3, 1, 1e3), exactly it is
        # 1.85 % above
        pair = AnnulusPair.from_radii(*radii)
        for kind in ("minimizer", "decreasing"):
            energy = reduced_energy(_sampled(pair, kind), pair.domain)
            assert energy > analytic_min_weighted_energy(pair), kind


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

    @pytest.mark.parametrize("radii", [
        (1.0, 1.001, 1.0, 2.0),
        (1e5, 1.01e5, 1.0, 2.0),
        # the decreasing profile read 2.7e-12 low while its log(r_star / R_star)
        # was rounded apart from -log(R_star / r_star)
        (3.7, 3.7 * (1.0 + 1e-6), 2.0, 2.0000001),
    ])
    def test_minimizers_reach_the_minimum_on_thin_shells(self, radii):
        pair = AnnulusPair.from_radii(*radii)
        target = analytic_min_weighted_energy(pair)
        for orientation in ("increasing", "decreasing"):
            f = GeneralizedRadialMap(exp_profile_from_boundary(pair, orientation))
            value = weighted_energy(f, pair, refine=False).value
            assert abs(value - target) <= 1e-13 * target, (orientation, value, target)

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

    def test_images_beyond_the_float_range_are_an_evaluation_error(self):
        # |f|^2 of a twisted member overflows where |f| passes 1.3e154, and its
        # differences overflow too; both warned before the FD route's result
        pair = AnnulusPair.from_radii(1.0, 2.0, 3.0, 1.7976931348623157e308)
        f, _ = _twisted_minimizer(pair, np.random.default_rng(0))
        with pytest.raises(EvaluationError, match="image norm left the float range at "
                                                  "quadrature node"):
            weighted_energy(f, pair, 9, 4, refine=False)
        # the plain density |Df|^2 = 3e400 overflows, the values do not
        huge = SampledMap(evaluator=lambda pts: 1e200 * pts)
        with pytest.raises(EvaluationError, match=r"finite-difference energy is not finite "
                                                  r"\(inf\)"):
            dirichlet_energy(huge, pair, 8, 4, refine=False)

    @pytest.mark.parametrize("domain", [(3.0, 4.0), (1.0, 5.0), (1.0, 1.5)])
    def test_sampled_profile_must_span_the_domain(self, domain):
        # the decomposition route integrates over the grid's own nodes, which it
        # used to do whatever the domain; the FD route raises the same error
        # where the domain leaves the grid
        grid = make_radial_grid(Annulus(1.0, 2.0), 10)
        profile = SampledProfile(grid, np.linspace(1.0, 2.0, 11))
        pair = AnnulusPair.from_radii(*domain, 1.0, 2.0)
        match = r"profile sampled on .*1\.0.*2\.0"
        with pytest.raises(DomainError, match=match):
            reduced_energy(profile, pair.domain)
        for energy in (weighted_energy, dirichlet_energy):
            with pytest.raises(DomainError, match=match):
                energy(GeneralizedRadialMap(profile), pair, refine=False)
        if domain[1] > 2.0:
            with pytest.raises(DomainError, match=match):
                weighted_energy(as_sampled_map(GeneralizedRadialMap(profile)), pair,
                                radial_order=8, sphere_order=4, refine=False)

    def test_sampled_profile_on_the_domain_is_integrated(self, canonical_pair):
        grid = make_radial_grid(canonical_pair.domain, 10)
        profile = SampledProfile(grid, np.full(11, 1.5))
        assert math.isclose(reduced_energy(profile, canonical_pair.domain), 8.0 * PI,
                            rel_tol=1e-15)

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
    # every twisted minimizer carries both a smooth bump e^(eps phi) on the
    # minimizer's modulus and an angular twist; the two kinds draw
    # different members
    if kind == "bump":
        return _twisted_minimizer(pair, rng)[0]
    _twisted_minimizer(pair, rng)
    return _twisted_minimizer(pair, rng)[0]


class TestWeightedEnergiesWithInversion:
    @pytest.mark.parametrize("kind", ["radial", "bump", "angular"])
    @pytest.mark.parametrize("scale", ["0.5", "1", "r*R*"])
    def test_equals_separate_fd_routes(self, canonical_pair, rng, kind, scale):
        pair = canonical_pair
        a = {"0.5": 0.5, "1": 1.0, "r*R*": pair.r_star * pair.R_star}[scale]
        f = _inversion_test_map(kind, pair, rng)
        e_f, e_g = _fd_energies(f, pair, 32, 16, True, (_same, sphere_inversion(a)))
        g = inversion_transform(f, a)
        separate = [weighted_energy(m, pair, 32, 16, refine=False).value
                    for m in (as_sampled_map(f), g)]
        if kind == "radial":
            # the polar route evaluates the exact stencil points, the separate
            # sampled routes their rounded values
            gap = np.abs(np.subtract([e_f, e_g], separate))
            assert np.all(gap <= TestPolarRoute.BOUND * np.array(separate))
        else:
            assert [e_f, e_g] == separate
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


class TestFDRouteBuffers:
    def test_evaluator_layout_changes_no_bit(self, canonical_pair, rng):
        g, _ = _twisted_minimizer(canonical_pair, rng)
        views = (_same, sphere_inversion(0.5))
        for weighted in (True, False):
            c_order = _fd_energies(SampledMap(lambda p: np.ascontiguousarray(g.evaluator(p))),
                                   canonical_pair, 8, 4, weighted, views)
            f_order = _fd_energies(SampledMap(lambda p: np.asfortranarray(g.evaluator(p))),
                                   canonical_pair, 8, 4, weighted, views)
            assert np.array(c_order).tobytes() == np.array(f_order).tobytes()

    def test_evaluator_returning_its_input_gets_a_fresh_buffer(self):
        # the identity, as its own input buffer: |Dx|^2 = 3, so the
        # weighted energy is 3 * 4 pi (R - r) and the Dirichlet one 28 pi
        pair = AnnulusPair.from_radii(1.0, 2.0, 1.0, 2.0)
        ident = SampledMap(lambda p: p)
        weighted = weighted_energy(ident, pair, 16, 8, refine=False).value
        plain = dirichlet_energy(ident, pair, 16, 8, refine=False).value
        assert math.isclose(weighted, 12.0 * PI * (pair.R - pair.r), rel_tol=1e-9)
        assert math.isclose(plain, 28.0 * PI, rel_tol=1e-9)


def _point(stencil, j, i):
    """The point ``t v`` of set ``j`` of the stencil at centre ``i``, as the
    map gets it: ``+e_k`` and ``-e_k`` are sets ``2 k`` and ``2 k + 1``, the
    centres set 6."""
    t, shell, _, _ = stencil
    n_s = shell.shape[2]
    return t[i // n_s] * shell[:, j, i % n_s]


class TestFDBatches:
    """The stencil goes to the map a chunk of whole radial nodes at a time,
    at most ``_FD_CHUNK`` centres, all point sets of a chunk in one call,
    and the ``+-e_k`` pairs of a call are differenced as one block, with
    the bits of one call per set."""

    # points of each map call, weighted route (seven sets) and plain one (six):
    # 21 radial nodes of 32 sphere nodes fit a chunk, 5 of 128 and 1 of 512
    ORDERS = {(9, 4): ([2016], [1728]),
              (9, 8): ([4480, 3584], [3840, 3072]),
              (9, 16): ([3584] * 9, [3072] * 9)}

    @staticmethod
    def _maps(pair):
        twisted, _ = _twisted_minimizer(pair, np.random.default_rng(0))
        moebius = GeneralizedRadialMap(exp_profile_from_boundary(pair, "decreasing"),
                                       random_mobius(np.random.default_rng(1)))
        return twisted, moebius

    @pytest.mark.parametrize("orders", list(ORDERS))
    @pytest.mark.parametrize("weighted", [True, False])
    def test_matches_one_call_per_set_bit_for_bit(self, canonical_pair, orders, weighted):
        views = (_same, sphere_inversion(0.5))
        for f in self._maps(canonical_pair):
            batched = _fd_energies(f, canonical_pair, *orders, weighted, views)
            per_set = fd_energies_per_set(f, canonical_pair, *orders, weighted, views)
            assert np.array(batched).tobytes() == np.array(per_set).tobytes()

    @pytest.mark.parametrize("orders", list(ORDERS))
    def test_map_calls(self, canonical_pair, orders):
        twisted, _ = self._maps(canonical_pair)
        for weighted, expect in zip((True, False), self.ORDERS[orders]):
            sizes = []
            counted = SampledMap(lambda p: sizes.append(p.shape[0]) or twisted.evaluator(p))
            _fd_energies(counted, canonical_pair, *orders, weighted)
            assert sizes == expect

    @pytest.mark.parametrize("orders", list(ORDERS))
    @pytest.mark.parametrize("node", [0, 100, 287])
    def test_vanished_image_names_the_centre(self, canonical_pair, orders, node):
        centre = _point(_fd_stencil(canonical_pair.domain, *orders), 6, node)

        def collapse_at_centre(p):
            image = np.array(p)
            image[np.all(p == centre, axis=1)] = 0.0
            return image

        for views in ((_same,), (_same, sphere_inversion(1.0))):
            with pytest.raises(EvaluationError, match=f"image norm vanished at quadrature "
                                                      f"node {node}, x="):
                _fd_energies(SampledMap(collapse_at_centre), canonical_pair, *orders, True,
                             views)


    @pytest.mark.parametrize("orders", list(ORDERS))
    def test_differences_raise_before_the_centres_norms(self, canonical_pair, orders):
        # a +e_2 value at the origin and a vanished centre: the inversion view
        # raises on the differences, which come before the centres' norms
        stencil = _fd_stencil(canonical_pair.domain, *orders)
        shifted, centre = _point(stencil, 4, 5), _point(stencil, 6, 7)

        def collapse(p):
            image = np.array(p)
            image[np.all(p == shifted, axis=1) | np.all(p == centre, axis=1)] = 0.0
            return image

        with pytest.raises(EvaluationError, match="hit the origin"):
            _fd_energies(SampledMap(collapse), canonical_pair, *orders, True,
                         (_same, sphere_inversion(1.0)))
        with pytest.raises(EvaluationError, match="image norm vanished at quadrature node 7,"):
            _fd_energies(SampledMap(collapse), canonical_pair, *orders, True)

    def test_differences_of_a_later_call_raise_before_the_centres_norms(self, canonical_pair):
        # at (9, 16) centre 0 goes to the map in the first call and the +e_2
        # value of centre 4 000, on radial node 7, in the eighth: the centres'
        # norms are still checked after every difference
        orders = (9, 16)
        stencil = _fd_stencil(canonical_pair.domain, *orders)
        shifted, centre = _point(stencil, 4, 4000), _point(stencil, 6, 0)

        def collapse(p):
            image = np.array(p)
            image[np.all(p == shifted, axis=1) | np.all(p == centre, axis=1)] = 0.0
            return image

        with pytest.raises(EvaluationError, match="hit the origin"):
            _fd_energies(SampledMap(collapse), canonical_pair, *orders, True,
                         (_same, sphere_inversion(1.0)))
        with pytest.raises(EvaluationError, match="image norm vanished at quadrature node 0,"):
            _fd_energies(SampledMap(collapse), canonical_pair, *orders, True)


class TestSharedStencil:
    """The FD stencil is computed once per shell and orders, and shared
    read-only."""

    def test_repeated_calls_share_one_object(self, canonical_pair):
        domain = canonical_pair.domain
        # an equal shell built anew finds the same stencil
        assert _fd_stencil(domain, 16, 8) is _fd_stencil(Annulus(domain.inner, domain.outer), 16, 8)
        # two stencils are kept, as the inversion row alternates two sphere orders
        stencil = _fd_stencil(domain, 16, 8)
        _fd_stencil(domain, 16, 4)
        assert _fd_stencil(domain, 16, 8) is stencil

    def test_shells_requested_once_evict_no_stencil_requested_again(self, canonical_pair):
        # the harmonic row's twenty one-shot shells once evicted the two
        # stencils of the pair, which every verify op then rebuilt
        domain = canonical_pair.domain
        kept = [_fd_stencil(domain, 9, order) for order in (16, 4, 16, 4)][2:]
        builds = _fd_stencil.builds
        for k in range(20):
            _fd_stencil(Annulus(1.0, 3.0 + k / 8.0), 9, 4)
        assert _fd_stencil.builds - builds == 20
        again = [_fd_stencil(domain, 9, order) for order in (16, 4)]
        assert all(a is b for a, b in zip(again, kept))
        assert _fd_stencil.builds - builds == 20

    def test_concurrent_requests_lose_no_build_and_keep_the_sizes(self):
        built, errors = [], []

        def build(*key):
            built.append(key)
            return energy._Stencil(key)

        cache = energy._StencilCache(build, kept=2, once=2)

        def worker(seed):
            try:
                for k in np.random.default_rng(seed).integers(0, 6, 300).tolist():
                    assert cache(k, 9, 4) == (k, 9, 4)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert cache.builds == len(built) > 0
        assert len(cache._kept) <= 2 and len(cache._once) <= 2

    def test_shared_arrays_are_read_only(self, canonical_pair):
        for arr in _fd_stencil(canonical_pair.domain, 16, 8):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_evaluator_writing_to_its_input_gets_a_writable_copy(self):
        # x -> 2 x, computed in place: |Dy|^2 / |y|^2 = 3 / |x|^2, so the
        # weighted energy is 3 * 4 pi (R - r), as for the identity
        pair = AnnulusPair.from_radii(1.0, 2.0, 2.0, 4.0)

        def double(p):
            p *= 2.0
            return p

        for _ in range(2):
            value = weighted_energy(SampledMap(double), pair, 16, 8, refine=False).value
            assert math.isclose(value, 12.0 * PI * (pair.R - pair.r), rel_tol=1e-9)


def _outcome(call):
    """The energies' bytes, or the type and text of the error raised."""
    try:
        return np.array(call()).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


class TestPolarRoute:
    """A generalized radial map is evaluated from its stencil's unit
    vectors and its profile values: ``map_eval_many``'s steps on the exact
    points ``t_i v``, which the sampled route rounds first."""

    # 100 times the worst relative gap to the sampled route, 1.34e-11, over 48
    # members (increasing, decreasing, harmonic and sampled profiles on the
    # pairs (1, 2, 1, 2) and (1, 2, 1, e)) at these orders, both energies and
    # both views
    BOUND = 1.34e-9

    @staticmethod
    def _maps(pair):
        rotated = GeneralizedRadialMap(exp_profile_from_boundary(pair, "increasing"),
                                       random_mobius(np.random.default_rng(5)))
        harmonic = GeneralizedRadialMap(HarmonicProfile(1.5, 0.25),
                                        random_mobius(np.random.default_rng(6)))
        return rotated, GeneralizedRadialMap(rotated.profile), harmonic

    @pytest.mark.parametrize("orders", [(9, 4), (9, 8), (9, 16), (32, 16)])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_within_the_bound_of_the_sampled_route(self, canonical_pair, orders, weighted):
        # the sampled map sends the rounded points to map_eval_many.  The
        # members run in turn on one stencil: cold builds the stencil, the
        # polar form and the profile values, warm finds them kept, but for a
        # sampled profile's values, and each member's rotation acts anew
        pair = canonical_pair
        rotated = self._maps(pair)[0]
        grid = make_radial_grid(pair.domain, 64)
        profile = SampledProfile(grid, rotated.profile.eval(grid.nodes))
        rng = np.random.default_rng(7)
        members = [*self._maps(pair), GeneralizedRadialMap(profile, rotated.rotation)]
        members += [GeneralizedRadialMap(exp_profile_from_boundary(pair, "decreasing"),
                                         random_mobius(rng)) for _ in range(2)]
        _fd_stencil.cache_clear()
        for f in members:
            for views in ((_same,), (_same, sphere_inversion(0.5))):
                sampled = np.array(_fd_energies(as_sampled_map(f), pair, *orders, weighted,
                                                views))
                cold = np.array(_fd_energies(f, pair, *orders, weighted, views))
                warm = np.array(_fd_energies(f, pair, *orders, weighted, views))
                assert cold.tobytes() == warm.tobytes()
                assert np.all(np.abs(cold - sampled) <= self.BOUND * sampled)

    # norms below 1e-150 or across it, where map_eval_many takes the sphere
    # action's unit check: the polar route's unit vectors need none, and it
    # raises the FD route's own error where the differences leave the float
    # range, or reads the energies 0.0 as the sampled route does
    @pytest.mark.parametrize("radii", [(1e-160, 2e-160, 1.0, 2.0), (1e-151, 1e-149, 1.0, 2.0),
                                       (1e-200, 1e-100, 1.0, 2.0),
                                       (1e-155, 1e-145, 1e-5, 1e5)])
    def test_norms_outside_the_unit_check_window(self, radii):
        pair = AnnulusPair.from_radii(*radii)
        f, _, _ = self._maps(pair)
        for weighted in (True, False):
            for views in ((_same,), (_same, sphere_inversion(0.5))):
                got = _outcome(lambda: _fd_energies(f, pair, 9, 4, weighted, views))
                if radii[0] == 1e-151:
                    assert got == np.zeros(len(views)).tobytes()
                    assert got == _outcome(lambda: _fd_energies(as_sampled_map(f), pair, 9, 4,
                                                                weighted, views))
                else:
                    assert got[0] is EvaluationError
                    assert got[1].startswith("finite-difference energy is not finite (nan)")

    def test_wide_stencils_keep_only_profile_values(self, canonical_pair):
        # orders (37, 16) put 132 608 points past the 2^17 that once bounded
        # the polar forms kept; two profiles now keep 8 bytes a point each
        pair = canonical_pair
        _fd_stencil.cache_clear()
        for f in self._maps(pair)[:2]:
            for weighted in (True, False):
                expect = np.array(_fd_energies(as_sampled_map(f), pair, 37, 16, weighted))
                got = np.array(_fd_energies(f, pair, 37, 16, weighted))
                assert np.all(np.abs(got - expect) <= self.BOUND * expect)
        norms, units, kept = _fd_stencil(pair.domain, 37, 16).polar
        assert norms.shape == (7 * 512,) and units.shape == (7 * 512, 3)
        assert [h.nbytes for h in kept.values()] == [8 * 132_608]

    def test_polar_forms_are_read_only_and_evicted_with_their_stencils(self, canonical_pair):
        domain = canonical_pair.domain
        stencil = _fd_stencil(domain, 9, 4)
        polar = stencil.polar
        assert _fd_stencil(Annulus(domain.inner, domain.outer), 9, 4).polar is polar
        for arr in polar[:2]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # two more orders, each requested twice, evict the stencil, and its
        # polar form with it
        for orders in ((9, 8), (9, 8), (9, 16), (9, 16)):
            _fd_stencil(domain, *orders)
        rebuilt = _fd_stencil(domain, 9, 4)
        assert rebuilt is not stencil and "polar" not in vars(rebuilt)
        assert rebuilt.polar is not polar

    def test_profile_values_are_kept_for_two_closed_forms(self, canonical_pair):
        pair = canonical_pair
        inc = exp_profile_from_boundary(pair, "increasing")
        dec = exp_profile_from_boundary(pair, "decreasing")
        harmonic = HarmonicProfile(1.5, 0.25)
        grid = make_radial_grid(pair.domain, 64)
        sampled = SampledProfile(grid, inc.eval(grid.nodes))
        _fd_stencil.cache_clear()
        for profile in (inc, dec, harmonic, sampled, dec):
            _fd_energies(GeneralizedRadialMap(profile), pair, 9, 4, True)
        stencil = _fd_stencil(pair.domain, 9, 4)
        kept = stencil.polar[2]
        # the oldest goes first; a sampled profile's values are not kept
        assert list(kept) == [dec, harmonic]
        for h in kept.values():
            with pytest.raises(ValueError, match="read-only"):
                h[0] = 0.0
        # a profile equal by value finds the same values
        assert _profile_values(stencil, ExponentialProfile(dec.a, dec.b, dec.t0)) is kept[dec]


    def test_sampled_profile_values_are_never_kept(self, canonical_pair):
        # a sampled profile's values array is writable, so an edit between two
        # energies must reach the second: doubling H quadruples the plain energy
        pair = canonical_pair
        grid = make_radial_grid(pair.domain, 64)
        inc = exp_profile_from_boundary(pair, "increasing")
        profile = SampledProfile(grid, inc.eval(grid.nodes))
        f = GeneralizedRadialMap(profile, random_mobius(np.random.default_rng(5)))
        _fd_stencil.cache_clear()
        [first] = _fd_energies(f, pair, 9, 4, False)
        profile.values[:] *= 2.0
        [again] = _fd_energies(f, pair, 9, 4, False)
        fresh = GeneralizedRadialMap(SampledProfile(grid, profile.values.copy()), f.rotation)
        assert again == _fd_energies(fresh, pair, 9, 4, False)[0] == 4.0 * first
        assert _fd_stencil(pair.domain, 9, 4).polar[2] == {}


class TestFDStep:
    @staticmethod
    def _radii_and_steps(pair):
        """Radii of the FD stencil centres and the half distance of their
        first pair of shifts, ``+e_0`` and ``-e_0``: the first, second and
        last of the stencil's seven point sets, in the order the map gets
        them, whatever the batching."""
        calls = []
        _fd_energies(SampledMap(lambda p: calls.append(p.copy()) or p), pair, 8, 4, True)
        points = np.concatenate(calls)
        n = points.shape[0] // 7
        plus, minus, centres = points[:n], points[n:2 * n], points[6 * n:]
        return row_norms(centres), 0.5 * (plus[:, 0] - minus[:, 0])

    @pytest.mark.parametrize("ratio", [1.02, 64.0 / 63.0 + 1e-12, 2.0, 100.0])
    def test_step_is_relative_to_the_radius(self, ratio):
        t, step = self._radii_and_steps(AnnulusPair.from_radii(1.0, ratio, 1.0, 2.0))
        np.testing.assert_allclose(step, 1e-5 * t, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("ratio", [1.001, 1.0 + 1e-6])
    def test_step_on_thin_shells_is_capped_by_the_width(self, ratio):
        # one step relative to t per shell, 64 widths times 1e-5 at R
        pair = AnnulusPair.from_radii(1.0, ratio, 1.0, 2.0)
        t, step = self._radii_and_steps(pair)
        np.testing.assert_allclose(step, 64e-5 * pair.domain.width * t / pair.R, rtol=1e-6,
                                   atol=0.0)


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

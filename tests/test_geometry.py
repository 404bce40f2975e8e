import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annuli import (
    Annulus,
    AnnulusPair,
    DomainError,
    EvaluationError,
    HarmonicProfile,
    RadialGrid,
    SampledProfile,
    SphericalQuadrature,
    gauss_legendre,
    make_radial_grid,
    make_sphere_quadrature,
    tangent_frames,
)
from annuli import geometry
from annuli.geometry import _cross, _form_stiffness, row_norms


class TestAnnulus:
    def test_valid_annulus_has_width(self):
        a = Annulus(1.0, 2.5)
        assert a.width == 1.5
        assert not a.is_degenerate

    def test_equal_radii_is_degenerate_but_legal(self):
        assert Annulus(1.5, 1.5).is_degenerate

    @pytest.mark.parametrize("inner,outer", [(2.0, 1.0), (-1.0, 1.0), (1.0, -2.0), (0.0, 0.0)])
    def test_bad_radii_rejected(self, inner, outer):
        with pytest.raises(DomainError):
            Annulus(inner, outer)

    def test_error_message_names_the_ordering(self):
        with pytest.raises(DomainError, match="inner radius must be less than outer"):
            Annulus(2.0, 1.0)

    def test_nan_radii_rejected(self):
        with pytest.raises(DomainError):
            Annulus(math.nan, 1.0)

    def test_radii_are_stored_as_python_floats(self):
        a = Annulus(np.float64(1.5), 2)
        assert type(a.inner) is float and type(a.outer) is float
        assert (a.inner, a.outer) == (1.5, 2.0)


# every float class: zeros of both signs, subnormals, infinities, nan
_RADIUS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 2.0,
                     math.inf, -math.inf, math.nan]),
    st.floats(),
)


class TestRadiusContract:
    @settings(max_examples=500, deadline=None)
    @given(a=_RADIUS, b=_RADIUS)
    def test_annulus_constructs_exactly_on_positive_finite_radii(self, a, b):
        if 0.0 < a <= b < math.inf:
            shell = Annulus(a, b)
            assert (shell.inner, shell.outer) == (a, b)
        else:
            with pytest.raises(DomainError):
                Annulus(a, b)

    @settings(max_examples=500, deadline=None)
    @given(r=_RADIUS, R=_RADIUS, r_star=_RADIUS, R_star=_RADIUS)
    def test_pair_constructs_exactly_when_both_shells_do_and_r_below_R(self, r, R, r_star,
                                                                       R_star):
        if 0.0 < r < R < math.inf and 0.0 < r_star <= R_star < math.inf:
            AnnulusPair.from_radii(r, R, r_star, R_star)
        else:
            with pytest.raises(DomainError):
                AnnulusPair.from_radii(r, R, r_star, R_star)


def _sampled_profile():
    grid = make_radial_grid(Annulus(1.0, 2.0), 4)
    return SampledProfile(grid=grid, values=np.ones(5))


class TestRadiusErrorsNameTheValue:
    @pytest.mark.parametrize("build, bad", [
        pytest.param(lambda: Annulus(math.inf, 1.0), math.inf, id="annulus-infinite"),
        pytest.param(lambda: Annulus(1.0, math.nan), math.nan, id="annulus-nan"),
        pytest.param(lambda: Annulus(0.0, 1.0), 0.0, id="annulus-zero-inner"),
        pytest.param(lambda: Annulus(-0.0, 1.0), -0.0, id="annulus-minus-zero-inner"),
        pytest.param(lambda: Annulus(-2.5, 1.0), -2.5, id="annulus-negative-inner"),
        pytest.param(lambda: Annulus(2.5, 1.5), 2.5, id="annulus-swapped-inner"),
        pytest.param(lambda: Annulus(2.5, 1.5), 1.5, id="annulus-swapped-outer"),
        pytest.param(lambda: AnnulusPair.from_radii(1.25, 1.25, 1.0, 2.0), 1.25,
                     id="pair-degenerate-domain"),
        pytest.param(lambda: make_radial_grid(Annulus(1.25, 1.25), 4), 1.25,
                     id="grid-degenerate-annulus"),
        pytest.param(lambda: RadialGrid(Annulus(1.0, 2.0), [1.0, 1.5, 2.5], "uniform-in-t"),
                     2.5, id="grid-span-outer"),
        pytest.param(lambda: RadialGrid(Annulus(1.0, 2.0), [0.75, 1.5, 2.0], "uniform-in-t"),
                     0.75, id="grid-span-inner"),
        pytest.param(lambda: HarmonicProfile(a=1.0, b=1.0).eval(np.array([1.0, -0.25])), -0.25,
                     id="profile-negative-radius"),
        pytest.param(lambda: HarmonicProfile(a=1.0, b=1.0).derivative(0.0), 0.0,
                     id="profile-zero-radius"),
        pytest.param(lambda: _sampled_profile().eval(np.array([1.5, 3.5])), 3.5,
                     id="sampled-profile-above"),
        pytest.param(lambda: _sampled_profile().eval(0.5), 0.5,
                     id="sampled-profile-below"),
    ])
    def test_message_holds_the_repr(self, build, bad):
        with pytest.raises(DomainError) as info:
            build()
        assert repr(bad) in str(info.value)


class TestAnnulusPair:
    def test_from_radii_roundtrip(self):
        p = AnnulusPair.from_radii(1.0, 2.0, 0.5, 3.0)
        assert (p.r, p.R, p.r_star, p.R_star) == (1.0, 2.0, 0.5, 3.0)

    def test_weighted_requires_positive_inner_radii(self):
        with pytest.raises(DomainError, match="inner radius must be positive, got 0.0"):
            AnnulusPair.from_radii(0.0, 1.0, 1.0, 2.0)

    def test_degenerate_target_is_weighted_ok(self):
        p = AnnulusPair.from_radii(1.0, 2.0, 1.5, 1.5)
        assert p.target.is_degenerate and (p.r_star, p.R_star) == (1.5, 1.5)


class TestRadialGrid:
    def test_uniform_grid_hits_endpoints_exactly(self):
        g = make_radial_grid(Annulus(1.0, 2.0), 7)
        assert g.nodes[0] == 1.0 and g.nodes[-1] == 2.0
        assert g.nodes.size == 8
        assert np.allclose(np.diff(g.nodes), 1.0 / 7.0)

    def test_reciprocal_grid_is_uniform_in_one_over_t(self):
        g = make_radial_grid(Annulus(1.0, 2.0), 10, "uniform-in-1/t")
        inv = 1.0 / g.nodes
        assert np.allclose(np.diff(inv), inv[1] - inv[0])
        assert g.nodes[0] == 1.0 and g.nodes[-1] == 2.0

    def test_log_grid_is_uniform_in_log_t(self):
        g = make_radial_grid(Annulus(1.0, 1e6), 1000, "uniform-in-log-t")
        assert g.nodes[0] == 1.0 and g.nodes[-1] == 1e6
        assert np.allclose(np.diff(np.log(g.nodes)), math.log(1e6) / 1000, rtol=1e-12, atol=0.0)

    def test_log_grid_keeps_thin_shells_increasing(self):
        # exp(linspace(log r, log R)) would repeat nodes here, as its log steps
        # of 1e-14 are below the float spacing of log r = -230; r + r expm1(s)
        # keeps every interval within a few percent of (R - r) / n
        annulus = Annulus(1e-100, 1e-100 * (1.0 + 1e-11))
        g = make_radial_grid(annulus, 1000, "uniform-in-log-t")
        assert np.allclose(np.diff(g.nodes), annulus.width / 1000, rtol=0.05, atol=0.0)

    def test_log_grid_takes_the_stiffness_linear_in_t(self):
        # r = 1 and R = 1e6 have binary exponents 1 and 20: the stiffness is
        # formed at 2^-8
        g = make_radial_grid(Annulus(1.0, 1e6), 50, "uniform-in-log-t")
        t = np.ldexp(g.nodes, -8)
        t0, t1 = t[:-1], t[1:]
        a = _form_stiffness(g, np.empty(50), np.empty(50))
        assert np.array_equal(a, (t0 * t1 + t0 * t0 + t1 * t1) / 3.0 / (t1 - t0))

    @pytest.mark.parametrize("inner, outer, n, spacing, e", [
        (1.0, 2.0, 1000, "uniform-in-t", 0), (0.1, 10.0, 2, "uniform-in-t", 0),
        (0.1, 10.0, 1000, "uniform-in-1/t", 0), (1.0, 100.0, 50, "uniform-in-log-t", 0),
        (1.0, 1e6, 50, "uniform-in-log-t", 8),
        (2.0**-1000, 2.0**-999, 1000, "uniform-in-t", -1000),
        (1e160, 2e160, 10, "uniform-in-t", 536),
        # the first products t0 t1 of this reciprocal grid are about 1e-200 and its
        # largest, t_{n-1} R, about 1e201: centred on them, e = 0, where centred
        # on the shell r'^2 would underflow and centred on R it would be 0
        (1e-100, 1e300, 10, "uniform-in-1/t", 0),
        # R^2 would overflow at the centre of the products: R 2^-e < 2^511
        (1.0, 1.7976931348623157e308, 10, "uniform-in-t", 768),
        (5e-324, 1.7976931348623157e308, 10, "uniform-in-t", 513),
        # R itself would overflow at the centre: R 2^-e < 2^1021
        (1e-300, 1e200, 10, "uniform-in-1/t", -356)])
    def test_stiffness_scale_centres_the_products(self, inner, outer, n, spacing, e):
        # e = 0 on shells near 1, where every generator pair lies
        grid = make_radial_grid(Annulus(inner, outer), n, spacing)
        assert geometry._stiffness_exponent(grid) == e
        assert math.ldexp(outer, -e) < 2.0 ** (1021 if spacing == "uniform-in-1/t" else 511)

    def test_nodes_must_increase(self):
        with pytest.raises(DomainError):
            RadialGrid(Annulus(1.0, 2.0), np.array([1.0, 1.5, 1.4, 2.0]), "uniform-in-t")

    def test_nodes_must_match_annulus(self):
        with pytest.raises(DomainError):
            RadialGrid(Annulus(1.0, 2.0), np.array([1.0, 1.5, 2.1]), "uniform-in-t")

    def test_unknown_spacing_mode_rejected(self):
        with pytest.raises(ValueError):
            make_radial_grid(Annulus(1.0, 2.0), 4, "chebyshev")

    def test_needs_at_least_one_interval(self):
        with pytest.raises(ValueError):
            make_radial_grid(Annulus(1.0, 2.0), 0)


class TestGaussLegendre:
    def test_exact_for_polynomials_below_2n(self):
        x, w = gauss_legendre(0.0, 1.0, 4)
        # degree 7 is the highest a 4-point rule integrates exactly
        assert math.isclose(float(w @ x**7), 1.0 / 8.0, rel_tol=1e-14)

    def test_interval_scaling(self):
        x, w = gauss_legendre(1.0, 3.0, 6)
        assert math.isclose(float(np.sum(w)), 2.0, rel_tol=1e-14)
        assert math.isclose(float(w @ x**2), (27.0 - 1.0) / 3.0, rel_tol=1e-14)


class TestSphereQuadrature:
    def test_weights_sum_to_sphere_area(self):
        q = make_sphere_quadrature(16)
        assert math.isclose(float(np.sum(q.weights)), 4.0 * math.pi, rel_tol=1e-13)

    def test_nodes_are_unit_vectors(self):
        q = make_sphere_quadrature(8)
        assert np.allclose(np.linalg.norm(q.nodes, axis=1), 1.0, atol=1e-14)

    def test_integrates_z_squared(self):
        # int z^2 over the unit sphere = 4 pi / 3
        q = make_sphere_quadrature(8)
        val = float(q.weights @ q.nodes[:, 2] ** 2)
        assert math.isclose(val, 4.0 * math.pi / 3.0, rel_tol=1e-13)

    def test_odd_moments_vanish(self):
        q = make_sphere_quadrature(12)
        for axis in range(3):
            assert abs(float(q.weights @ q.nodes[:, axis])) < 1e-13

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            make_sphere_quadrature(0)


class TestSharedInvariants:
    """Rules and frames are computed once and shared read-only."""

    def test_sphere_rule_and_frames_are_built_once(self):
        q = make_sphere_quadrature(16)
        assert make_sphere_quadrature(16) is q
        assert q._frames is q._frames
        u, v = tangent_frames(q.nodes)
        assert q._frames[0].tobytes() == u.tobytes()
        assert q._frames[1].tobytes() == v.tobytes()

    @pytest.mark.parametrize("order", [4, 32])
    def test_great_circle_points_are_built_once_per_rule(self, order):
        q = make_sphere_quadrature(order)
        # built with the shared rule, frames included
        assert {"_frames", "_great_circle_points"} <= vars(q).keys()
        pts = q._great_circle_points
        assert make_sphere_quadrature(order)._great_circle_points is pts
        assert pts.flags.f_contiguous and pts.shape == (4 * q.nodes.shape[0], 3)
        step = geometry._GREAT_CIRCLE_STEP
        ch, sh = math.cos(step), math.sin(step)
        u, v = q._frames
        expect = np.vstack([ch * q.nodes + sh * u, ch * q.nodes - sh * u,
                            ch * q.nodes + sh * v, ch * q.nodes - sh * v])
        assert pts.tobytes() == expect.tobytes()

    def test_hashes_are_the_dataclass_hashes_computed_once(self, monkeypatch):
        pair = AnnulusPair.from_radii(1.0, 2.0, 0.5, 3.0)
        assert hash(pair.domain) == hash((1.0, 2.0))
        assert hash(pair) == hash((pair.domain, pair.target))
        assert hash(pair) == hash(AnnulusPair.from_radii(1.0, 2.0, 0.5, 3.0))
        # a pair's lookup does not rehash its shells
        expect = hash(pair)
        monkeypatch.setattr(Annulus, "__hash__", lambda a: 1 / 0)
        assert hash(pair) == expect

    def test_shared_arrays_are_read_only(self):
        q = make_sphere_quadrature(8)
        grid = make_radial_grid(Annulus(1.0, 2.0), 8)
        for arr in (q.nodes, q.weights, *q._frames, q._great_circle_points, grid.nodes):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_a_callers_buffer_is_copied_not_frozen(self):
        # a shared grid or rule needs arrays that cannot change
        nodes = np.array([1.0, 1.5, 2.0])
        grid = RadialGrid(Annulus(1.0, 2.0), nodes, "uniform-in-t")
        q = make_sphere_quadrature(4)
        pts, wts = q.nodes.copy(), q.weights.copy()
        rule = SphericalQuadrature(pts, wts)
        nodes[1] = 1.25
        pts[0] = 0.0
        assert grid.nodes[1] == 1.5 and rule.nodes[0].tolist() == q.nodes[0].tolist()
        assert not (grid.nodes.flags.writeable or rule.nodes.flags.writeable
                    or rule.weights.flags.writeable)

    def test_bad_stiffness_raises_on_every_read(self):
        # the first nodes times 2^-513 underflow to 0; a_0 is 0 / 0
        grid = make_radial_grid(Annulus(5e-324, 1.7e308), 1000, "uniform-in-log-t")
        for _ in range(2):
            with pytest.raises(EvaluationError, match=r"interval stiffness a_0 = nan on "
                                                      r"\[4\.94066e-324, "):
                _form_stiffness(grid, np.empty(1000), np.empty(1000))


@st.composite
def unit_vectors(draw):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0])
        n = 1.0
    return v / n


class TestTangentFrames:
    @given(st.lists(unit_vectors(), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_frame_is_right_handed_orthonormal(self, normals):
        pts = np.array(normals)
        u, v = tangent_frames(pts)
        for a in (u, v, pts):
            assert np.allclose(np.linalg.norm(a, axis=1), 1.0, rtol=0.0, atol=1e-12)
        for a, b in ((u, v), (u, pts), (v, pts)):
            assert np.max(np.abs(np.einsum("ij,ij->i", a, b))) < 1e-12
        assert np.allclose(np.cross(u, v), pts, atol=1e-12)

    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            tangent_frames(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]))

    @pytest.mark.parametrize("points", [[[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0, 1.0]],
                             ids=["two-columns", "one-dimensional"])
    def test_rejects_points_not_of_shape_n_by_3(self, points):
        shape = np.shape(points)
        with pytest.raises(ValueError, match=rf"shape \(N, 3\), got shape {re.escape(str(shape))}"):
            tangent_frames(np.array(points))


class TestCross:
    def test_bitwise_equal_to_np_cross(self):
        rng = np.random.default_rng(9)
        a, b = (rng.normal(size=(5_000, 3)) * 10.0 ** rng.uniform(-150, 150, size=(5_000, 1))
                for _ in range(2))
        a[:3] = [[0.0, -0.0, 1.0], [np.inf, 1.0, 0.0], [np.nan, 2.0, -3.0]]
        expect = np.cross(a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (a, np.asfortranarray(a)):
                for y in (b, np.asfortranarray(b)):
                    out = _cross(x, y)
                    assert out.flags.f_contiguous and out.tobytes() == expect.tobytes()


class TestRowNorms:
    @pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e-20, 1.0, 1e20, 1e100, 1e200])
    def test_bitwise_equal_to_linalg_norm(self, scale):
        pts = np.random.default_rng(5).normal(size=(20_000, 3)) * scale
        with np.errstate(over="ignore"):  # squares of 1e200 overflow in both
            for arr in (pts, np.asfortranarray(pts)):
                assert np.array_equal(row_norms(arr), np.linalg.norm(arr, axis=1))

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annuli import (
    MobiusTransform,
    conformal_stretch_points,
    make_sphere_quadrature,
    mobius_apply_points,
    mobius_pushforward,
    random_mobius,
    sphere_inequality_integral,
    tangent_frames,
)
from annuli.geometry import row_norms
from annuli.sphere_maps import _apply_to_units
from reference import (
    inverse_stereographic,
    mobius_compose,
    mobius_inverse,
    mobius_matrix,
    stereographic,
)

EIGHT_PI = 8.0 * math.pi

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])
EQUATOR_POINTS = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-0.6, 0.8, 0.0]])


def entries(t: MobiusTransform):
    return t.a, t.b, t.c, t.d


class TestStereographic:
    def test_equator_maps_to_unit_circle(self):
        w = stereographic(np.array([1.0, 0.0, 0.0]))
        assert cmath.isclose(w, 1.0 + 0.0j, abs_tol=1e-15)

    def test_north_pole_goes_to_infinity(self):
        assert math.isinf(stereographic(NORTH).real)

    def test_roundtrip_away_from_pole(self, rng):
        for _ in range(25):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            if v[2] > 0.999:
                continue
            w = stereographic(v)
            assert np.allclose(inverse_stereographic(w), v, atol=1e-12)

    def test_inverse_of_infinity_is_north(self):
        assert np.allclose(inverse_stereographic(complex(math.inf, 0.0)), NORTH)


class TestMobiusTransform:
    def test_determinant_normalized_on_construction(self):
        t = MobiusTransform(2.0, 0.0, 0.0, 2.0)
        a, b, c, d = entries(t)
        assert cmath.isclose(a * d - b * c, 1.0, abs_tol=1e-14)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            MobiusTransform(1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("entries,match", [
        ((math.nan, 0.0, 0.0, 1.0), "entries must be finite"),
        ((0.0, 1.0, complex(1.0, math.inf), 0.0), "entries must be finite"),
        ((math.inf, 0.0, 0.0, 1.0), "entries must be finite"),
        # a scaled identity whose determinant overflows used to normalize
        # to all-zero entries
        ((1e200, 0.0, 0.0, 1e200), r"determinant a d - b c = \(inf\+0j\)"),
        ((1e200, 1e200, 1e200, 1e200), r"determinant a d - b c = \(nan\+0j\)"),
        # a finite determinant below 1 whose square root overflows a / s
        ((1e306, 0.0, 0.0, 1e-316), "not all finite"),
    ], ids=["nan", "complex-inf", "inf", "inf-determinant", "nan-determinant",
            "overflowing-normalization"])
    def test_non_finite_matrix_rejected(self, entries, match):
        with pytest.raises(ValueError, match=match):
            MobiusTransform(*entries)

    def test_determinant_of_modulus_beyond_the_float_range(self):
        # |a d - b c| = 2.4e308 although both of its parts are finite
        t = MobiusTransform(complex(1.3e154, 1.3e154), 0.0, 0.0, 1.3e154)
        a, b, c, d = entries(t)
        assert cmath.isclose(a * d - b * c, 1.0, abs_tol=1e-14)

    def test_finite_entries_divide_by_the_root_of_the_determinant(self, rng):
        for _ in range(50):
            a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
            a, b, c, d = (complex(v) for v in (a, b, c, d))
            s = cmath.sqrt(a * d - b * c)
            assert entries(MobiusTransform(a, b, c, d)) == (a / s, b / s, c / s, d / s)

    def test_identity_fixes_sample_points(self, rng):
        t = MobiusTransform.identity()
        pts = rng.normal(size=(40, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        assert np.allclose(mobius_apply_points(t, pts), pts, atol=1e-14)

    def test_diagonal_transform_moves_equator_point(self):
        # diag(sqrt 2, 1/sqrt 2) acts as w -> 2w: (1,0,0) -> (4/5, 0, 3/5)
        t = MobiusTransform(math.sqrt(2.0), 0.0, 0.0, 1.0 / math.sqrt(2.0))
        out = mobius_apply_points(t, np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(out, [[0.8, 0.0, 0.6]], atol=1e-14)

    def test_poles_handled_without_special_casing(self):
        t = MobiusTransform(0.0, 1.0, -1.0, 0.0)  # w -> -1/w swaps poles
        assert np.allclose(mobius_apply_points(t, NORTH[None]), SOUTH[None], atol=1e-14)
        assert np.allclose(mobius_apply_points(t, SOUTH[None]), NORTH[None], atol=1e-14)

    def test_apply_agrees_with_chart_formula(self, rng):
        t = random_mobius(rng)
        # random points plus points on z = 0 and within 0.99 of both poles
        pts = list(rng.normal(size=(20, 3))) + list(EQUATOR_POINTS) + [
            [math.sqrt(1.0 - z * z), 0.0, z] for z in (-0.99, 0.99)
        ]
        for v in pts:
            v = np.asarray(v, dtype=float)
            v /= np.linalg.norm(v)
            if abs(v[2]) > 0.99:
                continue
            w = stereographic(v)
            expect = inverse_stereographic((t.a * w + t.b) / (t.c * w + t.d))
            assert np.allclose(mobius_apply_points(t, v[None])[0], expect, atol=1e-11)


class TestGroupStructure:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_inverse_undoes_compose(self, seed):
        rng = np.random.default_rng(seed)
        t = random_mobius(rng)
        pts = rng.normal(size=(10, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        back = mobius_apply_points(mobius_inverse(t), mobius_apply_points(t, pts))
        assert np.allclose(back, pts, atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_compose_is_function_composition(self, seed):
        rng = np.random.default_rng(seed)
        t1, t2 = random_mobius(rng), random_mobius(rng)
        pts = rng.normal(size=(10, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        lhs = mobius_apply_points(mobius_compose(t1, t2), pts)
        rhs = mobius_apply_points(t1, mobius_apply_points(t2, pts))
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_stretch_of_composition_multiplies(self, rng):
        t1, t2 = random_mobius(rng), random_mobius(rng)
        pts = rng.normal(size=(15, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        lam2 = conformal_stretch_points(t2, pts)
        lam1 = conformal_stretch_points(t1, mobius_apply_points(t2, pts))
        lam12 = conformal_stretch_points(mobius_compose(t1, t2), pts)
        assert np.allclose(lam12, lam1 * lam2, rtol=1e-10)


class TestConformalStretch:
    def test_identity_has_unit_stretch(self):
        t = MobiusTransform.identity()
        assert math.isclose(conformal_stretch_points(t, SOUTH[None])[0], 1.0, abs_tol=1e-14)

    def test_dilation_stretch_at_south_pole(self):
        # w -> 2w doubles lengths at w=0, i.e. at the south pole
        t = MobiusTransform(math.sqrt(2.0), 0.0, 0.0, 1.0 / math.sqrt(2.0))
        assert math.isclose(conformal_stretch_points(t, SOUTH[None])[0], 2.0, rel_tol=1e-14)

    def test_stretch_squared_integrates_to_sphere_area(self, rng):
        # area of the image sphere equals 4 pi for any conformal bijection
        q = make_sphere_quadrature(24)
        for _ in range(5):
            t = random_mobius(rng)
            lam2 = conformal_stretch_points(t, q.nodes) ** 2
            assert math.isclose(float(q.weights @ lam2), 4.0 * math.pi, rel_tol=1e-10)

    def test_stretch_matches_differential_norms(self, rng):
        # both tangent derivatives have length lambda and stay orthogonal
        t = random_mobius(rng)
        pts = rng.normal(size=(10, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        lam = conformal_stretch_points(t, pts)
        u, v = tangent_frames(pts)
        du = mobius_pushforward(t, pts, u)
        dv = mobius_pushforward(t, pts, v)
        assert np.allclose(np.linalg.norm(du, axis=1), lam, rtol=1e-10, atol=0.0)
        assert np.allclose(np.linalg.norm(dv, axis=1), lam, rtol=1e-10, atol=0.0)
        assert np.all(np.abs(np.einsum("ij,ij->i", du, dv)) < 1e-12 * lam**2)


def _area_stretch(t: MobiusTransform, pts: np.ndarray) -> np.ndarray:
    """``|du x dv|`` of the sphere action along the tangent frames."""
    u, v = tangent_frames(pts)
    return np.linalg.norm(np.cross(mobius_pushforward(t, pts, u), mobius_pushforward(t, pts, v)),
                          axis=1)


class TestGramDeterminant:
    def test_identity_rotation_area_stretch_is_one(self, rng):
        pts = rng.normal(size=(8, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        assert np.allclose(_area_stretch(MobiusTransform.identity(), pts), 1.0, rtol=1e-12)

    def test_area_stretch_equals_stretch_squared(self, rng):
        t = random_mobius(rng)
        pts = rng.normal(size=(8, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        lam2 = conformal_stretch_points(t, pts) ** 2
        assert np.allclose(_area_stretch(t, pts), lam2, rtol=1e-10, atol=0.0)

    def test_mapped_area_identity(self, rng):
        q = make_sphere_quadrature(24)
        for _ in range(4):
            t = random_mobius(rng)
            area = float(q.weights @ _area_stretch(t, q.nodes))
            assert math.isclose(area, 4.0 * math.pi, rel_tol=1e-10)


class TestPushforward:
    def test_matches_great_circle_differences(self, rng):
        # random points, points within 1e-9 of both poles, and points on
        # z = 0, where a complex lift of the sphere would switch branches
        near_poles = [[1e-9, 0.0, 1.0], [0.0, -1e-9, 1.0], [1e-9, 0.0, -1.0], [0.0, 1e-9, -1.0]]
        pts = np.vstack([rng.normal(size=(40, 3)), near_poles, EQUATOR_POINTS])
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        u, v = tangent_frames(pts)
        h = 1e-5
        for _ in range(5):
            t = random_mobius(rng)
            for vecs in (u, v):
                fd = (mobius_apply_points(t, math.cos(h) * pts + math.sin(h) * vecs)
                      - mobius_apply_points(t, math.cos(h) * pts - math.sin(h) * vecs)) / (2.0 * h)
                exact = mobius_pushforward(t, pts, vecs)
                err = np.linalg.norm(exact - fd, axis=1) / np.linalg.norm(exact, axis=1)
                assert np.max(err) < 1e-7


    def test_rejects_vectors_of_another_shape(self, rng):
        # a transposed or flattened array used to be reshaped silently
        pts = rng.normal(size=(4, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        u, _ = tangent_frames(pts)
        t = random_mobius(rng)
        for vecs in (u.T, u.ravel()):
            with pytest.raises(ValueError, match="shape of the points"):
                mobius_pushforward(t, pts, vecs)


class TestUnitCheck:
    def test_public_actions_reject_points_off_the_sphere(self, rng):
        pts = 2.0 * EQUATOR_POINTS
        t = random_mobius(rng)
        for call in (lambda: mobius_apply_points(t, pts),
                     lambda: conformal_stretch_points(t, pts),
                     lambda: mobius_pushforward(t, pts, np.zeros_like(pts))):
            with pytest.raises(ValueError, match="unit vectors"):
                call()

    def test_freshly_normalized_rows_give_the_same_bits(self, rng):
        # the package's own normalized rows skip the unit check only
        pts = rng.normal(size=(50, 3)) * 10.0 ** rng.uniform(-140.0, 140.0, size=(50, 1))
        norms = row_norms(pts)
        units = pts / norms[:, None]
        t = random_mobius(rng)
        assert _apply_to_units(t, units, norms).tobytes() == mobius_apply_points(t, units).tobytes()

    def test_rows_whose_squares_leave_the_normal_range_keep_the_check(self, rng):
        # (1e-160)^2 is subnormal: the norm is off by 6e-6, and so is the
        # quotient, which the sphere action rejects as before
        pts = np.array([[1e-160, 1e-160, 0.0]])
        norms = row_norms(pts)
        with pytest.raises(ValueError, match="unit vectors"):
            _apply_to_units(random_mobius(rng), pts / norms[:, None], norms)


class TestSphereInequality:
    """Tangential energy of a sphere bijection: at least 8 pi, with
    equality exactly on the conformal group."""

    def test_identity_attains_8pi(self):
        q = make_sphere_quadrature(32)
        v = sphere_inequality_integral(MobiusTransform.identity(), q)
        assert math.isclose(v, EIGHT_PI, abs_tol=1e-12)

    def test_mobius_attains_8pi(self, rng):
        q = make_sphere_quadrature(32)
        for _ in range(6):
            v = sphere_inequality_integral(random_mobius(rng), q)
            assert abs(v - EIGHT_PI) < 1e-8

    def test_callable_route_matches_transform_route(self, rng):
        q = make_sphere_quadrature(24)
        t = random_mobius(rng)
        direct = sphere_inequality_integral(t, q)

        def ev(pts):
            return mobius_apply_points(t, pts)

        via_fd = sphere_inequality_integral(ev, q)
        assert math.isclose(direct, via_fd, rel_tol=1e-6)

    def test_equator_squash_exceeds_8pi(self):
        q = make_sphere_quadrature(32)

        def squash(pts):
            out = pts.copy()
            out[:, 2] *= 0.8
            out /= np.linalg.norm(out, axis=1)[:, None]
            return out

        assert sphere_inequality_integral(squash, q) > EIGHT_PI + 1e-3


class TestRandomMobius:
    def test_seeded_draws_reproduce(self):
        a = random_mobius(np.random.default_rng(7))
        b = random_mobius(np.random.default_rng(7))
        assert entries(a) == entries(b)

    def test_condition_number_capped(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = random_mobius(rng)
            m = mobius_matrix(t)
            f2 = float(np.sum(np.abs(m) ** 2))
            kappa = (f2 + math.sqrt(max(f2 * f2 - 4.0, 0.0))) / 2.0
            assert kappa <= 5.0 + 1e-9

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
from annuli import _kernels, sphere_maps
from annuli.geometry import row_norms
from annuli.sphere_maps import _apply_to_units, _unit_safe
from reference import (
    great_circle_differences_four_calls,
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


    def test_several_fields_raise_as_one_field_does(self, rng):
        # the frames' pushforward goes through the same checks, with the
        # same errors, as one field of the public call
        pts = rng.normal(size=(6, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        u, v = tangent_frames(pts)
        t = random_mobius(rng)
        cases = [(2.0 * pts, v, "sphere action expects unit vectors")]
        cases += [(pts, bad, "tangent vectors must have the shape of the points")
                  for bad in (v[:-1], v.T, v.ravel())]
        for points, bad, text in cases:
            errors = []
            for call in (lambda: mobius_pushforward(t, points, bad),
                         lambda: sphere_maps._act(_kernels.mobius_pushforward, t, points, u, bad)):
                with pytest.raises(ValueError) as info:
                    call()
                errors.append((type(info.value), str(info.value)))
            assert errors == [(ValueError, text)] * 2


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
        scale = rng.uniform(0.5, 2.0, size=50)
        t = random_mobius(rng)
        expect = mobius_apply_points(t, units) * scale[:, None]
        assert _apply_to_units(t, units, scale, _unit_safe(norms)).tobytes() == expect.tobytes()

    def test_rows_whose_squares_leave_the_normal_range_keep_the_check(self, rng):
        # (1e-160)^2 is subnormal: the norm is off by 6e-6, and so is the
        # quotient, which the sphere action rejects as before
        pts = np.array([[1e-160, 1e-160, 0.0]])
        norms = row_norms(pts)
        units = pts / norms[:, None]
        with pytest.raises(ValueError, match="unit vectors"):
            _apply_to_units(random_mobius(rng), units, np.ones(1), _unit_safe(norms))

    def test_identity_scales_freshly_normalized_rows_alone(self, rng):
        pts = rng.normal(size=(50, 3)) * 10.0 ** rng.uniform(-140.0, 140.0, size=(50, 1))
        norms = row_norms(pts)
        units = pts / norms[:, None]
        scale = rng.uniform(0.5, 2.0, size=50)
        out = _apply_to_units(MobiusTransform.identity(), units, scale, _unit_safe(norms))
        assert out.tobytes() == (units * scale[:, None]).tobytes()

    def test_identity_outside_the_norm_range_keeps_the_check(self, monkeypatch):
        identity = MobiusTransform.identity()
        pts = np.array([[1e-160, 1e-160, 0.0]])
        norms = row_norms(pts)
        with pytest.raises(ValueError, match="unit vectors"):
            _apply_to_units(identity, pts / norms[:, None], np.ones(1), _unit_safe(norms))
        # a norm of 2^-500 squares to a normal float, but lies below 1e-150:
        # its exact unit rows still go through the public action
        calls = []
        public = sphere_maps.mobius_apply_points
        monkeypatch.setattr(sphere_maps, "mobius_apply_points",
                            lambda t, p: calls.append(p) or public(t, p))
        pts = 2.0**-500 * np.eye(3)
        norms = row_norms(pts)
        out = _apply_to_units(identity, pts / norms[:, None], np.full(3, 2.0), _unit_safe(norms))
        assert len(calls) == 1 and np.array_equal(out, 2.0 * np.eye(3))


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


class TestGreatCircleDifferences:
    """A callable gets the four great-circle point sets in one call, with
    the bits of one call per set."""

    @staticmethod
    def _maps(rng):
        t = random_mobius(rng)
        axis = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)

        # maps that act row by row whatever the layout: column sums, no BLAS
        def stretch(etas):
            along = etas[:, 0] * axis[0] + etas[:, 1] * axis[1] + etas[:, 2] * axis[2]
            out = etas + 0.25 * along[:, None] * axis[None, :]
            return out / row_norms(out)[:, None]

        def squash_c_order(etas):
            out = np.ascontiguousarray(etas)
            out[:, 2] *= 0.8
            return out / row_norms(out)[:, None]

        return [lambda pts: mobius_apply_points(t, pts), stretch, squash_c_order]

    @pytest.mark.parametrize("order", [8, 32])
    def test_one_call_matches_four_calls(self, rng, order):
        q = make_sphere_quadrature(order)
        u, v = q._frames
        for s in self._maps(rng):
            calls = []
            one = sphere_maps._tangent_derivatives_fd(
                lambda pts: calls.append(pts.shape) or s(pts), q)
            four = great_circle_differences_four_calls(s, q.nodes, u, v, 1e-6)
            assert calls == [(4 * q.nodes.shape[0], 3)]
            for a, b in zip(one, four):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_every_callable_reads_the_rules_one_read_only_array(self):
        q = make_sphere_quadrature(8)
        seen = []
        for _ in range(2):
            sphere_inequality_integral(lambda pts: seen.append(pts) or np.array(pts), q)
        assert seen[0] is seen[1] is q._great_circle_points
        assert not seen[0].flags.writeable

    def test_a_callable_that_writes_its_input_raises(self):
        q = make_sphere_quadrature(8)
        before = q._great_circle_points.copy()

        def squash_in_place(pts):
            pts[:, 2] *= 0.8
            return pts / row_norms(pts)[:, None]

        with pytest.raises(ValueError, match="read-only"):
            sphere_inequality_integral(squash_in_place, q)
        assert q._great_circle_points.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shape", [lambda n: (n,), lambda n: (n, 2), lambda n: (n // 2, 3)])
    def test_output_of_another_shape_raises(self, shape):
        q = make_sphere_quadrature(4)
        n = 4 * q.nodes.shape[0]
        with pytest.raises(ValueError, match=rf"shape \({shape(n)[0]},.*not \({n}, 3\)"):
            sphere_inequality_integral(lambda pts: np.zeros(shape(pts.shape[0])), q)


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

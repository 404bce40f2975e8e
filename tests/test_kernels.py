import hashlib
import importlib
import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annuli import AnnulusPair, MobiusTransform, make_radial_grid
from annuli import _kernels as K
from annuli.geometry import _form_stiffness
from reference import affine_per_row


class TestBackendReporting:
    def test_backend_constant(self):
        assert K.BACKEND == "numpy"

    def test_warm_up_returns_backend_and_is_idempotent(self):
        assert K.warm_up() == K.BACKEND
        assert K.warm_up() == K.BACKEND

    def test_package_reexports(self):
        import annuli

        assert annuli.BACKEND == K.BACKEND


class TestLoops:
    def test_thomas_solves_diagonally_dominant_system(self, rng):
        n = 60
        diag = 2.0 + rng.random(n)
        lower = -rng.random(n)
        upper = -rng.random(n)
        lower[0] = 0.0
        upper[-1] = 0.0
        rhs = rng.standard_normal(n)
        x = K.thomas_solve(lower, diag, upper, rhs)
        mat = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        np.testing.assert_allclose(mat @ x, rhs, atol=1e-10)

    def test_gd_conjugate_gradient_reaches_constant_flux(self, rng):
        # with fixed ends, sum a_i (k_{i+1} - k_i)^2 is minimized by steps
        # proportional to 1 / a_i
        n = 50
        a = 0.5 + rng.random(n)
        k = np.linspace(0.0, 1.0, n + 1)
        k[1:-1] += 0.1 * rng.standard_normal(n - 1)
        iters, converged = K.gd_quadratic(a, k, 100_000, 1e-11)
        assert converged and iters > 0
        flux = np.concatenate(([0.0], np.cumsum(1.0 / a))) / np.sum(1.0 / a)
        np.testing.assert_allclose(k, flux, rtol=0.0, atol=1e-10)

    def test_thomas_reads_strided_views(self, rng):
        # every other element of longer arrays: the same system as the
        # contiguous copies, solved to the same bits
        n = 40
        base = rng.random((4, 2 * n))
        lower, upper = -base[0, ::2], -base[1, ::2]
        diag = 2.0 + base[2, ::2]
        rhs = base[3, ::2]
        x = K.thomas_solve(lower, diag, upper, rhs)
        dense = K.thomas_solve(*(np.ascontiguousarray(v) for v in (lower, diag, upper, rhs)))
        assert x.tobytes() == dense.tobytes()
        mat = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        np.testing.assert_allclose(mat @ x, rhs, atol=1e-12)

    def test_thomas_rejects_long_double(self):
        x = np.ones(3, dtype=np.longdouble)
        with pytest.raises(NotImplementedError):
            K.thomas_solve(x, x, x, x)

    def test_thomas_zero_pivot_raises(self):
        zero = np.zeros(3)
        with pytest.raises(ZeroDivisionError):
            K.thomas_solve(zero, zero, zero, np.ones(3))


def _dominant_system(rng, n):
    """A random strictly diagonally dominant system with nan in the two
    entries the solve ignores."""
    lower, upper = -rng.random(n), -rng.random(n)
    lower[0] = upper[-1] = np.nan
    return lower, 2.5 + rng.random(n), upper, rng.standard_normal(n)


def _seeded_system(n):
    """:func:`_dominant_system` of ``n`` rows drawn from seed ``n``."""
    return _dominant_system(np.random.default_rng(n), n)


def _residual(lower, diag, upper, rhs, x):
    res = diag * x - rhs
    res[1:] += lower[1:] * x[:-1]
    res[:-1] += upper[:-1] * x[1:]
    return res


def _thomas_loop(lower, diag, upper, rhs):
    """The Thomas algorithm one row at a time on Python floats, the
    reference the reduction is compared against."""
    n = diag.shape[0]
    c = [0.0] * n
    d = [0.0] * n
    beta = diag[0]
    c[0] = upper[0] / beta
    d[0] = rhs[0] / beta
    for i in range(1, n):
        beta = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / beta   # c[n - 1] is never read
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / beta
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)


class TestMoebiusLayouts:
    # every step of the kernels is elementwise on one column of points,
    # so no memory layout of the input changes a bit of the output
    T = MobiusTransform(1.2 + 0.3j, 0.4 - 0.1j, -0.2j, 0.9)
    ABCD = (T.a, T.b, T.c, T.d)

    def _layouts(self, arr):
        wide = np.zeros((2 * arr.shape[0], 7))
        wide[::2, 1::2] = arr
        return {"C": np.ascontiguousarray(arr), "F": np.asfortranarray(arr),
                "strided": wide[::2, 1::2]}

    def test_every_layout_gives_the_same_bits(self, rng):
        pts = rng.standard_normal((257, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vecs = np.cross(pts, rng.standard_normal((257, 3)))
        outs = {}
        for (name, p), v in zip(self._layouts(pts).items(), self._layouts(vecs).values()):
            outs[name] = [K.mobius_apply_points(*self.ABCD, p),
                          K.conformal_stretch_points(*self.ABCD, p),
                          K.mobius_pushforward(*self.ABCD, p, v)]
        for name, out in outs.items():
            assert [o.tobytes() for o in out] == [o.tobytes() for o in outs["C"]], name

    def test_several_fields_give_the_bits_of_one_at_a_time(self, rng):
        # one image and one linear pass over the stacked fields: each
        # derivative is that of its own one-field call, on any layout
        pts = rng.standard_normal((257, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        fields = [np.cross(pts, rng.standard_normal((257, 3))) for _ in range(3)]
        identity = MobiusTransform.identity()
        for abcd in (self.ABCD, (identity.a, identity.b, identity.c, identity.d)):
            for order in ("C", "F"):
                p, *vecs = (np.asarray(a, order=order) for a in (pts, *fields))
                for k in (2, 3):
                    outs = K.mobius_pushforward(*abcd, p, *vecs[:k])
                    assert isinstance(outs, tuple) and len(outs) == k
                    for out, v in zip(outs, vecs):
                        one = K.mobius_pushforward(*abcd, p, v)
                        assert out.shape == one.shape == (257, 3)
                        assert out.tobytes() == one.tobytes(), (abcd, order, k)

    def test_point_batches_come_back_column_major(self, rng):
        pts = rng.standard_normal((64, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vecs = np.cross(pts, [0.0, 0.0, 1.0])
        assert K.mobius_apply_points(*self.ABCD, pts).flags.f_contiguous
        assert K.mobius_pushforward(*self.ABCD, pts, vecs).flags.f_contiguous


class TestBroadcastAffine:
    """``_affine`` forms every Lorentz row in one broadcast pass per
    coordinate, with the bits of a loop over the rows."""

    @pytest.mark.parametrize("n", [3, 288, 2048, 4608])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_row_loop(self, rng, n, order):
        from annuli import random_mobius

        pts = np.asarray(rng.standard_normal((n, 3)), order=order)
        for _ in range(5):
            t = random_mobius(rng)
            lor = K._lorentz(t.a, t.b, t.c, t.d)
            for rows in (lor, lor[:1], lor[1:]):
                out = K._affine(rows, pts)
                assert out.tobytes() == affine_per_row(rows, pts).tobytes()

    def test_image_reads_numerator_and_denominator_from_one_pass(self, rng):
        # the identity's matrix has signed zeros, whose signs must survive
        pts = rng.standard_normal((4608, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for lor in (K._lorentz(1.0, 0.0, 0.0, 1.0), K._lorentz(*TestMoebiusLayouts.ABCD)):
            image, den = K._image(lor, pts)
            rows = affine_per_row(lor, pts)
            assert den.tobytes() == rows[0].tobytes()
            assert image.tobytes() == np.asfortranarray((rows[1:] / rows[0]).T).tobytes()
            assert image.flags.f_contiguous


# the parity of the row count at some level changes between these sizes
_PARITY_SIZES = sorted({2**k + j for k in range(1, 13) for j in (-1, 0, 1)})


class TestLorentzCache:
    """``_lorentz`` keeps the matrix of each transform's entries, read-only,
    with the bits of a fresh einsum; entries whose bits differ, if only in
    the sign of a zero, get their own matrix."""

    @staticmethod
    def _fresh(a, b, c, d):
        m = np.array([[a, b], [c, d]], dtype=complex)
        return 0.5 * np.einsum("mij,jk,nkl,il->mn", K._BASIS, m, K._BASIS, m.conj()).real

    def _check(self, entries):
        lor = K._lorentz(*entries)
        assert lor.tobytes() == self._fresh(*entries).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            lor[0, 0] = 0.0
        assert K._lorentz(*entries) is lor
        return lor

    def test_identity(self):
        self._check((1.0, 0.0, 0.0, 1.0))

    def test_random_transform(self, rng):
        from annuli import random_mobius

        t = random_mobius(rng)
        self._check((t.a, t.b, t.c, t.d))

    # the zero parts of the identity's entries, (entry, part)
    @pytest.mark.parametrize("index, part", [(0, "imag"), (1, "real"), (1, "imag"),
                                             (2, "real"), (2, "imag"), (3, "imag")])
    def test_sign_of_a_zero_is_part_of_the_key(self, index, part):
        entries = [complex(1.0, 0.0), complex(0.0, 0.0), complex(0.0, 0.0), complex(1.0, 0.0)]
        flipped = list(entries)
        v = entries[index]
        flipped[index] = complex(-0.0, v.imag) if part == "real" else complex(v.real, -0.0)
        assert self._check(entries) is not self._check(flipped)


class TestCyclicReduction:
    # Over 1 500 systems like _dominant_system's, half of them symmetric,
    # with n from 1 to 3 000, the reduction came within 6.9e-16 of the
    # loop relative to max |x|, with residual within 7.8e-16 of
    # max |rhs|; the bound below is 1e-14.
    @staticmethod
    def _check(n, seed):
        args = _dominant_system(np.random.default_rng(seed), n)
        x = K.thomas_solve(*args)
        ref = _thomas_loop(*args)
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs(_residual(*args, x))) <= 1e-14 * np.max(np.abs(args[3]))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_loop_and_solves_the_system(self, n, seed):
        self._check(n, seed)

    @pytest.mark.parametrize("n", _PARITY_SIZES)
    def test_every_level_parity(self, n):
        self._check(n, n)

    def test_strided_views_give_the_same_bits(self, rng):
        n = 5000
        base = rng.random((4, 2 * n))
        lower, upper = -base[0, ::2], -base[1, ::2]
        diag = 2.0 + base[2, ::2]
        rhs = base[3, ::2]
        x = K.thomas_solve(lower, diag, upper, rhs)
        dense = K.thomas_solve(*(np.ascontiguousarray(v) for v in (lower, diag, upper, rhs)))
        assert x.tobytes() == dense.tobytes()

    def test_rejects_long_double(self, rng):
        args = [v.astype(np.longdouble) for v in _dominant_system(rng, 5000)]
        with pytest.raises(NotImplementedError):
            K.thomas_solve(*args)

    @pytest.mark.parametrize("where", ["even", "last-level"])
    def test_zero_pivot_raises(self, rng, where):
        # a zero row: an even row is a pivot of the first level, and row
        # 2^floor(log2 n) - 1 is the one row left at the last level, whose
        # diagonal stays 0 on every level
        for n in (4096, 4097, 5000):
            lower, diag, upper, rhs = _dominant_system(rng, n)
            row = 2 if where == "even" else 2 ** (n.bit_length() - 1) - 1
            lower[row] = diag[row] = upper[row] = 0.0
            with pytest.raises(ZeroDivisionError):
                K.thomas_solve(lower, diag, upper, rhs)

    def test_peak_allocation_is_at_most_four_floats_per_row(self, rng):
        # the output and the reduction's _work_size(n) floats: measured
        # 29.4 bytes per row, against 40.1 for a reduction that allocates
        # each level and its scratch anew
        n = 99_999
        args = _dominant_system(rng, n)
        K.thomas_solve(*args)
        tracemalloc.start()
        try:
            K.thomas_solve(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n

    def test_out_is_the_output_and_its_scratch(self, rng):
        # with out given, the reduction's _work_size(n) floats (21.3 bytes
        # per row) are all it allocates, plus about 11 KB that does not grow
        # with n (numpy's reduction buffer in the pivot check, the views and
        # the level list): measured 21.44 bytes per row at n = 99 999
        n = 99_999
        args = _dominant_system(rng, n)
        expect = K.thomas_solve(*args)
        out = np.empty(n)
        tracemalloc.start()
        try:
            x = K.thomas_solve(*args, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x is out
        assert out.tobytes() == expect.tobytes()
        assert peak <= 8 * K._work_size(n) + 16 * 1024

    @pytest.mark.parametrize("n", [4999, 5000])
    def test_negated_system_gives_the_same_bits(self, rng, n):
        # round-to-nearest is symmetric in sign, so every intermediate of the
        # reduction on the negated system is the exact negation of its own
        grid = make_radial_grid(AnnulusPair.from_radii(1.0, 2.0, 1.0, math.e).domain, n + 1)
        a = _form_stiffness(grid, np.empty(n + 1), np.empty(n + 1))
        rhs = np.zeros(n)
        rhs[-1] = a[-1]
        for args in (_dominant_system(rng, n), (-a[:-1], a[:-1] + a[1:], -a[1:], rhs)):
            x = K.thomas_solve(*args)
            assert K.thomas_solve(*(np.negative(v) for v in args)).tobytes() == x.tobytes()

    def test_out_of_another_shape_or_dtype_raises(self, rng):
        args = _dominant_system(rng, 10)
        for out in (np.empty(9), np.empty(10, dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be float64 of shape"):
                K.thomas_solve(*args, out)

    def test_overlapping_out_raises(self, rng):
        args = _dominant_system(rng, 10)
        with pytest.raises(ValueError, match="out must overlap no input"):
            K.thomas_solve(*args, args[3])

    @pytest.mark.parametrize("n", [1, 2, 3, 4999, 5000])
    def test_work_gives_the_same_bits(self, rng, n):
        # work holds the reduction's buffers; its contents are never read
        # before they are written, and a longer work is allowed
        args = _dominant_system(rng, n)
        expect = K.thomas_solve(*args)
        for size in (K._work_size(n), K._work_size(n) + 7):
            work = np.full(size, np.nan)
            assert K.thomas_solve(*args, work=work).tobytes() == expect.tobytes()
            out = np.empty(n)
            assert K.thomas_solve(*args, out, work) is out
            assert out.tobytes() == expect.tobytes()

    def test_out_and_work_leave_nothing_that_grows_with_n(self, rng):
        # with both buffers given, a solve allocates only the views, the
        # level list and numpy's reduction buffer of the pivot check
        n = 99_999
        args = _dominant_system(rng, n)
        out, work = np.empty(n), np.empty(K._work_size(n))
        K.thomas_solve(*args, out, work)
        tracemalloc.start()
        try:
            K.thomas_solve(*args, out, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 1024

    def test_short_wrong_or_overlapping_work_raises(self, rng):
        args = _dominant_system(rng, 10)
        size = K._work_size(10)
        for work in (np.empty(size - 1), np.empty(size, dtype=np.float32),
                     np.empty((4, size // 4))):
            with pytest.raises(ValueError, match=f"work must be 1-D float64 of at least {size}"):
                K.thomas_solve(*args, work=work)
        # a work that shares memory with the right-hand side, or with out
        lower, diag, upper, rhs = args
        shared = np.empty(20 + size)
        shared[:10] = rhs
        for given_out, work in ((None, shared[5:5 + size]), (shared[10:20], shared[15:15 + size])):
            with pytest.raises(ValueError, match="work must overlap no input"):
                K.thomas_solve(lower, diag, upper, shared[:10], given_out, work)
        expect = K.thomas_solve(*args)
        x = K.thomas_solve(lower, diag, upper, shared[:10], shared[10:20], shared[20:])
        assert x.tobytes() == expect.tobytes()

    # SHA-256 of the solutions of _seeded_system(n), concatenated over the
    # sizes, as the reduction that stored level l at a stride of 2^(l - 1)
    # elements computed them: any change of arithmetic changes a digest
    _DIGESTS = [
        (range(1, 71), "86aa8d6f8b11ca75cf53dd2b608bee4a4a732c1cd414aca4d931da2ca9c8639e"),
        ([4999], "3e71d950a6a784ff2a69f25c51de225add85b52fd47ced46512373627f1ced3a"),
        ([5000], "2f88823eed5af3dc8c4cb6043c53919de7565ecbacab4a34e38cb5561382cf16"),
        ([99_999], "6a6a611e09e49a03888e4aed838a53b6f0dfffb578e2f4a6175caa94cbfbe3a4"),
    ]

    @pytest.mark.parametrize("sizes, digest", _DIGESTS)
    @pytest.mark.parametrize("buffers", ["none", "out", "work", "out-and-work"])
    def test_bytes_of_the_solution(self, sizes, digest, buffers):
        h = hashlib.sha256()
        for n in sizes:
            out = np.empty(n) if "out" in buffers else None
            work = np.full(K._work_size(n), np.nan) if "work" in buffers else None
            h.update(K.thomas_solve(*_seeded_system(n), out, work).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("with_work", [False, True])
    def test_every_reduced_level_has_a_stride_of_at_most_two(self, monkeypatch, with_work):
        # level 0 is the caller's system, at any stride; every level after it
        # reaches _reduce at a stride of at most 2 floats, as does every
        # level it writes
        strides = []
        reduce = K._reduce

        def recording(system, reduced, scratch):
            strides.append((max(v.strides[0] for v in system), reduced.strides[1]))
            return reduce(system, reduced, scratch)

        monkeypatch.setattr(K, "_reduce", recording)
        for n in (*range(1, 71), 4999, 5000, 99_999):
            strides.clear()
            work = np.empty(K._work_size(n)) if with_work else None
            K.thomas_solve(*_seeded_system(n), None, work)
            assert len(strides) == n.bit_length() - 1
            later = [system for system, _ in strides[1:]] + [reduced for _, reduced in strides]
            assert max(later, default=0) <= 16, (n, strides)

    @pytest.mark.parametrize("n", [10, 5000, 99_999])
    def test_work_shorter_than_its_size_raises_naming_it(self, rng, n):
        # levels 1, 3, 5, ... each take a block of their own: 8 n / 3 floats
        # and a little less, against the 4 (n // 2) of the level-1 buffers
        size = K._work_size(n)
        assert 4 * (n // 2) < size <= 8 * n / 3
        args = _dominant_system(rng, n)
        for short in (4 * (n // 2), size - 1):
            with pytest.raises(ValueError, match=f"of at least {size} entries"):
                K.thomas_solve(*args, work=np.empty(short))
        assert K._work_size(99_999) == 266_644

    @pytest.mark.parametrize("radii", [(1.0, 2.0, 1.0, math.e), (0.1, 10.0, 0.5, 3.0),
                                       (1.0, 1.02, 1.0, 5.0)])
    def test_minimize_system_reaches_the_closed_form(self, radii):
        # the n = 1e5 system of minimize_reduced_energy; its minimizer has
        # the constant flux a_i dK_i.  Measured on these domains and 30
        # generator pairs, relative to max(|k0|, |kn|, |kn - k0|): at most
        # 1.24e-9 for the reduction and 1.04e-9 for the loop.
        pair = AnnulusPair.from_radii(*radii)
        a = _form_stiffness(make_radial_grid(pair.domain, 100_000), np.empty(100_000),
                            np.empty(100_000))
        k0, kn = math.log(pair.r_star), math.log(pair.R_star)
        rhs = np.zeros(a.size - 1)
        rhs[0] = a[0] * k0
        rhs[-1] = a[-1] * kn
        y = K.thomas_solve(-a[:-1], a[:-1] + a[1:], -a[1:], rhs)
        c = np.concatenate(([0.0], np.cumsum(1.0 / a)))
        closed = k0 + (kn - k0) * c[1:-1] / c[-1]
        assert np.max(np.abs(y - closed)) <= 1e-8 * max(abs(k0), abs(kn), abs(kn - k0))


class TestRK4Shoot:
    def test_tracks_the_closed_form(self):
        # (1, 2) -> (1, e): H = e^2 exp(-2 / t), H(1) = 1, H'(1) = 2
        values = K.rk4_shoot(1.0, 2.0, 1.0, 2.0, 2000)
        t = np.linspace(1.0, 2.0, 2001)
        np.testing.assert_allclose(values, np.exp(2.0 - 2.0 / t), rtol=0.0, atol=1e-12)

    def test_float64_scalars_give_the_same_bits(self):
        # numpy scalars, as radii drawn by numpy arrive, change nothing
        plain = K.rk4_shoot(1.0, 2.0, 1.0, 2.0, 500)
        wrapped = K.rk4_shoot(*map(np.float64, (1.0, 2.0, 1.0, 2.0)), 500)
        assert plain.tobytes() == wrapped.tobytes()

    def test_matches_a_stepwise_rk4_loop(self):
        # reference: textbook RK4 on (K, P) = (log H, H'/H) with
        # K' = P, P' = -2 P / t, one Python step at a time
        r, R, h0, slope, n = 0.5, 3.0, 1.5, -0.7, 300

        def f(t, y):
            return np.array([y[1], -2.0 * y[1] / t])

        dt = (R - r) / n
        y = np.array([math.log(h0), slope / h0])
        ref = [h0]
        for k in range(n):
            t = r + k * dt
            k1 = f(t, y)
            k2 = f(t + dt / 2, y + dt / 2 * k1)
            k3 = f(t + dt / 2, y + dt / 2 * k2)
            k4 = f(t + dt, y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            ref.append(math.exp(y[0]))
        values = K.rk4_shoot(r, R, h0, slope, n)
        np.testing.assert_allclose(values, ref, rtol=1e-13, atol=0.0)

    def test_rise_is_linear_in_the_slope(self):
        # shoot_el's slope correction relies on log(H(R) / h0) scaling
        # with the slope; the RK4 steps are linear in H'/H
        h0 = 2.0
        rises = [math.log(K.rk4_shoot(0.1, 10.0, h0, s, 2000)[-1] / h0)
                 for s in (5.0, 15.0)]
        assert math.isclose(rises[1], 3.0 * rises[0], rel_tol=1e-12)

    @pytest.mark.parametrize("ratio", [1.02, 100.0, 1e4])
    def test_nonnegative_slope_gives_a_positive_nondecreasing_sweep(self, ratio):
        # with shoot_el's steps of at most r / 20, every RK4 step keeps
        # H'/H at or above 0 and adds a nonnegative rise, so a sweep from
        # a slope >= 0 never falls below h0 and needs no floor or cap
        r = 0.5
        R = ratio * r
        n = max(2000, math.ceil(20 * (ratio - 1.0)))
        for slope in (0.0, 5e-324, 1e-8, 1.0, 100.0):
            values = K.rk4_shoot(r, R, 1.0, slope, n)
            assert values[0] == 1.0 and np.all(np.isfinite(values))
            assert np.all(np.diff(values) >= 0.0)


class TestGradientDescentModes:
    @staticmethod
    def _problem(rng, n=30):
        a = 0.5 + rng.random(n)
        k = np.linspace(0.0, 1.0, n + 1)
        k[1:-1] += 0.1 * rng.standard_normal(n - 1)
        flux = np.concatenate(([0.0], np.cumsum(1.0 / a))) / np.sum(1.0 / a)
        return a, k, flux

    def test_zero_budget_on_a_non_optimal_start(self, rng):
        a, k, _ = self._problem(rng)
        start = k.copy()
        assert K.gd_quadratic(a, k, 0, 1e-11) == (0, False)
        assert k.tobytes() == start.tobytes()

    def test_non_positive_curvature_ends_the_run(self, rng):
        # with a < 0 every direction has p . Hp < 0: no step is taken
        a, k, _ = self._problem(rng)
        start = k.copy()
        assert K.gd_quadratic(-a, k, 100, 1e-11) == (0, False)
        assert k.tobytes() == start.tobytes()

    def test_zero_curvature_ends_the_run(self):
        # Q = (k1 - k0)^2 - (k2 - k1)^2 is linear in k1 with slope 2 (k2 - k0)
        k = np.array([0.0, 0.3, 1.0])
        assert K.gd_quadratic(np.array([1.0, -1.0]), k, 100, 1e-11) == (0, False)
        assert k.tolist() == [0.0, 0.3, 1.0]

    @pytest.mark.parametrize("a", [
        # the level-0 entries are positive, and so is the Hessian diagonal,
        # but the level-1 hat has D / 4 = 1 / 4 - 0.3 < 0
        [1.0, 1.0, -0.6],
        [1.0, math.nan, 1.0],
    ])
    def test_hat_energy_not_positive_ends_the_run(self, a):
        a = np.array(a)
        assert not K._hierarchical_basis(a)[1].min() > 0.0
        k = np.array([0.0, 0.3, 0.5, 1.0])
        assert K.gd_quadratic(a, k, 100, 1e-11) == (0, False)
        assert k.tolist() == [0.0, 0.3, 0.5, 1.0]

    def test_tolerance_below_rounding_is_never_reached(self, rng):
        # the recursively updated gradient falls below any tolerance, but
        # the one recomputed from k stays at the rounding level; each
        # failed confirmation restarts from steepest descent
        a, k, flux = self._problem(rng)
        assert K.gd_quadratic(a, k, 500, 1e-30) == (500, False)
        np.testing.assert_allclose(k, flux, rtol=0.0, atol=1e-12)


def _interior_vector(rng, n):
    """Random values on nodes 1 .. n - 1, zero at nodes 0 and n."""
    v = np.zeros(n + 1)
    v[1:-1] = rng.standard_normal(n - 1)
    return v


class TestHierarchicalBasis:
    def test_restriction_is_the_adjoint_of_interpolation(self, rng):
        # every n, so the clipped right parents of non-powers of two too
        for n in range(2, 201):
            levels, _ = K._hierarchical_basis(np.ones(n))
            v, w = _interior_vector(rng, n), _interior_vector(rng, n)
            sv, stw = v.copy(), w.copy()
            K._interpolate(levels, sv)
            K._restrict(levels, stw)
            lhs = sv[1:-1] @ w[1:-1]
            rhs = v[1:-1] @ stw[1:-1]
            scale = np.abs(sv[1:-1]) @ np.abs(w[1:-1])
            assert abs(lhs - rhs) <= 1e-14 * scale

    def test_hat_energies_are_the_diagonal_of_the_basis_hessian(self, rng):
        for n in range(2, 41):
            a = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
            levels, quarter_d = K._hierarchical_basis(a)
            s = np.empty((n - 1, n - 1))
            for j in range(1, n):
                e = np.zeros(n + 1)
                e[j] = 1.0
                K._interpolate(levels, e)
                s[:, j - 1] = e[1:-1]
            hessian = 2.0 * (np.diag(a[:-1] + a[1:]) - np.diag(a[1:-1], 1) - np.diag(a[1:-1], -1))
            np.testing.assert_allclose(4.0 * quarter_d, np.diag(s.T @ hessian @ s), rtol=1e-13)

    def test_hat_energies_stay_finite_near_the_float_maximum(self):
        # a cumulative sum of a would overflow; every block mean is
        # max(a), so D / 4 = max(a) (1 / (2 h) + 1 / (2 R)) exactly
        n = 37
        big = 1.7e308
        _, quarter_d = K._hierarchical_basis(np.full(n, big))
        j = np.arange(1, n)
        h = j & -j
        right = np.minimum(h, n - j)
        np.testing.assert_allclose(quarter_d, big / (2.0 * h) + big / (2.0 * right), rtol=1e-15)


class TestConjugateGradientProperty:
    # Over 3000 draws of this strategy, conjugate gradient at tol 1e-12
    # converged on all, came within 8.3e-12 of the closed form and took at
    # most 1.27 n iterations (57 at n = 45); the bounds below leave a
    # factor 12 and 3.
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    def test_reaches_the_closed_form(self, n, seed):
        rng = np.random.default_rng(seed)
        a = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
        k = rng.standard_normal(n + 1)
        c = np.concatenate(([0.0], np.cumsum(1.0 / a)))
        closed = k[0] + (k[-1] - k[0]) * c / c[-1]
        iters, converged = K.gd_quadratic(a, k, 50 * n, 1e-12)
        assert converged
        assert iters <= 4 * n
        np.testing.assert_allclose(k, closed, rtol=0.0, atol=1e-10)
        flux = a * np.diff(k)
        assert np.max(np.abs(2.0 * (flux[:-1] - flux[1:]))) <= 1e-12

    def test_power_of_two_scaling_changes_no_bit(self):
        # the preconditioned gradient is in units of k, so scaling a and
        # tol by 2**e scales g, D and p . Hp exactly and leaves
        # every step length and iterate as it was; 2**900 and 2**-900
        # would overflow or underflow g . g
        rng = np.random.default_rng(17)
        n = 200
        a = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
        start = rng.standard_normal(n + 1)
        runs = []
        for e in (-900, 0, 900):
            k = start.copy()
            iters, converged = K.gd_quadratic(a * 2.0**e, k, 50 * n, 1e-12 * 2.0**e)
            assert converged
            runs.append((iters, k.tobytes()))
        assert runs[0] == runs[1] == runs[2]


_ROOT = Path(__file__).resolve().parents[1]


def _perfbench_module(name):
    """Load ``perfbench/<name>.py`` from the source tree by path."""
    path = _ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkPins:
    def test_micro_argument_tuples_still_run(self, rng):
        # perfbench/micro.py calls each kernel by position with these
        # argument tuples, the retired floor, cap, mode and fixed step
        # included; here at tiny sizes
        pts = rng.standard_normal((8, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        a, b, c, d = 2.0, 0.5j, 0.0, 0.5   # ad - bc = 1
        assert K.mobius_apply_points(a, b, c, d, pts).shape == (8, 3)
        assert K.conformal_stretch_points(a, b, c, d, pts).shape == (8,)
        assert K.rk4_shoot(1.0, 2.0, 1.0, 2.0, 20, 1e-12, 1e12).shape == (21,)
        n = 6
        lower, upper = -rng.random(n), -rng.random(n)
        lower[0] = 0.0
        upper[-1] = 0.0
        assert K.thomas_solve(lower, 2.0 + rng.random(n), upper, rng.standard_normal(n)).shape == (n,)
        t = np.linspace(1.0, 2.0, 9)
        ga = (t[:-1] ** 2 + t[:-1] * t[1:] + t[1:] ** 2) / 3.0 / np.diff(t)
        iters, converged = K.gd_quadratic(ga, np.linspace(0.0, 1.0, t.size), 50_000, 1e-10, 1, 0.0)
        assert converged

    def test_traced_names_exist(self):
        # perfbench/tracing.py wraps every function its LAYERS table names
        for layer, funcs in _perfbench_module("tracing").LAYERS.items():
            module = importlib.import_module(f"annuli.{layer}")
            for name in funcs:
                assert callable(getattr(module, name)), f"annuli.{layer}.{name}"

    @pytest.mark.parametrize("workload", ["cli-oneshot", "oracle-pairs", "verify-suite"])
    def test_traced_run_passes_its_self_test(self, workload):
        # the traced run fails when a span it predicts nonzero reads 0, so
        # a change that starves a pinned span fails here too; about 2 s for
        # cli-oneshot and oracle-pairs, 6 s for verify-suite
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--trace", "1"],
            cwd=_ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from annuli import _kernels as K

needs_numba = pytest.mark.skipif(not K.HAVE_NUMBA, reason="numba backend unavailable")


class TestBackendReporting:
    def test_backend_matches_numba_flag(self):
        assert K.BACKEND in ("numba", "numpy")
        assert K.BACKEND == ("numba" if K.HAVE_NUMBA else "numpy")

    def test_warm_up_returns_backend_and_is_idempotent(self):
        assert K.warm_up() == K.BACKEND
        assert K.warm_up() == K.BACKEND

    def test_package_reexports(self):
        import annuli

        assert annuli.BACKEND == K.BACKEND
        assert annuli.HAVE_NUMBA == K.HAVE_NUMBA


@needs_numba
class TestBackendEquivalence:
    """Both backends must agree on seeded inputs.

    Gradient descent accumulates dot products in different orders, so it
    is compared through the invariant quantities, not the iterates.
    """

    def test_rk4_shoot(self):
        args = (1.0, 2.0, 1.0, 2.0, 512, 1e-12, 1e12)
        prof_nb, status_nb = K.rk4_shoot_numba(*args)
        prof_np, status_np = K.rk4_shoot_numpy(*args)
        assert status_nb == status_np == 0
        np.testing.assert_array_equal(prof_nb, prof_np)

    def test_thomas(self, rng):
        n = 60
        diag = 2.0 + rng.random(n)
        lower = -rng.random(n)
        upper = -rng.random(n)
        lower[0] = 0.0
        upper[-1] = 0.0
        rhs = rng.standard_normal(n)
        x_nb = K.thomas_solve_numba(lower, diag, upper, rhs)
        x_np = K.thomas_solve_numpy(lower, diag, upper, rhs)
        np.testing.assert_array_equal(x_nb, x_np)
        mat = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        np.testing.assert_allclose(mat @ x_np, rhs, atol=1e-10)

    def test_gd_quadratic(self, rng):
        n = 50
        a = 0.5 + rng.random(n)

        def solve(fn):
            k = np.linspace(0.0, 1.0, n + 1)
            k[1:-1] += 0.1 * rng.standard_normal(n - 1)  # same draw consumed below
            iters, converged = fn(a, k, 100_000, 1e-11, 1, 0.0)
            return k, iters, converged

        state = rng.bit_generator.state
        k_nb, _, conv_nb = solve(K.gd_quadratic_numba)
        rng.bit_generator.state = state
        k_np, _, conv_np = solve(K.gd_quadratic_numpy)
        assert conv_nb and conv_np
        q_nb = float(a @ np.diff(k_nb) ** 2)
        q_np = float(a @ np.diff(k_np) ** 2)
        assert math.isclose(q_nb, q_np, rel_tol=1e-10)
        np.testing.assert_allclose(k_nb, k_np, atol=1e-9)


class TestDisabledBackendSubprocess:
    def test_env_flag_forces_numpy_and_matches(self):
        from annuli import AnnulusPair, minimize_reduced_energy
        from annuli.geometry import make_radial_grid

        pair = AnnulusPair.from_radii(1.0, 2.0, 1.0, math.e)
        grid = make_radial_grid(pair.domain, 200, spacing_mode="uniform-in-1/t")
        here = minimize_reduced_energy(pair, grid).energy

        code = (
            "import math\n"
            "import annuli\n"
            "from annuli import AnnulusPair, minimize_reduced_energy\n"
            "from annuli.geometry import make_radial_grid\n"
            "assert annuli.BACKEND == 'numpy', annuli.BACKEND\n"
            "assert not annuli.HAVE_NUMBA\n"
            "pair = AnnulusPair.from_radii(1.0, 2.0, 1.0, math.e)\n"
            "grid = make_radial_grid(pair.domain, 200, spacing_mode='uniform-in-1/t')\n"
            "print(repr(minimize_reduced_energy(pair, grid).energy))\n"
        )
        env = dict(os.environ, ANNULI_DISABLE_NUMBA="1")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        child = float(out.stdout.strip())
        assert math.isclose(child, here, rel_tol=1e-12)

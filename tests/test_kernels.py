import numpy as np

from annuli import _kernels as K


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

    def test_gd_barzilai_borwein_reaches_constant_flux(self, rng):
        # with fixed ends, sum a_i (k_{i+1} - k_i)^2 is minimized by steps
        # proportional to 1 / a_i
        n = 50
        a = 0.5 + rng.random(n)
        k = np.linspace(0.0, 1.0, n + 1)
        k[1:-1] += 0.1 * rng.standard_normal(n - 1)
        iters, converged = K.gd_quadratic(a, k, 100_000, 1e-11, 1, 0.0)
        assert converged and iters > 0
        flux = np.concatenate(([0.0], np.cumsum(1.0 / a))) / np.sum(1.0 / a)
        np.testing.assert_allclose(k, flux, rtol=0.0, atol=1e-8)

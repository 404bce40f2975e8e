import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from annuli import (
    AnnulusPair,
    DomainError,
    EvaluationError,
    ExponentialProfile,
    HarmonicProfile,
    analytic_min_weighted_energy,
    discrete_reduced_energy,
    el_residual,
    exp_profile_from_boundary,
    gradient_descent_minimize,
    make_radial_grid,
    minimize_reduced_energy,
    reduced_energy_gradient,
    shoot_el,
    weighted_harmonic_residual,
)
from annuli import _kernels, geometry, variational
from annuli.geometry import _form_stiffness, _log_width
from annuli.variational import _closed_form_sup_error
from annuli.verify import random_annulus_pair


def _stiffness(grid):
    """The interval stiffness of ``grid``, formed as the package's readers
    form it: in a fresh array, with this thread's scratch as ``tmp``."""
    n = grid.nodes.size - 1
    return _form_stiffness(grid, np.empty(n), geometry._scratch(n))


class TestElResidual:
    """Stationarity defect 2 H H' - t H'^2 + t H H''."""

    def test_vanishes_on_the_exponential_family(self, rng):
        ts = np.linspace(0.8, 4.0, 100)
        for _ in range(20):
            p = ExponentialProfile(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5))
            assert np.max(np.abs(el_residual(p, ts))) < 1e-9

    def test_constant_profile_is_stationary(self):
        ts = np.linspace(0.5, 3.0, 50)
        assert np.max(np.abs(el_residual(ExponentialProfile(1.0, 0.0), ts))) < 1e-14

    def test_known_nonzero_value(self):
        # H = t + 1/t^2: H'(1) = -1, H''(1) = 6, H(1) = 2
        # residual = 2*2*(-1) - 1*1 + 1*2*6 = 7
        assert math.isclose(float(el_residual(HarmonicProfile(1.0, 1.0), 1.0)), 7.0,
                            rel_tol=1e-13)

    def test_sampled_profile_interior_only(self, canonical_pair):
        # a sampled profile has no derivative; the discrete solutions
        # answer to the discrete residual instead
        sol = minimize_reduced_energy(canonical_pair, make_radial_grid(canonical_pair.domain, 32))
        with pytest.raises(TypeError, match="closed-form profile, not SampledProfile"):
            el_residual(sol.profile, 1.0)


class TestWeightedHarmonicResidual:
    def test_vanishes_on_the_exponential_family(self, rng):
        ts = np.linspace(0.8, 4.0, 100)
        for _ in range(20):
            p = ExponentialProfile(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5))
            assert np.max(np.abs(weighted_harmonic_residual(p, ts))) < 1e-9

    def test_equals_scaled_el_residual(self, rng):
        p = ExponentialProfile(1.3, 0.7)
        ts = np.linspace(0.9, 3.0, 40)
        lhs = weighted_harmonic_residual(p, ts)
        rhs = el_residual(p, ts) / (ts**2 * p.eval(ts))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_linear_profile_is_not_weighted_harmonic(self):
        # H = t is Euclidean harmonic yet fails the weighted equation
        val = float(weighted_harmonic_residual(HarmonicProfile(1.0, 0.0), 1.0))
        assert math.isclose(val, 1.0, rel_tol=1e-12)


class TestDiscreteMinimization:
    def test_reaches_analytic_minimum_from_above(self, canonical_pair):
        target = analytic_min_weighted_energy(canonical_pair)
        sol = minimize_reduced_energy(canonical_pair, make_radial_grid(canonical_pair.domain, 1000))
        assert sol.converged
        assert sol.energy >= target - 1e-9 * target
        assert (sol.energy - target) / target < 1e-5
        assert sol.sup_error_vs_closed_form < 1e-5

    def test_error_drops_quadratically_with_refinement(self, canonical_pair):
        sups = []
        for n in (250, 500, 1000):
            sol = minimize_reduced_energy(canonical_pair,
                                          make_radial_grid(canonical_pair.domain, n))
            sups.append(sol.sup_error_vs_closed_form)
        for coarse, fine in zip(sups, sups[1:]):
            assert 3.2 < coarse / fine < 4.8

    def test_reciprocal_grid_reproduces_closed_form_exactly(self, canonical_pair):
        # K = c1 + c2/t is affine in 1/t, hence representable on this grid
        grid = make_radial_grid(canonical_pair.domain, 1000, "uniform-in-1/t")
        sol = minimize_reduced_energy(canonical_pair, grid)
        assert sol.sup_error_vs_closed_form < 1e-12

    @pytest.mark.parametrize("spacing", ["uniform-in-t", "uniform-in-1/t"])
    @pytest.mark.parametrize("n, bound", [(2, 1e-14), (1000, 1e-11), (100_000, 1e-8)])
    def test_matches_the_exact_discrete_minimizer(self, spacing, n, bound):
        # The minimizer of sum a_i (K_{i+1} - K_i)^2 puts K in proportion to
        # the running sum of 1/a_i; summed in long double it is exact to
        # float64 rounding.  Over 128 random pairs (seeds 101 and 7) the
        # worst log error of the solve was 3.4e-9 at n = 1e5 and 2.3e-12
        # at n = 1e3, on either spacing.  With K anchored at log r* the one
        # interior node of n = 2 lost the inner end's term, which the outer
        # end's overwrote.
        rng = np.random.default_rng(101)
        for _ in range(6):
            pair = random_annulus_pair(rng)
            grid = make_radial_grid(pair.domain, n, spacing)
            sol = minimize_reduced_energy(pair, grid)
            c = np.cumsum(1.0 / _stiffness(grid).astype(np.longdouble))
            k0, kn = math.log(pair.r_star), math.log(pair.R_star)
            exact = k0 + (kn - k0) * np.concatenate([[0.0], c / c[-1]])
            err = np.abs(np.log(sol.profile.values.astype(np.longdouble)) - exact)
            assert float(np.max(err)) < bound

    def test_boundary_values_exact(self, canonical_pair):
        sol = minimize_reduced_energy(canonical_pair, make_radial_grid(canonical_pair.domain, 64))
        assert sol.profile.values[0] == canonical_pair.r_star
        assert sol.profile.values[-1] == canonical_pair.R_star

    def test_degenerate_target_is_constant(self):
        pair = AnnulusPair.from_radii(1.0, 2.0, 1.5, 1.5)
        sol = minimize_reduced_energy(pair, make_radial_grid(pair.domain, 16))
        assert np.all(sol.profile.values == 1.5)
        assert math.isclose(sol.energy, 8.0 * math.pi, rel_tol=1e-15)
        assert (sol.iterations, sol.converged) == (0, True)

    @pytest.mark.parametrize("solve", [minimize_reduced_energy, gradient_descent_minimize])
    @pytest.mark.parametrize("radii", [(1e160, 2e160, 1.0, 1.0), (1e-170, 2e-170, 3.0, 3.0)])
    def test_degenerate_target_reads_no_stiffness(self, solve, radii):
        # t0 t1 overflows on the first shell and underflows to 0 on the second,
        # so the stiffness raises there; the constant profile does not need it
        pair = AnnulusPair.from_radii(*radii)
        grid = make_radial_grid(pair.domain, 4)
        with pytest.raises(EvaluationError):
            _stiffness(grid)
        sol = solve(pair, grid)
        assert np.all(sol.profile.values == radii[2])
        assert sol.energy == 8.0 * math.pi * pair.domain.width
        assert (sol.iterations, sol.converged) == (0, True)

    def test_grid_and_pair_must_share_the_domain(self, canonical_pair):
        other = make_radial_grid(AnnulusPair.from_radii(1.0, 3.0, 1.0, 2.0).domain, 16)
        with pytest.raises(DomainError, match=r"grid on Annulus\(inner=1\.0, outer=3\.0\), "
                                              r"not on Annulus\(inner=1\.0, outer=2\.0\)"):
            minimize_reduced_energy(canonical_pair, other)


class TestDirectSolveInPlace:
    """The direct route solves the negated system into the interior of
    ``K``: the stiffness is its off-diagonals, and no copy of the solution
    is made."""

    def test_peak_allocation_of_a_cold_solve_at_n_1e5(self, canonical_pair):
        # a fresh grid's first solve in a fresh thread grows the scratch: K,
        # and the stiffness, the diagonal, the right-hand side and the
        # reduction's 8 n / 3 floats in the scratch.  Measured 6.69 n floats,
        # against 7.01 n with the grid's stiffness formed and kept, whose
        # tmp the thread's scratch grew from first
        n = 100_000
        grid = make_radial_grid(canonical_pair.domain, n)
        tracemalloc.start()
        try:
            _in_fresh_thread(lambda: minimize_reduced_energy(canonical_pair, grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.8 * 8 * n

    def test_peak_allocation_of_a_warm_solve_on_a_fresh_grid_at_n_1e5(self, canonical_pair):
        # with the thread's scratch grown, a new grid and its solve allocate
        # the nodes and K: measured 2.02 n floats, against 3.02 n with the
        # grid's stiffness formed and kept
        n = 100_000

        def solve_on_a_new_grid():
            minimize_reduced_energy(canonical_pair, make_radial_grid(canonical_pair.domain, n))
            tracemalloc.start()
            try:
                minimize_reduced_energy(canonical_pair, make_radial_grid(canonical_pair.domain, n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _in_fresh_thread(solve_on_a_new_grid) <= 2.2 * 8 * n

    def test_peak_allocation_of_a_warm_solve_at_n_1e5(self, canonical_pair):
        # the thread's second solve takes every temporary from its scratch
        # and allocates K alone: measured 1.01 n floats
        n = 100_000
        grid = make_radial_grid(canonical_pair.domain, n)

        def second_solve():
            minimize_reduced_energy(canonical_pair, grid)
            tracemalloc.start()
            try:
                minimize_reduced_energy(canonical_pair, grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _in_fresh_thread(second_solve) <= 1.1 * 8 * n

    @pytest.mark.parametrize("solve", [
        minimize_reduced_energy, gradient_descent_minimize,
        lambda pair, grid: discrete_reduced_energy(np.zeros(grid.nodes.size), grid),
        lambda pair, grid: reduced_energy_gradient(np.zeros(grid.nodes.size), grid),
    ], ids=["minimize_reduced_energy", "gradient_descent_minimize", "discrete_reduced_energy",
            "reduced_energy_gradient"])
    @pytest.mark.parametrize("radii", [(1.0, 1e300, 1.0, 2.0), (5e-324, 1e-300, 1e-300, 1.0)])
    def test_a_bad_stiffness_raises_the_grids_error(self, solve, radii):
        # the direct route forms its stiffness in the scratch and every other
        # reader in a fresh array; each raises the grid's error, word for word
        pair = AnnulusPair.from_radii(*radii)
        with pytest.raises(EvaluationError) as expect:
            _stiffness(make_radial_grid(pair.domain, 10))
        with pytest.raises(EvaluationError) as got:
            solve(pair, make_radial_grid(pair.domain, 10))
        assert str(got.value) == str(expect.value)

    @pytest.mark.parametrize("n, n_pairs, bound", [(1000, 200, 1e-9), (100_000, 40, 5e-7)])
    def test_flux_is_constant(self, n, n_pairs, bound):
        # the discrete minimizer's interval flux a_i (K_{i+1} - K_i) is one
        # constant; its spread (max - min) / |mean| measured at most 3.1e-10 at
        # n = 1000 and 1.04e-7 at n = 100 000
        rng = np.random.default_rng(7)
        for _ in range(n_pairs):
            pair = random_annulus_pair(rng)
            grid = make_radial_grid(pair.domain, n)
            k, _, _, _ = variational._direct_k(grid, _log_width(pair.target))
            flux = _stiffness(grid) * np.diff(k)
            assert flux.max() - flux.min() <= bound * abs(flux.mean()), pair

    def test_bits_of_the_positive_definite_system(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            pair = random_annulus_pair(rng)
            grid = make_radial_grid(pair.domain, 1000)
            a, span = _stiffness(grid), _log_width(pair.target)
            # the system itself, with its solution copied between the ends
            rhs = np.zeros(a.size - 1)
            rhs[-1] = a[-1] * span
            off = np.negative(a)
            y = _kernels.thomas_solve(off[:-1], a[:-1] + a[1:], off[1:], rhs)
            expect = np.concatenate([[0.0], y, [span]])
            k, _, iterations, converged = variational._direct_k(grid, span)
            assert k.tobytes() == expect.tobytes()
            assert (iterations, converged) == (1, True)


def _in_fresh_thread(func):
    """``func()`` run in a new thread, which starts with no scratch."""
    result = []
    thread = threading.Thread(target=lambda: result.append(func()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and result, "the thread hung or raised"
    return result[0]


class TestPerThreadScratch:
    """The direct route's temporaries are views of one array per thread
    (``geometry._scratch``); nothing it returns lives there."""

    @staticmethod
    def _solve(pair, n=100_000):
        grid = make_radial_grid(pair.domain, n)
        sol = minimize_reduced_energy(pair, grid)
        return _stiffness(grid).tobytes(), sol.profile.values.tobytes(), sol.energy.hex()

    def test_concurrent_solves_give_the_bits_of_sequential_ones(self):
        # more threads than the two cores of the machine measured on, and a
        # short switch interval, so the solves interleave
        rng = np.random.default_rng(49)
        batches = [[random_annulus_pair(rng) for _ in range(3)] for _ in range(3)]
        expect = [[self._solve(pair) for pair in batch] for batch in batches]
        start = threading.Barrier(len(batches))
        got = [None] * len(batches)

        def run(i):
            start.wait()
            got[i] = [self._solve(pair) for pair in batches[i]]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expect

    def test_results_share_no_memory_with_the_scratch(self, canonical_pair):
        for n in (2, 1000, 100_000):
            grid = make_radial_grid(canonical_pair.domain, n)
            sol = minimize_reduced_energy(canonical_pair, grid)
            scratch = geometry._scratch_local.buf
            for arr in (sol.profile.values, grid.nodes):
                assert not np.shares_memory(arr, scratch), n

    def test_a_solve_above_the_cap_keeps_at_most_the_cap(self, canonical_pair):
        # 200 000 intervals need 1 133 306 floats of scratch, more than 2^20
        n = 200_000
        expect = self._solve(canonical_pair, n)

        def solve_and_measure():
            got = self._solve(canonical_pair, n)
            return got, geometry._scratch_local.buf.size

        got, kept = _in_fresh_thread(solve_and_measure)
        assert got == expect
        assert kept <= geometry._SCRATCH_CAP


class TestLazySupError:
    """``sup_error_vs_closed_form`` is computed on first read, not by the
    solve."""

    def test_thin_shell_solves_and_reads_the_sup_error(self):
        # unanchored, the closed form a exp(b / t) would need a = exp(6.9e9);
        # anchored at t = r it is exp(log(2) R (t - r) / ((R - r) t)), within
        # 1.4e-16 relative of 50-digit mpmath on these nodes
        pair = AnnulusPair.from_radii(1.0, 1.0 + 1e-10, 1.0, 2.0)
        grid = make_radial_grid(pair.domain, 1000)
        sol = minimize_reduced_energy(pair, grid)
        target = analytic_min_weighted_energy(pair)
        assert sol.converged
        assert abs(sol.energy - target) <= 1e-12 * target
        # t - r is exact on these nodes
        closed = [math.exp(math.log(2.0) * pair.R * (t - pair.r) / ((pair.R - pair.r) * t))
                  for t in grid.nodes]
        assert np.max(np.abs(exp_profile_from_boundary(pair).eval(grid.nodes) - closed)) <= 1e-15
        # measured 1.8e-13
        assert sol.sup_error_vs_closed_form <= 1e-12

    @pytest.mark.parametrize("solve", [minimize_reduced_energy, gradient_descent_minimize])
    def test_lazy_value_is_the_closed_form_sup_error(self, solve, canonical_pair):
        rng = np.random.default_rng(21)
        for pair in [canonical_pair] + [random_annulus_pair(rng) for _ in range(20)]:
            grid = make_radial_grid(pair.domain, 1000)
            sol = solve(pair, grid)
            assert "sup_error_vs_closed_form" not in vars(sol)
            expected = _closed_form_sup_error(pair, grid, sol.profile.values)
            assert sol.sup_error_vs_closed_form.hex() == expected.hex()
            assert vars(sol)["sup_error_vs_closed_form"] is sol.sup_error_vs_closed_form

    @pytest.mark.parametrize("solve", [minimize_reduced_energy, gradient_descent_minimize])
    def test_constant_solution_reads_exactly_zero(self, solve):
        pair = AnnulusPair.from_radii(1.0, 2.0, 1.5, 1.5)
        sol = solve(pair, make_radial_grid(pair.domain, 16))
        assert sol.sup_error_vs_closed_form.hex() == (0.0).hex()


class TestIntervalCoefficients:
    @pytest.mark.parametrize("spacing", ["uniform-in-t", "uniform-in-1/t"])
    def test_bits_of_the_plain_formula(self, spacing, canonical_pair):
        rng = np.random.default_rng(5)
        pairs = [canonical_pair, AnnulusPair.from_radii(1e-150, 3e-150, 1.0, 2.0),
                 AnnulusPair.from_radii(1e153, 1e153 * (1 + 1e-9), 1.0, 2.0)]
        pairs += [random_annulus_pair(rng) for _ in range(10)]
        for pair in pairs:
            for n in (2, 1000, 100_000):
                grid = make_radial_grid(pair.domain, n, spacing)
                t = grid.nodes
                if spacing == "uniform-in-t":
                    plain = (t[:-1] ** 2 + t[:-1] * t[1:] + t[1:] ** 2) / 3.0 / np.diff(t)
                else:
                    plain = t[:-1] * t[1:] / np.diff(t)
                assert _stiffness(grid).tobytes() == plain.tobytes(), (pair, n)


class TestEnergyGradient:
    def test_zero_at_the_discrete_minimizer(self, canonical_pair):
        grid = make_radial_grid(canonical_pair.domain, 200)
        sol = minimize_reduced_energy(canonical_pair, grid)
        g = reduced_energy_gradient(np.log(sol.profile.values), grid)
        assert np.max(np.abs(g)) < 1e-10

    def test_zero_for_constant_log_profile(self, canonical_pair):
        grid = make_radial_grid(canonical_pair.domain, 50)
        g = reduced_energy_gradient(np.full(51, 0.7), grid)
        assert np.max(np.abs(g)) == 0.0

    def test_matches_central_differences(self, canonical_pair, rng):
        grid = make_radial_grid(canonical_pair.domain, 50)
        k = np.log(exp_profile_from_boundary(canonical_pair, "increasing").eval(grid.nodes))
        k[1:-1] += rng.uniform(-0.3, 0.3, size=49)
        g = reduced_energy_gradient(k, grid)
        step = 1e-6
        fd = np.empty_like(g)
        for j in range(1, 50):
            kp = k.copy()
            kp[j] += step
            km = k.copy()
            km[j] -= step
            fd[j - 1] = (discrete_reduced_energy(kp, grid) - discrete_reduced_energy(km, grid)) / (2 * step)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-6


class TestStackedEnergies:
    """``_energy_from_coefficients`` on a stack of states gives each state's
    own energy, bit for bit, as the gradient row of the verify suite reads."""

    @pytest.mark.parametrize("n", [2, 7, 50, 1000])
    def test_rows_keep_the_bits_of_their_own_calls(self, rng, n):
        grid = make_radial_grid(AnnulusPair.from_radii(1.0, 2.0, 1.0, 3.0).domain, n)
        for scale in (0.01, 0.5, 300.0):
            ks = rng.normal(0.0, scale, size=(2, 9, n + 1))
            stacked = variational._energy_from_coefficients(_stiffness(grid), ks, grid)
            assert stacked.shape == (2, 9)
            single = [[discrete_reduced_energy(k, grid) for k in plane] for plane in ks]
            assert stacked.tobytes() == np.array(single).tobytes()

    def test_one_state_is_a_float_that_overflows_without_a_warning(self):
        grid = make_radial_grid(AnnulusPair.from_radii(1.0, 2.0, 1.0, 3.0).domain, 4)
        energy = discrete_reduced_energy(np.array([0.0, 1e153, 0.0, 1e153, 0.0]), grid)
        assert type(energy) is float and energy == math.inf


def _assert_converged_on_the_true_gradient(gd, grid, tol=1e-7):
    """``converged`` promises a gradient max-norm of at most ``tol`` at
    the returned profile, recomputed here from its values."""
    assert gd.converged
    k = np.log(gd.profile.values)
    assert np.max(np.abs(reduced_energy_gradient(k, grid))) <= tol


class TestGradientDescent:
    def test_agrees_with_direct_solve(self, canonical_pair):
        grid = make_radial_grid(canonical_pair.domain, 200)
        direct = minimize_reduced_energy(canonical_pair, grid)
        gd = gradient_descent_minimize(canonical_pair, grid)
        _assert_converged_on_the_true_gradient(gd, grid)
        assert abs(gd.energy - direct.energy) / direct.energy < 1e-9

    def test_agreement_over_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pair = random_annulus_pair(rng)
            grid = make_radial_grid(pair.domain, 200)
            direct = minimize_reduced_energy(pair, grid)
            gd = gradient_descent_minimize(pair, grid)
            _assert_converged_on_the_true_gradient(gd, grid)
            assert abs(gd.energy - direct.energy) / direct.energy < 1e-9

    def test_benchmark_traffic_converges_in_few_iterations(self):
        # The oracle-pairs workload: unrestricted pairs at n = 1000, 999
        # unknowns.  Over its 1024 pool pairs of seeds 101 and 7,
        # conjugate gradient in the hierarchical basis took a median of 10
        # and at most 16 iterations, and at most 14 on these 8; the bound
        # leaves 25% above the pool's worst.  Preconditioned by the
        # Hessian diagonal it took up to 999 on the pool, and plain
        # conjugate gradient up to 3973.
        rng = np.random.default_rng(8)
        for _ in range(8):
            pair = random_annulus_pair(rng)
            grid = make_radial_grid(pair.domain, 1000)
            direct = minimize_reduced_energy(pair, grid)
            gd = gradient_descent_minimize(pair, grid)
            _assert_converged_on_the_true_gradient(gd, grid)
            assert gd.iterations <= 20
            assert abs(gd.energy - direct.energy) / direct.energy < 1e-9

    def test_zero_iterations_returns_initial_guess(self, canonical_pair, monkeypatch):
        monkeypatch.setattr(variational, "_CG_MAX_ITER", 0)
        grid = make_radial_grid(canonical_pair.domain, 32)
        gd = gradient_descent_minimize(canonical_pair, grid)
        assert not gd.converged
        assert gd.iterations == 0
        # affine log interpolation between the boundary values
        k = np.log(gd.profile.values)
        assert np.allclose(np.diff(k, 2), 0.0, atol=1e-12)

    def test_degenerate_target_converges_immediately(self):
        pair = AnnulusPair.from_radii(1.0, 2.0, 2.0, 2.0)
        gd = gradient_descent_minimize(pair, make_radial_grid(pair.domain, 32))
        assert gd.converged and gd.iterations == 0


class TestShooting:
    def test_recovers_the_closed_form(self, canonical_pair):
        result = shoot_el(canonical_pair)
        assert result.converged
        # initial slope of H1 at r=1 is 2 for this pair
        assert math.isclose(result.initial_slope, 2.0, abs_tol=1e-6)
        assert math.isclose(result.profile.eval(1.5), math.exp(2.0 / 3.0), rel_tol=1e-6)
        assert abs(result.boundary_miss) < 1e-9

    def test_slope_matches_closed_form_slope(self, canonical_pair):
        h1 = exp_profile_from_boundary(canonical_pair, "increasing")
        result = shoot_el(canonical_pair)
        assert math.isclose(result.initial_slope, h1.derivative(1.0), abs_tol=1e-6)

    def test_degenerate_target_needs_zero_slope(self):
        pair = AnnulusPair.from_radii(1.0, 2.0, 1.5, 1.5)
        result = shoot_el(pair)
        assert result.converged and result.sweeps == 1
        assert result.initial_slope == 0.0
        assert np.allclose(result.profile.values, 1.5, rtol=1e-12)

    def test_wide_domain_converges_to_the_closed_form(self):
        pair = AnnulusPair.from_radii(0.1, 2.0, 1.0, 1.05)
        result = shoot_el(pair)
        assert result.converged
        closed = exp_profile_from_boundary(pair, "increasing")
        sup = np.max(np.abs(result.profile.values - closed.eval(result.profile.grid.nodes)))
        assert sup < 1e-5 * pair.R_star

    def test_canonical_pair_takes_few_sweeps(self, canonical_pair):
        # the closed-form slope, then one exact slope correction
        result = shoot_el(canonical_pair)
        assert result.converged
        assert result.sweeps == 2
        assert abs(result.initial_slope - 2.0) <= 1e-9

    @pytest.mark.parametrize("seed", [101, 7])
    def test_converges_on_every_generator_pool_pair(self, seed):
        # the 512-pair pools the oracle-pairs benchmark draws, unrestricted
        rng = np.random.default_rng(seed)
        for _ in range(512):
            pair = random_annulus_pair(rng)
            result = shoot_el(pair)
            assert result.converged and result.sweeps == 2
            closed = exp_profile_from_boundary(pair, "increasing")
            sup = np.max(np.abs(result.profile.values - closed.eval(result.profile.grid.nodes)))
            assert sup < 1e-5 * max(pair.r_star, pair.R_star)

    @pytest.mark.parametrize("bad", [math.inf, 0.0])
    def test_sweep_off_the_float_range_is_an_evaluation_error(self, monkeypatch, canonical_pair, bad):
        # a sweep holding inf or 0, as RK4 gives when H leaves the float
        # range, names the radii instead of returning a profile
        rk4_shoot = _kernels.rk4_shoot

        def sweep_with_a_bad_value(*args):
            values = rk4_shoot(*args)
            values[values.size // 2] = bad
            return values

        monkeypatch.setattr(_kernels, "rk4_shoot", sweep_with_a_bad_value)
        with pytest.raises(EvaluationError, match=r"r = 1\.0, R = 2\.0, .*not positive and finite"):
            shoot_el(canonical_pair)

    # radii -> the reason the error gives
    _SHOOTING_ERRORS = {
        (5e-324, 1.0, 0.5, 1.0): "needs more than 1000000 RK4 steps",
        (1e-200, 1e-100, 1e-200, 1.0): "needs more than 1000000 RK4 steps",
        # the step (R - r) / n underflows to zero and -2 / t overflows
        (5e-324, 1e-323, 0.5, 1.0): "a sweep is not positive and finite",
        # R_star / r_star = 1e600 overflows the sweep of H / r_star
        (1.0, 2.0, 1e-300, 1e300): "a sweep is not positive and finite",
        # the unit sweep is finite, but r_star times it overflows
        (1.0, 2.0, 2.0, 1.7976931348623157e308): "a sweep is not positive and finite",
    }

    @pytest.mark.parametrize("radii", list(_SHOOTING_ERRORS))
    def test_underflowing_t_times_h_is_an_evaluation_error(self, radii):
        head = "r = {!r}, R = {!r}, r_star = {!r}, R_star = {!r}: ".format(*radii)
        match = re.escape(head) + ".*" + re.escape(self._SHOOTING_ERRORS[radii])
        with pytest.raises(EvaluationError, match=match):
            shoot_el(AnnulusPair.from_radii(*radii))

    def test_numpy_scalar_radius_out_of_range_is_an_evaluation_error(self):
        # R_star / r_star overflows; a numpy-scalar R_star made that quotient
        # warn (an error under this suite's filter) before the named error
        pair = AnnulusPair.from_radii(1.0, 2.0, 0.5, np.float64(1.7976931348623157e308))
        with pytest.raises(EvaluationError, match=r"R_star = 1\.7976931348623157e\+308"):
            shoot_el(pair)
        # the closed form is anchored at t = r, 0.5 exp(ell 2 (t - 1) / t) with
        # ell = log(R_star / 0.5), and reaches R_star though exp(ell) overflows
        h = exp_profile_from_boundary(pair)
        ell = math.log(1.7976931348623157e308) - math.log(0.5)
        assert h.a == 0.5 and h.t0 == 1.0
        assert math.isclose(h.b, -2.0 * ell, rel_tol=1e-15)
        assert math.isclose(h.eval(2.0), 1.7976931348623157e308, rel_tol=1e-13)

    @pytest.mark.parametrize("radii", [
        # H'(r) = 9.5e-314 is subnormal, H'(r) / H(r) is not
        (4.014992031433428e+265, 6.0224880471501416e+265, 8.225963145319816e-51,
         2.3868370694219366e+17),
        # H'(r) underflows to 0
        (6.5e255, 6.6e255, 2e-284, 7e-34),
    ])
    def test_subnormal_initial_slope_converges(self, radii):
        # the sweep runs on H / r_star, whose log slope stays normal
        r, R, r_star, R_star = radii
        result = shoot_el(AnnulusPair.from_radii(*radii))
        assert result.converged and result.sweeps == 2
        # the closed form in logs: log r_star + log(R_star / r_star) R (t - r) / ((R - r) t)
        t = result.profile.grid.nodes
        log_closed = math.log(r_star) + (math.log(R_star) - math.log(r_star)) * (R / (R - r)) * (t - r) / t
        assert np.max(np.abs(np.log(result.profile.values) - log_closed)) <= 1e-10

    def test_domain_too_thin_for_the_grid_names_the_radii(self):
        # a domain a few ulps wide has no room for 2001 increasing nodes
        radii = (2.400252145973843e-195, 2.4002521459738432e-195, 8.668147427852216e-147,
                 3.0207058007326167e+150)
        pair = AnnulusPair.from_radii(*radii)
        match = re.escape(f"2001 nodes on the annulus [{radii[0]!r}, {radii[1]!r}]")
        with pytest.raises(DomainError, match=match):
            make_radial_grid(pair.domain, 2000)
        with pytest.raises(DomainError, match=match):
            shoot_el(pair)

    def test_very_wide_domain_stays_near_the_closed_form(self):
        # R / r = 1000 takes 19 980 steps of at most r / 20
        pair = AnnulusPair.from_radii(0.1, 100.0, 0.1, 10.0)
        result = shoot_el(pair)
        assert result.converged and result.profile.grid.nodes.size == 19_981
        closed = exp_profile_from_boundary(pair, "increasing")
        sup = np.max(np.abs(result.profile.values - closed.eval(result.profile.grid.nodes)))
        assert sup < 1e-5 * pair.R_star

    @pytest.mark.parametrize("radii", [(1.0, 2.0, 1e6, 2.718e6), (1.0, 2.0, 1e9, 3e9),
                                       (1.0, 2.0, 1e-6, 2.718e-6)])
    def test_convergence_is_scale_invariant(self, radii):
        # H(R) rounds to about 1e-16 R_star, so the miss tolerance scales with R_star
        pair = AnnulusPair.from_radii(*radii)
        result = shoot_el(pair)
        assert result.converged and abs(result.boundary_miss) <= 1e-10 * pair.R_star
        closed = exp_profile_from_boundary(pair, "increasing")
        sup = np.max(np.abs(result.profile.values - closed.eval(result.profile.grid.nodes)))
        assert sup < 1e-12 * pair.R_star

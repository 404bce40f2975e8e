import math

import numpy as np
import pytest

from annuli import (
    AnnulusPair,
    ConfigError,
    VerifyConfig,
    check_harmonic_bvp,
    check_inversion_invariance,
    check_residuals,
    check_sphere_inequality,
    check_minimal_energy,
    run_suite,
)
from annuli.verify import random_admissible_pair, random_annulus_pair


class TestGenerators:
    def test_random_pair_respects_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = random_annulus_pair(rng, low=0.2, high=5.0)
            assert 0.2 <= p.r < p.R <= 5.0
            assert 0.2 <= p.r_star < p.R_star <= 5.0

    def test_domain_ratio_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_annulus_pair(rng, max_domain_ratio=3.0)
            assert p.R / p.r <= 3.0

    def test_admissible_generator_only_yields_admissible(self):
        from annuli import nitsche_condition

        rng = np.random.default_rng(1)
        for _ in range(30):
            assert nitsche_condition(random_admissible_pair(rng)).admissible


@pytest.fixture(scope="module")
def default_report():
    """One default ``run_suite()`` shared by the tests that only read it."""
    return run_suite()


class TestSuite:
    def test_default_suite_passes(self, default_report):
        failures = [r.name for r in default_report.results if not r.passed]
        assert default_report.passed, failures

    def test_reports_are_deterministic(self):
        r1 = run_suite(VerifyConfig())
        r2 = run_suite(VerifyConfig())
        assert r1.rows() == r2.rows()
        # wall time varies run to run and is deliberately unserialized
        assert "wall_time" not in r1.rows()[0]

    def test_coverage_names_every_claim_family(self, default_report):
        names = set(default_report.coverage)
        for expected in (
            "minimal-energy-analytic-vs-numeric",
            "competitor-energies-above-minimum",
            "inversion-invariance-of-weighted-energy",
            "shell-energy-sharp-at-mobius",
            "shell-energy-strict-for-non-mobius",
            "nitsche-threshold-matches-monotonicity",
            "harmonic-energy-closed-form-vs-quadrature",
            "lower-bound-below-harmonic-energy",
            "euler-lagrange-residual-vanishes-on-exponential-family",
            "weighted-harmonic-residual-vanishes-on-exponential-family",
            "discrete-gradient-matches-finite-differences",
        ):
            assert expected in names

    def test_zero_tolerance_fails_honestly(self):
        report = run_suite(VerifyConfig(closed_form_tol=0.0))
        failed = {r.name for r in report.results if not r.passed}
        assert "minimal-energy-analytic-vs-numeric" in failed

    def test_different_seed_still_passes(self):
        report = run_suite(VerifyConfig(seed=7, n_pairs=200, n_competitors=20,
                                        n_inversion_maps=12))
        assert report.passed, [r.name for r in report.results if not r.passed]


class TestConfig:
    def test_rejects_negative_values(self):
        with pytest.raises(ConfigError):
            VerifyConfig(n_pairs=-1)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigError):
            VerifyConfig(grid_n=2)

    def test_rejects_non_numeric(self):
        with pytest.raises(ConfigError):
            VerifyConfig(seed="forty-two")


class TestIndividualChecks:
    def test_minimal_energy_group(self, canonical_pair):
        results = check_minimal_energy(VerifyConfig(pair=canonical_pair, n_competitors=10))
        assert all(r.passed for r in results)

    def test_inversion_invariance(self, canonical_pair):
        results = check_inversion_invariance(VerifyConfig(pair=canonical_pair,
                                                          n_inversion_maps=9))
        assert all(r.passed for r in results)

    def test_sphere_inequality_group(self):
        results = check_sphere_inequality(VerifyConfig(n_transforms=5, n_perturbations=5))
        assert all(r.passed for r in results)

    def test_harmonic_bvp_group(self):
        results = check_harmonic_bvp(VerifyConfig(n_pairs=100))
        assert all(r.passed for r in results)

    def test_residual_group(self):
        results = check_residuals(VerifyConfig())
        assert all(r.passed for r in results)

    def test_inadmissible_default_is_rejected_loudly(self):
        # a pair with zero inner target radius cannot be verified
        pair = AnnulusPair.from_radii(1.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            check_minimal_energy(VerifyConfig(pair=pair))

    def test_results_carry_tolerances(self):
        for r in check_residuals(VerifyConfig()):
            assert r.tolerance >= 0.0
            assert math.isfinite(r.observed)

    def test_suite_is_the_five_checks_in_order(self):
        # run_suite adds nothing of its own: every setting reaches the
        # checks through the one config
        config = VerifyConfig(n_pairs=100, n_competitors=10, n_inversion_maps=9,
                              n_transforms=5, n_perturbations=5)
        joined = []
        for check in (check_residuals, check_minimal_energy, check_inversion_invariance,
                      check_sphere_inequality, check_harmonic_bvp):
            joined += check(config)
        assert joined == run_suite(config).results

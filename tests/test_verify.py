import math

import numpy as np
import pytest

from annuli import (
    AnnulusPair,
    ConfigError,
    DomainError,
    VerifyConfig,
    check_harmonic_bvp,
    check_inversion_invariance,
    check_residuals,
    check_sphere_inequality,
    check_minimal_energy,
    run_suite,
)
from annuli import verify
from annuli.verify import random_admissible_pair, random_annulus_pair


class TestGenerators:
    def test_random_pair_respects_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = random_annulus_pair(rng, low=0.2, high=5.0)
            assert 0.2 <= p.r < p.R <= 5.0
            assert 0.2 <= p.r_star < p.R_star <= 5.0
        # just above the least allowed bounds a draw still passes often
        p = random_annulus_pair(rng, 1.0, 1.0405)
        assert p.R / p.r >= 1.02 and p.R_star / p.r_star >= 1.02

    def test_random_pair_radii_are_python_floats(self):
        p = random_annulus_pair(np.random.default_rng(0))
        assert all(type(x) is float for x in (p.r, p.R, p.r_star, p.R_star))

    @pytest.mark.parametrize("low, high", [(1.0, 1.01), (1.0, 1.0201), (1.0, 1.04),
                                           (2.0, 2.0), (3.0, 1.0)])
    def test_bounds_without_room_raise_before_drawing(self, low, high):
        # R / r >= 1.02 cannot hold inside [1, 1.01], and below
        # high / low = 1.02^2 a draw passes too rarely for rejection to end
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"low = {low!r}, high = {high!r}"):
            random_annulus_pair(rng, low, high)
        assert rng.uniform() == np.random.default_rng(0).uniform()

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

    def test_reports_are_deterministic(self, default_report):
        again = run_suite(VerifyConfig())
        assert again.rows() == default_report.rows()
        # wall time varies run to run and is deliberately unserialized
        assert "wall_time" not in again.rows()[0]

    def test_coverage_names_every_claim_family(self, default_report):
        names = {r.name for r in default_report.results}
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

    def test_zero_tolerance_fails_honestly(self, monkeypatch):
        # run_suite joins the checks unchanged (test_suite_is_the_five_checks_in_order),
        # so the check that owns this row is enough
        monkeypatch.setattr(verify, "_CLOSED_FORM_TOL", 0.0)
        results = check_minimal_energy(VerifyConfig())
        failed = {r.name for r in results if not r.passed}
        assert "minimal-energy-analytic-vs-numeric" in failed

    def test_different_seed_still_passes(self, monkeypatch):
        for name, count in (("_N_PAIRS", 200), ("_N_COMPETITORS", 20),
                            ("_N_INVERSION_MAPS", 12)):
            monkeypatch.setattr(verify, name, count)
        report = run_suite(VerifyConfig(seed=7))
        assert report.passed, [r.name for r in report.results if not r.passed]


class TestConfig:
    def test_rejects_negative_values(self):
        with pytest.raises(ConfigError, match="'seed' must be nonnegative"):
            VerifyConfig(seed=-1)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigError):
            VerifyConfig(grid_n=2)

    def test_rejects_non_numeric(self):
        with pytest.raises(ConfigError):
            VerifyConfig(seed="forty-two")

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("sphere_order", 16.5),
                                              ("grid_n", 10.5), ("radial_order", 8.5),
                                              ("seed", True)])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ConfigError, match="integer"):
            VerifyConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        config = VerifyConfig(seed=np.int64(7), sphere_order=np.int32(10))
        assert (config.seed, config.sphere_order) == (7, 10)


class TestIndividualChecks:
    def test_minimal_energy_group(self, canonical_pair, monkeypatch):
        monkeypatch.setattr(verify, "_N_COMPETITORS", 10)
        results = check_minimal_energy(VerifyConfig(pair=canonical_pair))
        assert all(r.passed for r in results)

    def test_inversion_invariance(self, canonical_pair, monkeypatch):
        monkeypatch.setattr(verify, "_N_INVERSION_MAPS", 9)
        results = check_inversion_invariance(VerifyConfig(pair=canonical_pair))
        assert all(r.passed for r in results)

    def test_sphere_inequality_group(self, monkeypatch):
        monkeypatch.setattr(verify, "_N_TRANSFORMS", 5)
        monkeypatch.setattr(verify, "_N_PERTURBATIONS", 5)
        results = check_sphere_inequality(VerifyConfig())
        assert all(r.passed for r in results)

    def test_harmonic_bvp_group(self, monkeypatch):
        monkeypatch.setattr(verify, "_N_PAIRS", 100)
        results = check_harmonic_bvp(VerifyConfig())
        assert all(r.passed for r in results)

    def test_residual_group(self):
        results = check_residuals(VerifyConfig())
        assert all(r.passed for r in results)

    def test_inadmissible_default_is_rejected_loudly(self):
        # a pair with zero inner target radius cannot be built, so no
        # VerifyConfig can hold one
        with pytest.raises(DomainError, match="inner radius must be positive, got 0.0"):
            AnnulusPair.from_radii(1.0, 2.0, 0.0, 1.0)

    def test_results_carry_tolerances(self):
        for r in check_residuals(VerifyConfig()):
            assert r.tolerance >= 0.0
            assert math.isfinite(r.observed)

    def test_suite_is_the_five_checks_in_order(self, monkeypatch):
        # run_suite adds nothing of its own: every setting reaches the
        # checks through the one config
        for name, count in (("_N_PAIRS", 100), ("_N_COMPETITORS", 10),
                            ("_N_INVERSION_MAPS", 9), ("_N_TRANSFORMS", 5),
                            ("_N_PERTURBATIONS", 5)):
            monkeypatch.setattr(verify, name, count)
        config = VerifyConfig()
        joined = []
        for check in (check_residuals, check_minimal_energy, check_inversion_invariance,
                      check_sphere_inequality, check_harmonic_bvp):
            joined += check(config)
        assert joined == run_suite(config).results

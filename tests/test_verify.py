import math

import numpy as np
import pytest

from annuli import (
    AnnulusPair,
    ConfigError,
    DomainError,
    VerifyConfig,
    analytic_min_weighted_energy,
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

    def test_rejects_non_numeric(self):
        with pytest.raises(ConfigError):
            VerifyConfig(seed="forty-two")

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True)])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ConfigError, match="integer"):
            VerifyConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        assert VerifyConfig(seed=np.int64(7)).seed == 7


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

    def test_residual_identity_row_sees_a_scaled_residual(self, monkeypatch):
        # the identity is checked where both residuals are far from 0, so
        # a relative error of 1e-6 in one of them fails it
        plain = verify.weighted_harmonic_residual
        monkeypatch.setattr(verify, "weighted_harmonic_residual",
                            lambda profile, t: (1.0 + 1e-6) * plain(profile, t))
        row = {r.name: r for r in verify.check_residuals(VerifyConfig())}[
            "weighted-residual-equals-scaled-euler-lagrange"]
        assert not row.passed and row.observed > 1e-6

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


# draws 130, 118, 172 and 161 of random_annulus_pair(default_rng(2026)), with
# R / r = 41.45, 57.98, 64.28 and 85.38: at a fixed 1000 intervals their
# relative gap was 1.56e-5 to 4.40e-5, above the row's 1e-5
_WIDE_GENERATOR_PAIRS = [
    (0.21625293792916558, 8.963825743676043, 0.21529540267134314, 3.213922601964337),
    (0.14138028493911448, 8.197554870329004, 0.10616789906676151, 0.9844468839986515),
    (0.10750380478874433, 6.910869200330667, 0.11576382386634013, 1.025306826533758),
    (0.11218689008861876, 9.578096379656353, 0.31846056021909763, 7.199308323624769),
]


class TestDiscreteConvergence:
    @pytest.mark.parametrize("radii", _WIDE_GENERATOR_PAIRS)
    def test_row_passes_on_wide_generator_pairs(self, radii):
        config = VerifyConfig(pair=AnnulusPair.from_radii(*radii), seed=1)
        row = {r.name: r for r in check_minimal_energy(config)}[
            "discrete-minimum-converges-from-above"]
        assert row.passed and 0.0 <= row.observed <= 2.5e-6

    def test_row_passes_on_every_generator_pair(self):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            pair = random_annulus_pair(rng)
            row = verify._discrete_convergence(pair, analytic_min_weighted_energy(pair))
            assert row.passed, (pair, row.observed)

    def test_default_pair_keeps_1000_intervals(self, monkeypatch):
        sizes = []
        solve = verify.minimize_reduced_energy

        def recording(pair, grid):
            sizes.append(grid.nodes.size - 1)
            return solve(pair, grid)

        monkeypatch.setattr(verify, "minimize_reduced_energy", recording)
        check_minimal_energy(VerifyConfig())
        assert sizes == [250, 500, 1000]

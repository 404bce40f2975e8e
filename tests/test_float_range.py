"""Float-range contract: for radii anywhere in the float range, the
direct solve, shooting and the closed forms give a finite answer or
raise ``DomainError`` / ``EvaluationError``, never a warning or another
exception.  The three closed-form energies return ``inf`` where the value
itself lies beyond the float range, and only there."""
import math
import sys
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annuli import (
    AnnulusPair,
    DomainError,
    EvaluationError,
    GeneralizedRadialMap,
    analytic_dirichlet_energy_radial,
    analytic_min_weighted_energy,
    dirichlet_lower_bound,
    exp_profile_from_boundary,
    harmonic_radial_bvp,
    make_radial_grid,
    minimize_reduced_energy,
    nitsche_condition,
    shoot_el,
    weighted_energy,
)
from reference import log_dirichlet_energy_radial, log_min_weighted_energy

_LOG_MAX = math.log(sys.float_info.max)


def _checked_energy(energy: float, log_energy: float) -> float:
    """``energy`` if it is finite and not negative, 0.0 where it is
    ``inf`` because the value itself lies beyond the float range, and nan,
    which fails the finiteness check, otherwise."""
    if energy == math.inf and log_energy > _LOG_MAX:
        return 0.0
    return energy if energy >= 0.0 else math.nan


_ROUTES = {
    "minimize_reduced_energy": lambda p: minimize_reduced_energy(
        p, make_radial_grid(p.domain, 1000)).energy,
    "shoot_el": lambda p: shoot_el(p).profile.values,
    "nitsche_condition": lambda p: nitsche_condition(p).margin,
    "weighted_energy": lambda p: weighted_energy(
        GeneralizedRadialMap(exp_profile_from_boundary(p)), p).value,
    "harmonic_radial_bvp": lambda p: astuple(harmonic_radial_bvp(p)),
    "analytic_dirichlet_energy_radial": lambda p: _checked_energy(
        analytic_dirichlet_energy_radial(p), log_dirichlet_energy_radial(p)),
}


@st.composite
def _shell(draw):
    """Inner radius log-uniform over 1e-300..1e300, ratio 1 + 1e-16..1e3."""
    inner = 10.0 ** draw(st.floats(-300.0, 300.0))
    return inner, inner * (1.0 + 10.0 ** draw(st.floats(-16.0, 3.0)))


class TestFloatRange:
    # Conjugate gradient is left out: its absolute gradient tolerance is
    # below the rounding of the gradient on some extreme pairs, which
    # then run the full 20 000-iteration budget.
    @settings(max_examples=500, deadline=None)
    @given(domain=_shell(), target=_shell(), wrap=st.booleans())
    def test_finite_or_named_error(self, domain, target, wrap):
        radii = domain + target
        if wrap:
            radii = tuple(np.float64(v) for v in radii)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                pair = AnnulusPair.from_radii(*radii)
            except (DomainError, EvaluationError):
                return
            for name, route in _ROUTES.items():
                try:
                    value = route(pair)
                except (DomainError, EvaluationError):
                    continue
                assert np.all(np.isfinite(value)), (name, radii)
            try:
                log_min = log_min_weighted_energy(pair)
                minimum = analytic_min_weighted_energy(pair)
                bound = dirichlet_lower_bound(pair)
            except (DomainError, EvaluationError):
                return
            assert minimum > 0.0 and (math.isfinite(minimum) or log_min > _LOG_MAX), radii
            log_bound = 2.0 * math.log(pair.r_star) + log_min
            assert bound >= 0.0 and (math.isfinite(bound) or log_bound > _LOG_MAX), radii


class TestThinShells:
    """``R / r = 1 + 1e-3 ... 1 + 1e-10``.  Unanchored, the minimizer
    ``a exp(b / t)`` needs ``a = r_star exp(log(R_star / r_star) R / (R - r))``,
    beyond the float range from ``R / r = 1.0009`` on at ``R_star / r_star = 2``;
    anchored at ``t = r`` its exponent stays within ``[0, log(R_star / r_star)]``."""

    @pytest.mark.parametrize("gap", [10.0**-e for e in range(3, 11)])
    @pytest.mark.parametrize("ratio", [2.0, 100.0])
    def test_minimizers_and_the_discrete_solve(self, gap, ratio):
        pair = AnnulusPair.from_radii(1.0, 1.0 + gap, 1.0, ratio)
        target = analytic_min_weighted_energy(pair)
        t = np.linspace(pair.r, pair.R, 101)
        # the closed form with t - r exact, within 1.5e-15 of 50-digit mpmath
        x = math.log(ratio) * pair.R * (t - pair.r) / ((pair.R - pair.r) * t)
        for orientation, closed in (("increasing", np.exp(x)), ("decreasing", ratio * np.exp(-x))):
            profile = exp_profile_from_boundary(pair, orientation)
            # measured at most 1.6e-15
            np.testing.assert_allclose(profile.eval(t), closed, rtol=4e-15, atol=0.0)
            value = weighted_energy(GeneralizedRadialMap(profile), pair, refine=False).value
            # measured at most 3.1e-16
            assert abs(value - target) <= 1e-14 * target, orientation
        sol = minimize_reduced_energy(pair, make_radial_grid(pair.domain, 1000))
        # measured at most 3.3e-13 and 3.7e-12 R_star
        assert abs(sol.energy - target) <= 1e-12 * target
        assert sol.sup_error_vs_closed_form <= 1e-11 * ratio

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from annuli import (
    AnnulusPair,
    GeneralizedRadialMap,
    analytic_dirichlet_energy_radial,
    dirichlet_energy,
    harmonic_profile_monotone,
    harmonic_radial_bvp,
    nitsche_condition,
)
from annuli import nitsche
from annuli.errors import DomainError
from annuli.nitsche import (
    NitscheVerdict,
    _admissible_rows,
    _integer_radii,
    _monotone_rows,
    _scaled_integers,
)
from annuli.verify import _random_radii, random_annulus_pair

PI = math.pi


class TestCondition:
    def test_threshold_for_unit_double_domain(self):
        # 3 r R^2 / (r^3 + 2 R^3) at (1, 2) is 12/17
        v = nitsche_condition(AnnulusPair.from_radii(1.0, 2.0, 1.0, 2.0))
        assert math.isclose(v.threshold, 12.0 / 17.0, rel_tol=1e-15)
        assert v.admissible

    def test_exact_threshold_pair_counts_as_admissible(self):
        v = nitsche_condition(AnnulusPair.from_radii(1.0, 2.0, 12.0, 17.0))
        assert v.admissible
        assert v.margin == 0.0

    def test_thin_target_is_inadmissible(self):
        v = nitsche_condition(AnnulusPair.from_radii(1.0, 2.0, 1.0, 1.01))
        assert not v.admissible
        assert v.margin < 0.0

    def test_ratio_and_margin_are_consistent(self):
        v = nitsche_condition(AnnulusPair.from_radii(1.0, 2.0, 1.0, 4.0))
        assert math.isclose(v.margin, v.threshold - v.ratio, rel_tol=1e-15)

    def test_integer_radii_decided_exactly(self):
        # ratio == threshold exactly, no floating point slack involved
        r, R = 1, 2
        thr = Fraction(3 * r * R * R, r**3 + 2 * R**3)
        pair = AnnulusPair.from_radii(1.0, 2.0, float(thr.numerator), float(thr.denominator))
        assert nitsche_condition(pair).margin == 0.0


def _rational_verdict(pair):
    """The condition in exact rationals, each field rounded once."""
    r, R = Fraction(pair.r), Fraction(pair.R)
    ratio = Fraction(pair.r_star) / Fraction(pair.R_star)
    threshold = 3 * r * R * R / (r**3 + 2 * R**3)
    return NitscheVerdict(ratio <= threshold, float(ratio), float(threshold),
                          float(threshold - ratio))


def _bits(v):
    return v.admissible, v.ratio.hex(), v.threshold.hex(), v.margin.hex()


class TestIntegerScaledCondition:
    def test_generator_pairs_match_the_rational_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            pair = random_annulus_pair(rng)
            assert _bits(nitsche_condition(pair)) == _bits(_rational_verdict(pair)), pair

    def test_extreme_radii_match_the_rational_formula(self):
        # inner radii log-uniform over 1e-300..1e300, ratios 1 + 1e-16..1e3
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(2000):
            radii = []
            for _ in range(2):
                inner = 10.0 ** float(rng.uniform(-300.0, 300.0))
                radii += [inner, inner * (1.0 + 10.0 ** float(rng.uniform(-16.0, 3.0)))]
            try:
                pair = AnnulusPair.from_radii(*radii)
            except DomainError:
                continue
            checked += 1
            assert _bits(nitsche_condition(pair)) == _bits(_rational_verdict(pair)), pair
        assert checked > 1500


def _rational_admissible(radii):
    r, R, rs, Rs = map(Fraction, radii)
    return rs / Rs <= 3 * r * R * R / (r**3 + 2 * R**3)


def _rational_monotone(radii):
    """``H' >= 0`` at ``t = r`` and ``t = R``, in rationals on the floats."""
    r, R, rs, Rs = map(Fraction, radii)
    den = r**3 - R**3
    a = (r * r * rs - R * R * Rs) / den
    b = r * r * R * R * (r * Rs - R * rs) / den
    return all(a - 2 * b / t**3 >= 0 for t in (r, R))


# the pair on the threshold and its one-ulp neighbours in r* and in R*
_THRESHOLD_ROWS = [(1.0, 2.0, rs, Rs) for rs, Rs in (
    (12.0, 17.0), (math.nextafter(12.0, 0.0), 17.0), (math.nextafter(12.0, math.inf), 17.0),
    (12.0, math.nextafter(17.0, 0.0)), (12.0, math.nextafter(17.0, math.inf)))]
# radii whose monomials leave the float range or underflow
_EXTREME_ROWS = [(5e-324, 1e-300, 1.0, 2.0), (1.0, 1.0 + 2.0**-52, 1.0, 1.7976931348623157e308)]


class TestFilteredPredicates:
    """The float filter decides a row only where its error bound settles the
    sign, so both batch predicates equal the exact integer decisions."""

    @pytest.fixture(scope="class")
    def rows(self):
        generator = _random_radii(np.random.default_rng(21), 2000)
        wide = _random_radii(np.random.default_rng(22), 200, 1e-300, 1e300)
        return {"generator": generator, "threshold": _THRESHOLD_ROWS, "wide": wide,
                "extreme": _EXTREME_ROWS}

    @pytest.mark.parametrize("predicate, exact_name, rational", [
        (_admissible_rows, "_exact_admissible", _rational_admissible),
        (_monotone_rows, "_exact_monotone", _rational_monotone),
    ])
    def test_batch_matches_the_exact_decisions(self, rows, monkeypatch, predicate, exact_name,
                                               rational):
        exact = getattr(nitsche, exact_name)
        sent = []
        monkeypatch.setattr(nitsche, exact_name, lambda *x: sent.append(x) or exact(*x))
        every = [x for group in rows.values() for x in group]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = predicate(np.array(every)).tolist()
        scaled = {x: _scaled_integers(*x)[0] for x in every}
        expect = [exact(*scaled[x]) for x in every]
        assert verdicts == expect
        assert expect == [rational(x) for x in every]
        assert 0 < sum(verdicts) < len(verdicts)
        # generator rows are decided in float64; the threshold rows and the
        # radii outside [2^-100, 2^100] only exactly
        assert not set(sent) & {scaled[x] for x in rows["generator"]}
        assert {scaled[x] for x in rows["threshold"] + rows["extreme"]} <= set(sent)
        assert [x for x in rows["wide"] if scaled[x] not in sent] == [
            x for x in rows["wide"] if all(2.0**-100 <= v <= 2.0**100 for v in x)]

    @pytest.mark.parametrize("radii", _THRESHOLD_ROWS + _EXTREME_ROWS)
    def test_public_functions_follow_the_rational_decisions(self, radii):
        pair = AnnulusPair.from_radii(*radii)
        assert nitsche_condition(pair).admissible == _rational_admissible(radii)
        assert harmonic_profile_monotone(pair) == _rational_monotone(radii)


class TestSharedIntegerRadii:
    def test_one_tuple_per_pair(self):
        pair = AnnulusPair.from_radii(1.0, 2.0, 0.75, 1.5)
        radii, scale = _integer_radii(pair)
        assert radii == (4, 8, 3, 6) and scale == 4
        assert _integer_radii(AnnulusPair.from_radii(1.0, 2.0, 0.75, 1.5)) is _integer_radii(pair)


class TestHarmonicBVP:
    def test_boundary_values(self, canonical_pair):
        h = harmonic_radial_bvp(canonical_pair)
        assert math.isclose(h.eval(1.0), 1.0, rel_tol=1e-13)
        assert math.isclose(h.eval(2.0), math.e, rel_tol=1e-13)

    def test_component_map_is_euclidean_harmonic(self, canonical_pair):
        # x -> H(t) eta has vector Laplacian (H'' + 2H'/t - 2H/t^2) eta
        h = harmonic_radial_bvp(canonical_pair)
        ts = np.linspace(1.05, 1.95, 60)
        lap = h.derivative(ts, 2) + 2.0 * h.derivative(ts) / ts - 2.0 * h.eval(ts) / ts**2
        assert np.max(np.abs(lap)) < 1e-11

    def test_monotone_iff_condition_holds(self):
        rng = np.random.default_rng(8)
        seen = {True: 0, False: 0}
        for _ in range(200):
            pair = random_annulus_pair(rng)
            verdict = nitsche_condition(pair).admissible
            seen[verdict] += 1
            assert verdict == harmonic_profile_monotone(pair)
        # the sample should exercise both verdicts
        assert seen[True] > 0 and seen[False] > 0

    def test_exact_verdict_at_threshold(self):
        # the slope signs are decided exactly, so at r* = thr R* and one
        # ulp either side the verdict follows the rational condition both
        # ways, and a relative step of 1e-9 decides it
        rng = np.random.default_rng(3)
        seen = {True: 0, False: 0}
        for _ in range(200):
            p = random_annulus_pair(rng)
            rs = nitsche_condition(p).threshold * p.R_star
            for r_star in (np.nextafter(rs, 0.0), rs, np.nextafter(rs, np.inf)):
                q = AnnulusPair.from_radii(p.r, p.R, float(r_star), p.R_star)
                verdict = nitsche_condition(q).admissible
                seen[verdict] += 1
                assert harmonic_profile_monotone(q) == verdict
            for r_star, verdict in ((rs * (1.0 - 1e-9), True), (rs * (1.0 + 1e-9), False)):
                q = AnnulusPair.from_radii(p.r, p.R, r_star, p.R_star)
                assert nitsche_condition(q).admissible == verdict
                assert harmonic_profile_monotone(q) == verdict
        assert seen[True] > 0 and seen[False] > 0

    @pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-11])
    def test_no_monotone_band_past_threshold(self, eps):
        # within about 1e-11 relative past the threshold, H'(r) < 0 lies
        # below the rounding of a float slope; the verdict must still follow
        # the rational condition
        rng = np.random.default_rng(0)
        for _ in range(2000):
            p = random_annulus_pair(rng)
            r_star = nitsche_condition(p).threshold * p.R_star * (1.0 + eps)
            q = AnnulusPair.from_radii(p.r, p.R, r_star, p.R_star)
            assert harmonic_profile_monotone(q) == nitsche_condition(q).admissible, q

    def test_threshold_pair_has_flat_slope_at_inner_radius(self):
        pair = AnnulusPair.from_radii(1.0, 2.0, 12.0, 17.0)
        h = harmonic_radial_bvp(pair)
        assert abs(h.derivative(1.0)) < 1e-12
        # interior slope stays positive beyond the boundary touch
        assert h.derivative(1.5) > 0.0


class TestClosedFormEnergy:
    def test_spot_value(self):
        # (1, 2, 1, 1.2) evaluates to 4 pi * 17 / 7
        pair = AnnulusPair.from_radii(1.0, 2.0, 1.0, 1.2)
        assert math.isclose(analytic_dirichlet_energy_radial(pair), 4.0 * PI * 17.0 / 7.0,
                            rel_tol=1e-13)

    def test_matches_quadrature_energy(self, rng):
        for _ in range(8):
            pair = random_annulus_pair(rng)
            f = GeneralizedRadialMap(harmonic_radial_bvp(pair))
            num = dirichlet_energy(f, pair).value
            assert math.isclose(num, analytic_dirichlet_energy_radial(pair), rel_tol=1e-10)

    def test_identity_map_value(self):
        pair = AnnulusPair.from_radii(1.0, 2.0, 1.0, 2.0)
        assert math.isclose(analytic_dirichlet_energy_radial(pair), 28.0 * PI, rel_tol=1e-13)

"""Closed-form bound values, frozen by hand from the defining expressions.

Every numeric oracle here was derived independently by evaluating the bounding
expressions on paper against the fixture tables, then frozen.  The package
derives its expression sets from the stratum LP's dual vertices; the sets as
printed in the source derivation are typed out below, and the derived sets
are checked against them.  The simplex is only used for the comparison tests,
never to generate expectations.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mediation_bounds import (
    AssumptionIncompatibilityError,
    Assumptions,
    ConsistencyError,
    EstimandSpec,
    InferenceConfig,
    Method,
    ValidationError,
    ande_bounds,
    anie_bounds,
    anie_expressions,
    ate,
    atm,
    clr_bounds,
    from_counts,
    from_probabilities,
)
from mediation_bounds import closed_form, lp_engine
from mediation_bounds.closed_form import bounds_mmr, bounds_mmr_pos_mediator, bounds_no_assumption
from mediation_bounds.lp_engine import anie_bounds_lp, cross_world_range
from mediation_bounds.model import FEAS_TOL, ORDER_TOL, BoundsResult
from conftest import derive_table, make_rng, phase1_rows, random_dist, random_mmr_dist

TOL = 1e-12
ALL_SPECS = [
    EstimandSpec(reference, assumptions, sign)
    for assumptions, signs in (
        (Assumptions.NONE, (1,)),
        (Assumptions.MMR, (1,)),
        (Assumptions.MMR_POS_MEDIATOR, (1, -1)),
    )
    for reference in (0, 1)
    for sign in signs
]


def printed(label, *terms):
    """An expression as printed: its label and its (coefficient, a, y, m) terms on the cell vector."""
    coeffs = [0.0] * 8
    for coef, a, y, m in terms:
        coeffs[4 * a + 2 * y + m] += coef
    return label, tuple(coeffs)


ATM_TERMS = ((1, 1, 0, 1), (1, 1, 1, 1), (-1, 0, 0, 1), (-1, 0, 1, 1))
NEG_ATM_TERMS = tuple((-c, a, y, m) for c, a, y, m in ATM_TERMS)

# The expression sets of the source derivation, keyed by (assumptions, reference).
PRINTED = {
    (Assumptions.NONE, 1): (
        (
            printed("-p00.1 - p01.1", (-1, 1, 0, 0), (-1, 1, 0, 1)),
            printed("-p01.1 - p01.0 - p11.0", (-1, 1, 0, 1), (-1, 0, 0, 1), (-1, 0, 1, 1)),
            printed("-p00.1 - p00.0 - p10.0", (-1, 1, 0, 0), (-1, 0, 0, 0), (-1, 0, 1, 0)),
        ),
        (
            printed("p10.1 + p11.1", (1, 1, 1, 0), (1, 1, 1, 1)),
            printed("p11.1 + p01.0 + p11.0", (1, 1, 1, 1), (1, 0, 0, 1), (1, 0, 1, 1)),
            printed("p10.1 + p00.0 + p10.0", (1, 1, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0)),
        ),
    ),
    (Assumptions.NONE, 0): (
        (
            printed("-p10.0 - p11.0", (-1, 0, 1, 0), (-1, 0, 1, 1)),
            printed("-p11.0 - p01.1 - p11.1", (-1, 0, 1, 1), (-1, 1, 0, 1), (-1, 1, 1, 1)),
            printed("-p10.0 - p00.1 - p10.1", (-1, 0, 1, 0), (-1, 1, 0, 0), (-1, 1, 1, 0)),
        ),
        (
            printed("p00.0 + p01.0", (1, 0, 0, 0), (1, 0, 0, 1)),
            printed("p01.0 + p01.1 + p11.1", (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 1, 1)),
            printed("p00.0 + p00.1 + p10.1", (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)),
        ),
    ),
    (Assumptions.MMR, 1): (
        (printed("-atm", *NEG_ATM_TERMS), printed("-p01.1", (-1, 1, 0, 1))),
        (printed("atm", *ATM_TERMS), printed("p11.1", (1, 1, 1, 1))),
    ),
    (Assumptions.MMR, 0): (
        (printed("-atm", *NEG_ATM_TERMS), printed("-p10.0", (-1, 0, 1, 0))),
        (printed("atm", *ATM_TERMS), printed("p00.0", (1, 0, 0, 0))),
    ),
    # Reference 1, sign +1 only.  The third upper expression repeats p00.1 as
    # printed.  This set is valid but not sharp: its lower bound is below the
    # sharp one on about a fifth of random tables.
    (Assumptions.MMR_POS_MEDIATOR, 1): (
        (
            printed("-atm", *NEG_ATM_TERMS),
            printed("p10.1 - p10.0 - p00.0", (1, 1, 1, 0), (-1, 0, 1, 0), (-1, 0, 0, 0)),
            printed("-p11.1 - p00.1 - p10.0", (-1, 1, 1, 1), (-1, 1, 0, 0), (-1, 0, 1, 0)),
            printed("-p01.1", (-1, 1, 0, 1)),
        ),
        (
            printed("atm", *ATM_TERMS),
            printed("p11.1 + p10.0 + p00.0", (1, 1, 1, 1), (1, 0, 1, 0), (1, 0, 0, 0)),
            printed("2 p11.1 + p00.1 + p00.1", (2, 1, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0)),
            printed("p11.1", (1, 1, 1, 1)),
        ),
    ),
}


def sequential(coeffs, cells):
    """An expression's value with its eight products added in index order."""
    total = 0.0
    for c, x in zip(coeffs, cells.tolist()):
        total += c * x
    return total


def expression_values(dist, spec):
    lowers, uppers = anie_expressions(spec)
    cells = dist.cells
    return [sequential(e.coeffs, cells) for e in lowers], [sequential(e.coeffs, cells) for e in uppers]


def exact_sides(dist, spec):
    """Each expression's exact rational value on ``dist.counts``, lower side then upper."""
    k = dist.counts
    cells = [Fraction(c, dist.n0) for c in k[:4]] + [Fraction(c, dist.n1) for c in k[4:]]
    return tuple([sum(int(c) * x for c, x in zip(e.coeffs, cells)) for e in side] for side in anie_expressions(spec))


def printed_values(dist, assumptions):
    cells = dist.cells
    lowers, uppers = PRINTED[(assumptions, 1)]
    return [float(np.dot(c, cells)) for _, c in lowers], [float(np.dot(c, cells)) for _, c in uppers]


def simplex_bounds(dist, spec):
    """delta bounds from the simplex optima of the stratum LP."""
    cross_min, cross_max, _, _ = cross_world_range(dist, spec)
    if spec.reference == 1:
        mean = dist.outcome_mean(1)
        lower, upper = mean - cross_max, mean - cross_min
    else:
        mean = dist.outcome_mean(0)
        lower, upper = cross_min - mean, cross_max - mean
    return min(1.0, max(-1.0, lower)), min(1.0, max(-1.0, upper))


class TestNoAssumption:
    def test_uniform_reference1(self, uniform_dist):
        res = anie_bounds(uniform_dist, EstimandSpec(1))
        assert res.lower == pytest.approx(-0.5, abs=TOL)
        assert res.upper == pytest.approx(0.5, abs=TOL)
        assert res.method is Method.CLOSED_FORM
        assert not res.incompatible

    def test_uniform_inner_expressions(self, uniform_dist):
        spec = EstimandSpec(reference=1, assumptions=Assumptions.NONE)
        lo_vals, hi_vals = expression_values(uniform_dist, spec)
        np.testing.assert_allclose(lo_vals, [-0.5, -0.75, -0.75], atol=TOL)
        np.testing.assert_allclose(hi_vals, [0.5, 0.75, 0.75], atol=TOL)
        res = anie_bounds(uniform_dist, EstimandSpec(1))
        assert res.binding_lower == 0
        assert res.binding_upper == 0

    def test_benchmark_reference1(self, e1_dist):
        res = anie_bounds(e1_dist, EstimandSpec(1))
        assert res.lower == pytest.approx(-0.3, abs=TOL)
        assert res.upper == pytest.approx(0.7, abs=TOL)
        lo_vals, hi_vals = expression_values(
            e1_dist, EstimandSpec(reference=1, assumptions=Assumptions.NONE)
        )
        np.testing.assert_allclose(lo_vals, [-0.3, -0.6, -0.7], atol=TOL)
        np.testing.assert_allclose(hi_vals, [0.7, 0.8, 0.9], atol=TOL)

    def test_benchmark_reference0(self, e1_dist):
        res = anie_bounds(e1_dist, EstimandSpec(0))
        assert res.lower == pytest.approx(-0.3, abs=TOL)
        assert res.upper == pytest.approx(0.7, abs=TOL)

    def test_zero_always_inside(self):
        rng = make_rng(101)
        for _ in range(1000):
            dist = random_dist(rng)
            for reference in (0, 1):
                res = anie_bounds(dist, EstimandSpec(reference))
                assert res.lower <= 0.0 <= res.upper

    def test_width_never_exceeds_two(self):
        rng = make_rng(17)
        for _ in range(200):
            res = anie_bounds(random_dist(rng), EstimandSpec(1))
            assert -1.0 <= res.lower <= res.upper <= 1.0


class TestMonotoneMediator:
    def test_zero_margin_difference_point_identifies(self, uniform_dist):
        for reference in (0, 1):
            res = anie_bounds(uniform_dist, EstimandSpec(reference, Assumptions.MMR))
            assert res.lower == pytest.approx(0.0, abs=TOL)
            assert res.upper == pytest.approx(0.0, abs=TOL)
            assert not res.incompatible

    def test_benchmark_reference1(self, e1_dist):
        res = anie_bounds(e1_dist, EstimandSpec(1, Assumptions.MMR))
        assert res.lower == pytest.approx(-0.2, abs=TOL)
        assert res.upper == pytest.approx(0.2, abs=TOL)
        lo_vals, hi_vals = expression_values(
            e1_dist, EstimandSpec(reference=1, assumptions=Assumptions.MMR)
        )
        np.testing.assert_allclose(lo_vals, [-0.2, -0.2], atol=TOL)
        np.testing.assert_allclose(hi_vals, [0.2, 0.4], atol=TOL)

    def test_benchmark_reference0(self, e1_dist):
        res = anie_bounds(e1_dist, EstimandSpec(0, Assumptions.MMR))
        assert res.lower == pytest.approx(-0.2, abs=TOL)
        assert res.upper == pytest.approx(0.2, abs=TOL)

    def test_interval_capped_by_margin_difference(self):
        rng = make_rng(23)
        for _ in range(300):
            dist = random_mmr_dist(rng)
            alpha = atm(dist)
            for reference in (0, 1):
                res = anie_bounds(dist, EstimandSpec(reference, Assumptions.MMR))
                assert res.lower >= -alpha - TOL
                assert res.upper <= alpha + TOL
                assert res.lower <= 0.0 <= res.upper

    def test_negative_margin_difference_flags_incompatible(self):
        dist = from_probabilities([0.1, 0.5, 0.1, 0.3], [0.4, 0.1, 0.4, 0.1])
        assert atm(dist) < 0
        res = anie_bounds(dist, EstimandSpec(1, Assumptions.MMR))
        assert res.incompatible
        assert res.diagnostics
        assert "contradicts" in res.diagnostics[0]

    def test_nested_inside_no_assumption(self):
        rng = make_rng(29)
        for _ in range(200):
            dist = random_mmr_dist(rng)
            for reference in (0, 1):
                outer = anie_bounds(dist, EstimandSpec(reference))
                inner = anie_bounds(dist, EstimandSpec(reference, Assumptions.MMR))
                assert outer.lower <= inner.lower + TOL
                assert inner.upper <= outer.upper + TOL


class TestSignedMediator:
    def test_benchmark_values(self, e1_dist):
        res = anie_bounds(e1_dist, EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR))
        assert res.lower == pytest.approx(-0.2, abs=TOL)
        assert res.upper == pytest.approx(0.2, abs=TOL)
        lo_vals, hi_vals = printed_values(e1_dist, Assumptions.MMR_POS_MEDIATOR)
        np.testing.assert_allclose(lo_vals, [-0.2, -0.3, -0.7, -0.2], atol=TOL)
        np.testing.assert_allclose(hi_vals, [0.2, 1.0, 1.0, 0.4], atol=TOL)
        # Derived: -atm, -p01.1, -p00.1 - p11.1, -p00.1 - p01.0 - p11.0; atm, p11.1.
        lo_vals, hi_vals = expression_values(
            e1_dist,
            EstimandSpec(reference=1, assumptions=Assumptions.MMR_POS_MEDIATOR),
        )
        np.testing.assert_allclose(lo_vals, [-0.2, -0.2, -0.5, -0.5], atol=TOL)
        np.testing.assert_allclose(hi_vals, [0.2, 0.4], atol=TOL)

    def test_zero_margin_difference_point_identifies(self, uniform_dist):
        res = anie_bounds(uniform_dist, EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR))
        assert res.lower == pytest.approx(0.0, abs=TOL)
        assert res.upper == pytest.approx(0.0, abs=TOL)

    def test_every_signed_spec_is_served(self, e1_dist):
        for reference in (0, 1):
            for sign in (1, -1):
                spec = EstimandSpec(reference, Assumptions.MMR_POS_MEDIATOR, sign)
                lowers, uppers = anie_expressions(spec)
                assert 2 <= len(lowers) <= 4 and 2 <= len(uppers) <= 4
                res = anie_bounds(e1_dist, spec)
                assert not res.incompatible
                assert (res.lower, res.upper) == pytest.approx(simplex_bounds(e1_dist, spec), abs=TOL)
            assert bounds_mmr_pos_mediator(e1_dist, reference) == anie_bounds(
                e1_dist, EstimandSpec(reference, Assumptions.MMR_POS_MEDIATOR)
            )

    def test_nested_inside_monotone_interval(self):
        rng = make_rng(31)
        for _ in range(100):
            dist = random_mmr_dist(rng)
            outer = anie_bounds(dist, EstimandSpec(1, Assumptions.MMR))
            inner = anie_bounds(dist, EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR))
            assert outer.lower <= inner.lower + 1e-9
            assert inner.upper <= outer.upper + 1e-9

    def test_sharp_interval_inside_printed_interval(self):
        # The printed set is valid but not always sharp; the derived interval
        # must lie inside it and equal the simplex's optima, and be strictly
        # narrower on some tables.
        spec = EstimandSpec(reference=1, assumptions=Assumptions.MMR_POS_MEDIATOR)
        rng = make_rng(37)
        narrower = 0
        for i in range(300):
            dist = random_mmr_dist(rng)
            lo_vals, hi_vals = printed_values(dist, Assumptions.MMR_POS_MEDIATOR)
            printed_lower = min(1.0, max(-1.0, max(lo_vals)))
            printed_upper = min(1.0, max(-1.0, min(hi_vals)))
            res = anie_bounds(dist, EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR))
            assert res.method is Method.CLOSED_FORM and not res.incompatible
            assert printed_lower - TOL <= res.lower <= res.upper <= printed_upper + TOL, i
            lower, upper = simplex_bounds(dist, spec)
            assert max(abs(res.lower - lower), abs(res.upper - upper)) <= TOL, i
            narrower += res.lower > printed_lower + 1e-9
        assert narrower > 0, "expected the printed lower bound to be loose on some tables"

    def test_incompatible_skips_lp(self, monkeypatch):
        # The verdict comes from the mediator ATE; no solver runs.
        def no_solver(*args):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(lp_engine, "solve", no_solver)
        dist = from_probabilities([0.1, 0.5, 0.1, 0.3], [0.4, 0.1, 0.4, 0.1])
        res = anie_bounds(dist, EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR))
        assert res.incompatible
        assert res.method is Method.CLOSED_FORM
        assert res.diagnostics[0].startswith(
            "observed distribution contradicts 'mmr-pos-mediator': constraints are inconsistent "
            "(phase-1 residual 0.6)"
        )


def atm_sweep_tables():
    """Integer tables with mediator ATE exactly -k/(n0 n1), arm sizes 10^2 to 10^6.

    n1 = n0 + 1 with k mediator units in each arm, and n1 = n0 - 1 with
    n0 - k and n0 - k - 1 mediator units; the outcome splits are seeded.
    """
    rng = make_rng(131)
    tables = []
    for n0 in np.rint(np.logspace(2, 6, 13)).astype(int).tolist():
        for k in (1, 2, 3, 7, 30):
            for n1, m0, m1 in ((n0 + 1, k, k), (n0 - 1, n0 - k, n0 - k - 1)):
                counts = []
                for n, m in ((n0, m0), (n1, m1)):
                    y_m0, y_m1 = int(rng.integers(0, n - m + 1)), int(rng.integers(0, m + 1))
                    counts += [n - m - y_m0, m - y_m1, y_m0, y_m1]
                tables.append(counts)
    return tables


class TestVerdict:
    """One incompatibility verdict, exact on counts, and no crash near the boundary."""

    # Mediator ATE -1/(n0 n1) with n0 = 40,001 and n1 = 40,000: the interval
    # crosses by 2/(n0 n1) = 1.25e-9 at either reference, above ORDER_TOL,
    # while the phase-1 residual at reference 1 (6.25e-10) is below FEAS_TOL.
    REPRODUCER = [1, 21164, 0, 18836, 1, 30111, 0, 9888]
    # Arms of 500,000 and 500,001 units with 100 units with M = 1 in each:
    # ATM = -1/2,500,005,000, about -4.0e-10.  The phase-1 residual (4e-10 at
    # either reference) is below FEAS_TOL, and the interval crosses by
    # 8e-10, less than ORDER_TOL.
    MILLION = [249950, 50, 249950, 50, 249951, 50, 249950, 50]

    def test_reproducer_is_flagged(self):
        dist = from_counts(self.REPRODUCER)
        assert atm(dist) == pytest.approx(-1 / (40_001 * 40_000), rel=1e-6)
        for spec in ALL_SPECS:
            res = anie_bounds(dist, spec)
            restricted = spec.assumptions is not Assumptions.NONE
            assert res.incompatible is restricted, spec
            if restricted:
                assert res.lower > res.upper
                with pytest.raises(AssumptionIncompatibilityError):
                    anie_bounds_lp(dist, spec)
        assert all(anie_bounds(dist, EstimandSpec(reference, Assumptions.MMR)).incompatible for reference in (0, 1))

    def test_shortfall_below_the_float_resolution_is_printed(self):
        # Arms of 2**52 - 1 and 2**52 + 1 units with ATM = -1/(n0 n1), which
        # the float cells round to 0: the residual is printed from the counts.
        n0, n1 = 2**52 - 1, 2**52 + 1
        k1 = -pow(n0, -1, n1) % n1
        k0 = (k1 * n0 + 1) // n1
        assert (k1 * n0 + 1) % n1 == 0
        counts = [n0 - k0, k0, 0, 0, n1 - k1, k1, 0, 0]
        dist = from_counts(counts)
        assert Fraction(k1, n1) - Fraction(k0, n0) == Fraction(-1, n0 * n1)
        for spec in ALL_SPECS:
            if spec.assumptions is not Assumptions.NONE:
                res = anie_bounds(dist, spec)
                assert res.incompatible, spec
                # The -atm entry of the kept values is the shortfall, from the counts.
                shortfall = closed_form._table_values(dist)[closed_form._spec_table(spec).start]
                assert repr(shortfall) == repr(1 / (n0 * n1)) and shortfall > 0.0
                assert "(phase-1 residual 4.93038e-32)" in res.diagnostics[0]
            TestStackedTable.assert_per_spec_route(dist, spec, np.array(counts))

    def test_million_unit_table_is_flagged_from_its_counts(self):
        dist = from_counts(self.MILLION)
        assert atm(dist) == pytest.approx(-1 / 2_500_005_000, rel=1e-6)
        twin = from_probabilities(dist.arm(0), dist.arm(1))
        for spec in ALL_SPECS:
            res = anie_bounds(dist, spec)
            restricted = spec.assumptions is not Assumptions.NONE
            assert res.incompatible is restricted, spec
            if restricted:
                assert res.lower > res.upper
                # The residual is max(0, -ATM) at either reference.
                assert "(phase-1 residual 3.99999e-10)" in res.diagnostics[0]
            # Without its counts the interval may cross by ORDER_TOL; it crosses by 8e-10.
            assert not anie_bounds(twin, spec).incompatible, spec

    @staticmethod
    def draw_counts(data):
        """A count table and its exact mediator ATE.

        Arm totals from 2 to 2**52, and mediator ATEs of any value, of 0 and
        of +-1/(n0 n1), the nearest to 0 that the arm sizes allow.
        """
        n0, n1 = (data.draw(st.integers(1, 52).flatmap(lambda e: st.integers(2, 2**e))) for _ in range(2))
        kind = data.draw(st.sampled_from(("any", "0", "+1", "-1")))
        if kind == "any":
            k0, k1 = data.draw(st.integers(0, n0)), data.draw(st.integers(0, n1))
        elif kind == "0":
            g = math.gcd(n0, n1)
            s = data.draw(st.integers(0, g))
            k0, k1 = n0 // g * s, n1 // g * s
        else:
            assume(math.gcd(n0, n1) == 1)
            d = int(kind)
            k1 = d * pow(n0, -1, n1) % n1
            k0 = (k1 * n0 - d) // n1
        counts = []
        for n, k in ((n0, k0), (n1, k1)):
            y_m0, y_m1 = data.draw(st.integers(0, n - k)), data.draw(st.integers(0, k))
            counts += [n - k - y_m0, k - y_m1, y_m0, y_m1]
        mediator_ate = Fraction(k1, n1) - Fraction(k0, n0)
        if kind != "any":
            assert mediator_ate == Fraction(int(kind), n0 * n1)
        return counts, mediator_ate

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_verdict_on_counts_is_exact(self, data):
        counts, mediator_ate = self.draw_counts(data)
        dist = from_counts(counts)
        for spec in ALL_SPECS:
            restricted = spec.assumptions is not Assumptions.NONE
            assert anie_bounds(dist, spec).incompatible is (restricted and mediator_ate < 0), (counts, spec)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_bounds_on_counts_are_the_rounded_rationals(self, data):
        # Each endpoint is its clamped rational correctly rounded, and the
        # interval crosses exactly when a restricted set meets ATM < 0.  Below
        # n0 n1 = 2**52 distinct values, at least 1/(n0 n1) apart, round to
        # distinct doubles, so the first float optimum is the first exact one.
        counts, mediator_ate = self.draw_counts(data)
        dist = from_counts(counts)
        for spec in ALL_SPECS:
            res = anie_bounds(dist, spec)
            lows, highs = exact_sides(dist, spec)
            lower, upper = max(lows), min(highs)
            where = (counts, spec)
            assert repr(res.lower) == repr(float(min(1, max(-1, lower)))), where
            assert repr(res.upper) == repr(float(min(1, max(-1, upper)))), where
            crossed = spec.assumptions is not Assumptions.NONE and mediator_ate < 0
            assert res.incompatible is crossed, where
            assert (res.lower > res.upper) is crossed, where
            if dist.n0 * dist.n1 < 2**52:
                assert (res.binding_lower, res.binding_upper) == (lows.index(lower), highs.index(upper)), where

    def test_sweep_near_zero_mediator_ate(self):
        # Every table's ATM is negative, so its counts flag every restricted
        # spec.  Its probability twin is flagged only where the interval
        # crosses by more than ORDER_TOL, as every shortfall above FEAS_TOL makes it.
        tables = atm_sweep_tables()
        flagged = twins_flagged = 0
        for counts in tables:
            dist = from_counts(counts)
            twin = from_probabilities(dist.arm(0), dist.arm(1))
            n0, n1 = sum(counts[:4]), sum(counts[4:])
            m0, m1 = counts[1] + counts[3], counts[5] + counts[7]
            k = m0 * n1 - m1 * n0  # ATM = -k / (n0 n1), exactly
            assert 0 < k <= 30
            for spec in ALL_SPECS:
                try:
                    res, twin_res = anie_bounds(dist, spec), anie_bounds(twin, spec)
                except ValidationError as exc:  # pragma: no cover - the failure being guarded
                    pytest.fail(f"{counts} {spec}: {exc}")
                try:
                    served = anie_bounds_lp(dist, spec)
                except AssumptionIncompatibilityError:
                    served = None
                assert (served is None) is res.incompatible, (counts, spec)
                assert res.incompatible is (spec.assumptions is not Assumptions.NONE), (counts, spec)
                if spec.assumptions is Assumptions.NONE:
                    assert not twin_res.incompatible
                elif k / (n0 * n1) > 1e-9:
                    # Infeasible by more than FEAS_TOL in the mediator margins alone.
                    assert twin_res.incompatible, (counts, spec)
                flagged += res.incompatible
                twins_flagged += twin_res.incompatible
            for reference in (0, 1):
                assert bounds_no_assumption(dist, reference) == anie_bounds(dist, EstimandSpec(reference))
                assert bounds_mmr(dist, reference) == anie_bounds(dist, EstimandSpec(reference, Assumptions.MMR))
                assert bounds_mmr_pos_mediator(dist, reference) == anie_bounds(
                    dist, EstimandSpec(reference, Assumptions.MMR_POS_MEDIATOR)
                )
        assert flagged == len(tables) * 6
        # Both verdicts occur on the twins' restricted specs.
        assert 0 < twins_flagged < len(tables) * 6


class TestDirectEffect:
    def test_benchmark_direct_effect(self, e1_dist):
        anie = anie_bounds(e1_dist, EstimandSpec(1))
        zeta0 = ande_bounds(e1_dist, 0, anie)
        assert zeta0.estimand == "ande"
        assert zeta0.lower == pytest.approx(0.4 - 0.7, abs=TOL)
        assert zeta0.upper == pytest.approx(0.4 + 0.3, abs=TOL)

    def test_point_identified_indirect_gives_ate(self, uniform_dist):
        anie = anie_bounds(uniform_dist, EstimandSpec(1, Assumptions.MMR))
        zeta0 = ande_bounds(uniform_dist, 0, anie)
        tau = ate(uniform_dist)
        assert zeta0.lower == pytest.approx(tau, abs=TOL)
        assert zeta0.upper == pytest.approx(tau, abs=TOL)

    def test_binding_indices_swap(self, e1_dist):
        anie = anie_bounds(e1_dist, EstimandSpec(0))
        zeta1 = ande_bounds(e1_dist, 1, anie)
        assert zeta1.binding_lower == anie.binding_upper
        assert zeta1.binding_upper == anie.binding_lower

    def test_rejects_mismatched_reference(self, e1_dist):
        anie = anie_bounds(e1_dist, EstimandSpec(1))
        with pytest.raises(ConsistencyError):
            ande_bounds(e1_dist, 1, anie)

    def test_rejects_foreign_distribution(self, e1_dist, uniform_dist):
        anie = anie_bounds(uniform_dist, EstimandSpec(1))
        with pytest.raises(ConsistencyError):
            ande_bounds(e1_dist, 0, anie)

    def test_rejects_direct_effect_input(self, e1_dist):
        anie = anie_bounds(e1_dist, EstimandSpec(1))
        zeta0 = ande_bounds(e1_dist, 0, anie)
        with pytest.raises(ConsistencyError):
            ande_bounds(e1_dist, 1, zeta0)

    @staticmethod
    def constructed_ande(dist, reference, anie):
        """The direct effect with its spec built by ``EstimandSpec(...)`` and the ATE read from numpy cells."""
        cells = dist.cells
        tau = float(cells[6] + cells[7]) - float(cells[2] + cells[3])
        spec = EstimandSpec(
            reference=reference,
            assumptions=anie.spec.assumptions,
            mediator_effect_sign=anie.spec.mediator_effect_sign,
        )
        return BoundsResult(
            lower=min(1.0, max(-1.0, tau - anie.upper)),
            upper=min(1.0, max(-1.0, tau - anie.lower)),
            binding_lower=anie.binding_upper,
            binding_upper=anie.binding_lower,
            spec=spec,
            method=anie.method,
            estimand="ande",
            incompatible=anie.incompatible,
            diagnostics=anie.diagnostics,
            fingerprint=dist.fingerprint(),
        )

    def test_looked_up_spec_matches_the_constructed_one(self):
        # Every spec, and none / mmr specs that carry sign -1, which the
        # direct effect keeps; count tables (incompatible ones among them)
        # and probability distributions.
        specs = ALL_SPECS + [EstimandSpec(r, a, -1) for a in (Assumptions.NONE, Assumptions.MMR) for r in (0, 1)]
        rng = make_rng(3404)
        dists = [from_counts(row) for row in rng.integers(0, 30, size=(60, 8)).tolist() if sum(row[:4]) and sum(row[4:])]
        dists += [random_dist(rng) for _ in range(40)] + [from_probabilities([-0.0, 0.5, 0.5, -0.0], [0.0, 0.5, 0.5, 0.0])]
        incompatible = 0
        for dist in dists:
            for spec in specs:
                anie = anie_bounds(dist, spec)
                incompatible += anie.incompatible
                for reference in (1 - spec.reference, np.int64(1 - spec.reference)):
                    res, expected = ande_bounds(dist, reference, anie), self.constructed_ande(dist, reference, anie)
                    assert repr(res) == repr(expected)
                    assert res == expected and res.fingerprint == expected.fingerprint
                    assert res.spec == expected.spec and res.spec.mediator_effect_sign == spec.mediator_effect_sign
                    assert type(res.spec.reference) is int and type(res.spec.mediator_effect_sign) is int
        assert 0 < incompatible < len(dists) * len(specs)

    @pytest.mark.parametrize("reference", [True, 1.0, np.float64(1)])
    def test_non_integer_reference_refused_as_the_spec_refuses_it(self, e1_dist, reference):
        anie = anie_bounds(e1_dist, EstimandSpec(0, Assumptions.MMR))
        with pytest.raises(ValidationError, match="must be integers"):
            ande_bounds(e1_dist, reference, anie)

    def test_consistency_messages(self, e1_dist, uniform_dist):
        anie = anie_bounds(e1_dist, EstimandSpec(1))
        zeta0 = ande_bounds(e1_dist, 0, anie)
        with pytest.raises(ConsistencyError, match="^expected an ANIE result, got estimand='ande'$"):
            ande_bounds(e1_dist, 1, zeta0)
        with pytest.raises(ConsistencyError, match=r"^zeta\(1\) needs delta\(0\) bounds, got delta\(1\)$"):
            ande_bounds(e1_dist, 1, anie)
        with pytest.raises(ConsistencyError, match="^ANIE result was computed from a different distribution$"):
            ande_bounds(uniform_dist, 0, anie)

    def test_decomposition_identity(self):
        rng = make_rng(41)
        for _ in range(100):
            dist = random_dist(rng)
            tau = ate(dist)
            for reference in (0, 1):
                anie = anie_bounds(dist, EstimandSpec(1 - reference))
                zeta = ande_bounds(dist, reference, anie)
                assert zeta.lower + anie.upper == pytest.approx(tau, abs=TOL)
                assert zeta.upper + anie.lower == pytest.approx(tau, abs=TOL)


class TestExpressionProperties:
    def test_coefficients_have_length_eight(self):
        for spec in ALL_SPECS:
            lowers, uppers = anie_expressions(spec)
            for expr in (*lowers, *uppers):
                assert len(expr.coeffs) == 8
                assert expr.label

    def test_expression_counts(self):
        for assumptions, sign, n_lower, n_upper in (
            (Assumptions.NONE, 1, 3, 3),
            (Assumptions.MMR, 1, 2, 2),
            (Assumptions.MMR_POS_MEDIATOR, 1, 4, 2),
            (Assumptions.MMR_POS_MEDIATOR, -1, 2, 4),
        ):
            for reference in (0, 1):
                lowers, uppers = anie_expressions(EstimandSpec(reference, assumptions, sign))
                assert (len(lowers), len(uppers)) == (n_lower, n_upper)

    def test_derived_sets_equal_printed(self):
        # Coefficient vectors, labels and order: binding indices, CLR selected
        # indices and labels all appear in the command-line output.
        for (assumptions, reference), sets in PRINTED.items():
            if assumptions is Assumptions.MMR_POS_MEDIATOR:
                continue
            derived = anie_expressions(EstimandSpec(reference, assumptions))
            assert [[(e.label, e.coeffs) for e in side] for side in derived] == [list(side) for side in sets]

    def test_value_is_lipschitz_in_cells(self):
        # |c . (x - x')| <= max|c| * ||x - x'||_1, so nearby tables can never
        # produce wildly different expression values.
        rng = make_rng(43)
        spec = EstimandSpec(reference=1, assumptions=Assumptions.NONE)
        lowers, uppers = anie_expressions(spec)
        for _ in range(50):
            a, b = random_dist(rng), random_dist(rng)
            gap = np.abs(a.cells - b.cells).sum()
            for expr in (*lowers, *uppers):
                cmax = max(abs(c) for c in expr.coeffs)
                diff = abs(sequential(expr.coeffs, a.cells) - sequential(expr.coeffs, b.cells))
                assert diff <= cmax * gap + TOL

    def test_evaluator_sums_in_index_order(self):
        # anie_bounds and clr_bounds share one evaluator.  On probabilities it
        # adds each expression's eight products in index order; ``sequential``
        # is that arithmetic written out, so the values are equal, not just
        # close.  On counts each value is its exact rational correctly rounded.
        config = InferenceConfig(draws=100)
        rng = make_rng(53)
        for i in range(200):
            counts = None if i % 2 else rng.integers(1, 10**6, size=8)
            dist = random_dist(rng) if i % 2 else from_counts(counts.tolist())
            for spec in ALL_SPECS:
                if counts is None:
                    lo_vals, hi_vals = expression_values(dist, spec)
                else:
                    lo_vals, hi_vals = ([float(v) for v in side] for side in exact_sides(dist, spec))
                res = anie_bounds(dist, spec)
                assert res.binding_lower == lo_vals.index(max(lo_vals))
                assert res.binding_upper == hi_vals.index(min(hi_vals))
                assert res.lower == min(1.0, max(-1.0, max(lo_vals)))
                assert res.upper == min(1.0, max(-1.0, min(hi_vals)))
                if counts is not None:
                    iv = clr_bounds(counts, spec, config)
                    assert [e.estimate for e in iv.lower_expressions] == lo_vals
                    assert [e.estimate for e in iv.upper_expressions] == hi_vals

    def test_closed_form_matches_lp(self):
        # Quick scan against the simplex; the acceptance suite runs the full
        # thousand-table version of this comparison.
        rng = make_rng(47)
        for _ in range(100):
            dist = random_dist(rng)
            for reference in (0, 1):
                cf = anie_bounds(dist, EstimandSpec(reference))
                lp = simplex_bounds(dist, EstimandSpec(reference=reference, assumptions=Assumptions.NONE))
                assert cf.lower == pytest.approx(lp[0], abs=1e-9)
                assert cf.upper == pytest.approx(lp[1], abs=1e-9)


REFERENCE_EVALUATE = closed_form._evaluate


def per_spec_bounds(dist, spec, counts=None):
    """The per-spec route that the stacked table replaced, kept as the reference.

    The spec's own rows, derived afresh from the brute-force enumeration of
    its dual vertices, every phase-1 vertex included, are evaluated by
    ``_evaluate`` or, with ``counts``, in exact rationals correctly rounded;
    then max, min, ``index`` and clamp.  The verdict is taken from the
    phase-1 optimum, not from the crossing: with ``counts`` it is its sign
    and the diagnostic prints it correctly rounded; without, it is taken in
    floats and compared against FEAS_TOL.  Returns the result and the lower
    and upper expression values.
    """
    sign = spec.mediator_effect_sign if spec.assumptions is Assumptions.MMR_POS_MEDIATOR else 1
    lower_vertices, upper_vertices, phase1 = derive_table(spec.assumptions, spec.reference, sign)
    lowers, uppers = closed_form._derive(spec.reference, lower_vertices, upper_vertices)
    residual_rows = phase1_rows(spec.reference, phase1)
    rows = np.vstack([[e.coeffs for e in lowers + uppers], residual_rows]).astype(float)
    n_lo, n_bounds = len(lowers), len(lowers) + len(uppers)
    if counts is None:
        values = REFERENCE_EVALUATE(rows, dist.cells).tolist()
        residual = max(values[n_bounds:])
        short = residual > FEAS_TOL
    else:
        cells = [Fraction(int(c), int(sum(arm))) for arm in (counts[:4], counts[4:]) for c in arm]
        exact = [sum(int(r) * x for r, x in zip(row.tolist(), cells)) for row in rows]
        values = [float(v) for v in exact]
        short, residual = max(exact[n_bounds:]) > 0, float(max(exact[n_bounds:]))
    lo_vals, hi_vals = values[:n_lo], values[n_lo:n_bounds]
    lower, upper = max(lo_vals), min(hi_vals)
    binding_lower, binding_upper = lo_vals.index(lower), hi_vals.index(upper)
    lower, upper = min(1.0, max(-1.0, lower)), min(1.0, max(-1.0, upper))
    incompatible = short or lower > upper + ORDER_TOL
    diagnostics = ()
    if incompatible:
        diagnostics = (
            f"observed distribution contradicts {spec.assumptions.value!r}: constraints are "
            f"inconsistent (phase-1 residual {residual:.6g}); interval reported as computed and may be empty",
        )
    result = BoundsResult(
        lower=lower,
        upper=upper,
        binding_lower=binding_lower,
        binding_upper=binding_upper,
        spec=spec,
        method=Method.CLOSED_FORM,
        incompatible=incompatible,
        diagnostics=diagnostics,
        fingerprint=dist.fingerprint(),
    )
    return result, lo_vals, hi_vals


class TestStackedTable:
    """One evaluation of the stacked table per distribution gives the per-spec route's bits.

    ``repr`` tells -0.0 from 0.0, so equal reprs are equal bits.  Every loop
    runs spec-major over several distributions, so consecutive calls
    alternate between them.
    """

    CONFIG = InferenceConfig(draws=100)

    @staticmethod
    def assert_per_spec_route(dist, spec, counts=None):
        expected, lo_vals, hi_vals = per_spec_bounds(dist, spec, counts)
        res = anie_bounds(dist, spec)
        assert repr(res) == repr(expected)
        assert res.fingerprint == expected.fingerprint
        other = 1 - spec.reference
        assert repr(ande_bounds(dist, other, res)) == repr(ande_bounds(dist, other, expected))
        if counts is not None:
            iv = clr_bounds(counts, spec, TestStackedTable.CONFIG)
            assert repr([e.estimate for e in iv.lower_expressions]) == repr(lo_vals)
            assert repr([e.estimate for e in iv.upper_expressions]) == repr(hi_vals)

    def test_seeded_count_tables(self):
        # Small arms give empty cells and incompatible tables; large ones, long mantissas.
        rng = make_rng(61)
        tables = []
        while len(tables) < 40:
            counts = rng.integers(0, 10 ** int(rng.integers(1, 7)), size=8)
            if counts[:4].sum() >= 2 and counts[4:].sum() >= 2:
                tables.append(counts)
        dists = [from_counts(counts.tolist()) for counts in tables]
        assert any(anie_bounds(d, EstimandSpec(1, Assumptions.MMR)).incompatible for d in dists)
        for spec in ALL_SPECS:
            for counts, dist in zip(tables, dists):
                self.assert_per_spec_route(dist, spec, counts)

    def test_signed_zero_cells_evaluate_once_per_distribution(self, monkeypatch):
        # Twins whose cells differ only in the sign of a zero compare equal
        # (-0.0 == 0.0).  Each is evaluated on its own, once, on first use:
        # the values live on the instance, not in a memo keyed by the cells.
        # Such a memo would give the same bits (no row's value can be -0.0,
        # since each arm has a positive cell), so only the count tells.
        calls = []

        def counting(rows, cells):
            calls.append(cells)
            return REFERENCE_EVALUATE(rows, cells)

        monkeypatch.setattr(closed_form, "_evaluate", counting)
        arms = ([0.5, 0.0, 0.5, 0.0], [0.0, 0.25, 0.0, 0.75], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0])
        dists = []
        for arm0, arm1 in itertools.product(arms, repeat=2):
            for flip in (False, True):
                signed = [[-0.0 if x == 0.0 and flip else x for x in arm] for arm in (arm0, arm1)]
                dists.append(from_probabilities(*signed))
        assert sum(np.signbit(d.cells).any() for d in dists) == len(dists) // 2
        for spec in ALL_SPECS:
            for dist in dists:
                self.assert_per_spec_route(dist, spec)
        assert [id(cells) for cells in calls] == [id(d.cells) for d in dists]

    @pytest.mark.parametrize("front_door", [bounds_no_assumption, bounds_mmr, bounds_mmr_pos_mediator])
    def test_front_doors_check_the_reference_as_specs_do(self, e1_dist, front_door):
        # Plain 0 and 1 take prebuilt specs; every other reference goes
        # through EstimandSpec's checks, so numpy ints still pass as ints.
        for reference in (True, False, 1.0, 2, -1, "1", None):
            with pytest.raises(ValidationError):
                front_door(e1_dist, reference)
        for reference in (0, 1):
            for given in (reference, np.int64(reference), np.int8(reference)):
                res = front_door(e1_dist, given)
                assert type(res.spec.reference) is int
                assert repr(res) == repr(front_door(e1_dist, reference))

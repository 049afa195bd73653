"""Closed-form bound values, frozen by hand from the defining expressions.

Every numeric oracle here was derived independently by evaluating the bounding
expressions on paper against the fixture tables, then frozen.  The LP module is
only used for the dual-route comparison tests, never to generate expectations.
"""

import numpy as np
import pytest

from mediation_bounds import (
    Assumptions,
    ClosedFormUnavailableError,
    ConsistencyError,
    EstimandSpec,
    Method,
    ande_bounds,
    anie_bounds_lp,
    anie_expressions,
    ate,
    atm,
    bounds_mmr,
    bounds_mmr_pos_mediator,
    bounds_no_assumption,
    from_counts,
    from_probabilities,
)
from conftest import make_rng, random_dist, random_mmr_dist

TOL = 1e-12


def expression_values(dist, spec):
    lowers, uppers = anie_expressions(spec)
    cells = dist.cell_vector()
    return [e.value(cells) for e in lowers], [e.value(cells) for e in uppers]


class TestNoAssumption:
    def test_uniform_reference1(self, uniform_dist):
        res = bounds_no_assumption(uniform_dist, 1)
        assert res.lower == pytest.approx(-0.5, abs=TOL)
        assert res.upper == pytest.approx(0.5, abs=TOL)
        assert res.method is Method.CLOSED_FORM
        assert not res.incompatible

    def test_uniform_inner_expressions(self, uniform_dist):
        spec = EstimandSpec(reference=1, assumptions=Assumptions.NONE)
        lo_vals, hi_vals = expression_values(uniform_dist, spec)
        np.testing.assert_allclose(lo_vals, [-0.5, -0.75, -0.75], atol=TOL)
        np.testing.assert_allclose(hi_vals, [0.5, 0.75, 0.75], atol=TOL)
        res = bounds_no_assumption(uniform_dist, 1)
        assert res.binding_lower == 0
        assert res.binding_upper == 0

    def test_benchmark_reference1(self, e1_dist):
        res = bounds_no_assumption(e1_dist, 1)
        assert res.lower == pytest.approx(-0.3, abs=TOL)
        assert res.upper == pytest.approx(0.7, abs=TOL)
        lo_vals, hi_vals = expression_values(
            e1_dist, EstimandSpec(reference=1, assumptions=Assumptions.NONE)
        )
        np.testing.assert_allclose(lo_vals, [-0.3, -0.6, -0.7], atol=TOL)
        np.testing.assert_allclose(hi_vals, [0.7, 0.8, 0.9], atol=TOL)

    def test_benchmark_reference0(self, e1_dist):
        res = bounds_no_assumption(e1_dist, 0)
        assert res.lower == pytest.approx(-0.3, abs=TOL)
        assert res.upper == pytest.approx(0.7, abs=TOL)

    def test_zero_always_inside(self):
        rng = make_rng(101)
        for _ in range(1000):
            dist = random_dist(rng)
            for reference in (0, 1):
                res = bounds_no_assumption(dist, reference)
                assert res.lower <= 0.0 <= res.upper

    def test_width_never_exceeds_two(self):
        rng = make_rng(17)
        for _ in range(200):
            res = bounds_no_assumption(random_dist(rng), 1)
            assert -1.0 <= res.lower <= res.upper <= 1.0


class TestMonotoneMediator:
    def test_zero_margin_difference_point_identifies(self, uniform_dist):
        for reference in (0, 1):
            res = bounds_mmr(uniform_dist, reference)
            assert res.lower == pytest.approx(0.0, abs=TOL)
            assert res.upper == pytest.approx(0.0, abs=TOL)
            assert not res.incompatible

    def test_benchmark_reference1(self, e1_dist):
        res = bounds_mmr(e1_dist, 1)
        assert res.lower == pytest.approx(-0.2, abs=TOL)
        assert res.upper == pytest.approx(0.2, abs=TOL)
        lo_vals, hi_vals = expression_values(
            e1_dist, EstimandSpec(reference=1, assumptions=Assumptions.MMR)
        )
        np.testing.assert_allclose(lo_vals, [-0.2, -0.2], atol=TOL)
        np.testing.assert_allclose(hi_vals, [0.2, 0.4], atol=TOL)

    def test_benchmark_reference0(self, e1_dist):
        res = bounds_mmr(e1_dist, 0)
        assert res.lower == pytest.approx(-0.2, abs=TOL)
        assert res.upper == pytest.approx(0.2, abs=TOL)

    def test_interval_capped_by_margin_difference(self):
        rng = make_rng(23)
        for _ in range(300):
            dist = random_mmr_dist(rng)
            alpha = atm(dist)
            for reference in (0, 1):
                res = bounds_mmr(dist, reference)
                assert res.lower >= -alpha - TOL
                assert res.upper <= alpha + TOL
                assert res.lower <= 0.0 <= res.upper

    def test_negative_margin_difference_flags_incompatible(self):
        dist = from_probabilities([0.1, 0.5, 0.1, 0.3], [0.4, 0.1, 0.4, 0.1])
        assert atm(dist) < 0
        res = bounds_mmr(dist, 1)
        assert res.incompatible
        assert res.diagnostics
        assert "contradicts" in res.diagnostics[0]

    def test_nested_inside_no_assumption(self):
        rng = make_rng(29)
        for _ in range(200):
            dist = random_mmr_dist(rng)
            for reference in (0, 1):
                outer = bounds_no_assumption(dist, reference)
                inner = bounds_mmr(dist, reference)
                assert outer.lower <= inner.lower + TOL
                assert inner.upper <= outer.upper + TOL


class TestSignedMediator:
    def test_benchmark_values(self, e1_dist):
        res = bounds_mmr_pos_mediator(e1_dist)
        assert res.lower == pytest.approx(-0.2, abs=TOL)
        assert res.upper == pytest.approx(0.2, abs=TOL)
        lo_vals, hi_vals = expression_values(
            e1_dist,
            EstimandSpec(reference=1, assumptions=Assumptions.MMR_POS_MEDIATOR),
        )
        np.testing.assert_allclose(lo_vals, [-0.2, -0.3, -0.7, -0.2], atol=TOL)
        np.testing.assert_allclose(hi_vals, [0.2, 1.0, 1.0, 0.4], atol=TOL)

    def test_zero_margin_difference_point_identifies(self, uniform_dist):
        res = bounds_mmr_pos_mediator(uniform_dist)
        assert res.lower == pytest.approx(0.0, abs=TOL)
        assert res.upper == pytest.approx(0.0, abs=TOL)

    def test_reference0_unavailable(self, e1_dist):
        with pytest.raises(ClosedFormUnavailableError):
            bounds_mmr_pos_mediator(e1_dist, reference=0)
        with pytest.raises(ClosedFormUnavailableError):
            anie_expressions(
                EstimandSpec(reference=0, assumptions=Assumptions.MMR_POS_MEDIATOR)
            )
        with pytest.raises(ClosedFormUnavailableError):
            anie_expressions(
                EstimandSpec(
                    reference=1,
                    assumptions=Assumptions.MMR_POS_MEDIATOR,
                    mediator_effect_sign=-1,
                )
            )

    def test_nested_inside_monotone_interval(self):
        rng = make_rng(31)
        for _ in range(100):
            dist = random_mmr_dist(rng)
            outer = bounds_mmr(dist, 1)
            inner = bounds_mmr_pos_mediator(dist)
            assert outer.lower <= inner.lower + 1e-9
            assert inner.upper <= outer.upper + 1e-9

    def test_lp_override_is_sound_and_reported(self):
        # The printed lower expression set is valid but not sharp everywhere;
        # when the LP disagrees the result must switch routes, keep the LP
        # endpoints, stay inside the printed interval, and say what happened.
        spec = EstimandSpec(reference=1, assumptions=Assumptions.MMR_POS_MEDIATOR)
        rng = make_rng(37)
        overrides = 0
        for _ in range(300):
            dist = random_mmr_dist(rng)
            lo_vals, hi_vals = expression_values(dist, spec)
            printed_lower = min(1.0, max(-1.0, max(lo_vals)))
            printed_upper = min(1.0, max(-1.0, min(hi_vals)))
            checked = bounds_mmr_pos_mediator(dist)
            if checked.method is Method.LP:
                overrides += 1
                assert checked.binding_lower is None
                assert checked.diagnostics
                assert "LP values returned" in checked.diagnostics[0]
                assert checked.lower >= printed_lower - 1e-9
                assert checked.upper <= printed_upper + 1e-9
            else:
                assert abs(checked.lower - printed_lower) <= 1e-9
                assert abs(checked.upper - printed_upper) <= 1e-9
        assert overrides > 0, "expected at least one non-sharp printed interval"

    def test_incompatible_skips_lp(self):
        dist = from_probabilities([0.1, 0.5, 0.1, 0.3], [0.4, 0.1, 0.4, 0.1])
        res = bounds_mmr_pos_mediator(dist)
        assert res.incompatible
        assert res.method is Method.CLOSED_FORM
        assert "cross-check skipped" in res.diagnostics[0]


class TestDirectEffect:
    def test_benchmark_direct_effect(self, e1_dist):
        anie = bounds_no_assumption(e1_dist, 1)
        zeta0 = ande_bounds(e1_dist, 0, anie)
        assert zeta0.estimand == "ande"
        assert zeta0.lower == pytest.approx(0.4 - 0.7, abs=TOL)
        assert zeta0.upper == pytest.approx(0.4 + 0.3, abs=TOL)

    def test_point_identified_indirect_gives_ate(self, uniform_dist):
        anie = bounds_mmr(uniform_dist, 1)
        zeta0 = ande_bounds(uniform_dist, 0, anie)
        tau = ate(uniform_dist)
        assert zeta0.lower == pytest.approx(tau, abs=TOL)
        assert zeta0.upper == pytest.approx(tau, abs=TOL)

    def test_binding_indices_swap(self, e1_dist):
        anie = bounds_no_assumption(e1_dist, 0)
        zeta1 = ande_bounds(e1_dist, 1, anie)
        assert zeta1.binding_lower == anie.binding_upper
        assert zeta1.binding_upper == anie.binding_lower

    def test_rejects_mismatched_reference(self, e1_dist):
        anie = bounds_no_assumption(e1_dist, 1)
        with pytest.raises(ConsistencyError):
            ande_bounds(e1_dist, 1, anie)

    def test_rejects_foreign_distribution(self, e1_dist, uniform_dist):
        anie = bounds_no_assumption(uniform_dist, 1)
        with pytest.raises(ConsistencyError):
            ande_bounds(e1_dist, 0, anie)

    def test_rejects_direct_effect_input(self, e1_dist):
        anie = bounds_no_assumption(e1_dist, 1)
        zeta0 = ande_bounds(e1_dist, 0, anie)
        with pytest.raises(ConsistencyError):
            ande_bounds(e1_dist, 1, zeta0)

    def test_decomposition_identity(self):
        rng = make_rng(41)
        for _ in range(100):
            dist = random_dist(rng)
            tau = ate(dist)
            for reference in (0, 1):
                anie = bounds_no_assumption(dist, 1 - reference)
                zeta = ande_bounds(dist, reference, anie)
                assert zeta.lower + anie.upper == pytest.approx(tau, abs=TOL)
                assert zeta.upper + anie.lower == pytest.approx(tau, abs=TOL)


class TestExpressionProperties:
    def test_coefficients_have_length_eight(self):
        for assumptions, reference in (
            (Assumptions.NONE, 0),
            (Assumptions.NONE, 1),
            (Assumptions.MMR, 0),
            (Assumptions.MMR, 1),
            (Assumptions.MMR_POS_MEDIATOR, 1),
        ):
            spec = EstimandSpec(reference=reference, assumptions=assumptions)
            lowers, uppers = anie_expressions(spec)
            for expr in (*lowers, *uppers):
                assert len(expr.coeffs) == 8
                assert expr.label

    def test_expression_counts(self):
        for assumptions, n in (
            (Assumptions.NONE, 3),
            (Assumptions.MMR, 2),
            (Assumptions.MMR_POS_MEDIATOR, 4),
        ):
            lowers, uppers = anie_expressions(
                EstimandSpec(reference=1, assumptions=assumptions)
            )
            assert len(lowers) == n
            assert len(uppers) == n

    def test_value_is_lipschitz_in_cells(self):
        # |c . (x - x')| <= max|c| * ||x - x'||_1, so nearby tables can never
        # produce wildly different expression values.
        rng = make_rng(43)
        spec = EstimandSpec(reference=1, assumptions=Assumptions.NONE)
        lowers, uppers = anie_expressions(spec)
        for _ in range(50):
            a, b = random_dist(rng), random_dist(rng)
            gap = np.abs(a.cell_vector() - b.cell_vector()).sum()
            for expr in (*lowers, *uppers):
                cmax = max(abs(c) for c in expr.coeffs)
                diff = abs(expr.value(a.cell_vector()) - expr.value(b.cell_vector()))
                assert diff <= cmax * gap + TOL

    def test_closed_form_matches_lp(self):
        # Quick dual-route agreement scan; the acceptance suite runs the full
        # thousand-table version of this comparison.
        rng = make_rng(47)
        for _ in range(100):
            dist = random_dist(rng)
            for reference in (0, 1):
                cf = bounds_no_assumption(dist, reference)
                lp = anie_bounds_lp(
                    dist, EstimandSpec(reference=reference, assumptions=Assumptions.NONE)
                )
                assert cf.lower == pytest.approx(lp.lower, abs=1e-9)
                assert cf.upper == pytest.approx(lp.upper, abs=1e-9)

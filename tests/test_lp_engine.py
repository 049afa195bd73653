"""LP construction, the bespoke simplex, and agreement with an external solver."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from mediation_bounds import (
    AssumptionIncompatibilityError,
    Assumptions,
    EstimandSpec,
    Method,
    ValidationError,
    anie_bounds,
    atm,
    from_counts,
    from_probabilities,
)
from mediation_bounds.lp_engine import (
    InfeasibleError,
    LinearProgram,
    Sense,
    StrataDistribution16,
    anie_bounds_lp,
    build_lp,
    cross_world_range,
    format_lp,
    solve,
    strata_index,
)
from conftest import arm_mediator_relabel, highs_optimum, make_rng, random_dist, random_mmr_dist

GOLDEN = Path(__file__).parent / "golden"

ALL_SPECS = [
    EstimandSpec(reference=0, assumptions=Assumptions.NONE),
    EstimandSpec(reference=1, assumptions=Assumptions.NONE),
    EstimandSpec(reference=0, assumptions=Assumptions.MMR),
    EstimandSpec(reference=1, assumptions=Assumptions.MMR),
    EstimandSpec(reference=1, assumptions=Assumptions.MMR_POS_MEDIATOR),
    EstimandSpec(reference=0, assumptions=Assumptions.MMR_POS_MEDIATOR),
    EstimandSpec(reference=1, assumptions=Assumptions.MMR_POS_MEDIATOR, mediator_effect_sign=-1),
]

# sha256 of format_lp's text for every (spec, sense) program on the e1 table,
# keyed by (assumptions, reference, mediator_effect_sign, sense).
PROGRAM_SHA256 = {
    ("none", 0, 1, "MIN"): "d9e71f794ee7a3e73159f45ef42e98403604d4dd64b2e9615d600b19dce02804",
    ("none", 0, 1, "MAX"): "456752a2af4aa639f335e751de8148e9fbd59b06649925005115f6ae7696a718",
    ("none", 1, 1, "MIN"): "7c35feaeaed165963ea2964411359d031078dac70d64970d3bf3abe35eacaa4c",
    ("none", 1, 1, "MAX"): "2e96c08cdf2093d16df27cd9b5a74ec015b9cc1e1b97f3e569d0ffad8efab2f4",
    ("mmr", 0, 1, "MIN"): "083cdcc112f77e62cfdffb8ce3c2f96757ba405b883a47eb90ae7e57ab71019f",
    ("mmr", 0, 1, "MAX"): "d058aec223ae44912c4f7d87ae20130a2baad2f278e2ee1c66ead6e0148ee24d",
    ("mmr", 1, 1, "MIN"): "af5821f05528526440758b12d7ed9def4d5b77508bbe294cef7f34a466c7f8c0",
    ("mmr", 1, 1, "MAX"): "28f1614a00aba1bfc5ebe1064bc5b54ed6815861309e8e22287db298541bef20",
    ("mmr-pos-mediator", 0, 1, "MIN"): "d66126c7b75d19716b4e1ba34c7ade991e546e992b06d05a633f6e202ed224f1",
    ("mmr-pos-mediator", 0, 1, "MAX"): "0eeda8905a9ffcee8bba944fe8896c58968139e7e5c9917e73d633bfd6ccd94f",
    ("mmr-pos-mediator", 1, 1, "MIN"): "f27488f8a5acabd8fa7981b25aa087e2b772f81f16487d4abae50b5c39bef47c",
    ("mmr-pos-mediator", 1, 1, "MAX"): "dbd65fb6e2e100154486c5818a1499ff3dc404e28ecf5feb40083386f8f7bebf",
    ("mmr-pos-mediator", 0, -1, "MIN"): "1c423fe3a6870a1d16e683c08e1e46b4d5d95c87dbd3f2d61281b6a4ffcb7b17",
    ("mmr-pos-mediator", 0, -1, "MAX"): "0ebeac4709502334d0b09aacc282b04f9e9db274baf8b413ec3e3857b221a5a1",
    ("mmr-pos-mediator", 1, -1, "MIN"): "54812cb8ea060fd6d6a8c0b83fca3125ebbe4c96c1cd6e99b445128e9ed05721",
    ("mmr-pos-mediator", 1, -1, "MAX"): "97e4cf2442ffe092af9fb6cef16dfef43fedc8493a70ca9972c81cc81e72eb51",
}


class TestConstruction:
    @pytest.mark.parametrize("reference", [0, 1])
    def test_row_counts(self, e1_dist, reference):
        lp = build_lp(e1_dist, EstimandSpec(reference=reference), Sense.MIN)
        assert len(lp.equalities) == 6  # simplex + 4 joint cells + 1 margin
        assert len(lp.inequalities) == 0

        lp = build_lp(
            e1_dist, EstimandSpec(reference=reference, assumptions=Assumptions.MMR), Sense.MIN
        )
        assert len(lp.equalities) == 10  # + 4 defier-zero rows
        assert len(lp.inequalities) == 0

        lp = build_lp(
            e1_dist,
            EstimandSpec(reference=reference, assumptions=Assumptions.MMR_POS_MEDIATOR),
            Sense.MIN,
        )
        assert len(lp.equalities) == 10
        assert len(lp.inequalities) == 1

    def test_labels_cover_rows(self, e1_dist):
        for spec in ALL_SPECS:
            lp = build_lp(e1_dist, spec, Sense.MAX)
            assert len(lp.row_labels) == len(lp.equalities) + len(lp.inequalities)

    def test_golden_dump(self, e1_dist):
        lp = build_lp(
            e1_dist, EstimandSpec(reference=1, assumptions=Assumptions.MMR), Sense.MIN
        )
        expected = (GOLDEN / "lp_e1_mmr_ref1.txt").read_text()
        assert format_lp(lp) == expected

    @pytest.mark.parametrize("key", sorted(PROGRAM_SHA256), ids=lambda key: "-".join(map(str, key)))
    def test_program_text_is_pinned(self, e1_dist, key):
        assumptions, reference, sign, sense = key
        lp = build_lp(e1_dist, EstimandSpec(reference, Assumptions(assumptions), sign), Sense[sense])
        assert hashlib.sha256(format_lp(lp).encode()).hexdigest() == PROGRAM_SHA256[key]

    def test_program_validation(self):
        good = build_lp(from_counts([25] * 8), EstimandSpec(reference=1), Sense.MIN)
        with pytest.raises(ValidationError):
            LinearProgram(
                objective=good.objective,
                equalities=good.equalities[1:],  # drop the simplex row
                inequalities=(),
                sense=Sense.MIN,
                reference=1,
            )
        with pytest.raises(ValidationError):
            LinearProgram(
                objective=good.objective,
                equalities=good.equalities + ((tuple([1.0] * 16), 1.0),),  # two simplex rows
                inequalities=(),
                sense=Sense.MIN,
                reference=1,
            )
        with pytest.raises(ValidationError):
            LinearProgram(
                objective=good.objective,
                equalities=good.equalities[:5] + ((good.equalities[5][0], 1.5),),
                inequalities=(),
                sense=Sense.MIN,
                reference=1,
            )
        with pytest.raises(ValidationError):
            LinearProgram(
                objective=(1.0,) * 4,
                equalities=good.equalities,
                inequalities=(),
                sense=Sense.MIN,
                reference=1,
            )
        short = (tuple([0.0] * 15), 0.0)
        with pytest.raises(ValidationError, match="^equality rows must have 16 coefficients$"):
            LinearProgram(
                objective=good.objective,
                equalities=good.equalities + (short,),
                inequalities=(),
                sense=Sense.MIN,
                reference=1,
            )
        with pytest.raises(ValidationError, match="^inequality rows must have 16 coefficients$"):
            LinearProgram(
                objective=good.objective,
                equalities=good.equalities,
                inequalities=(short,),
                sense=Sense.MIN,
                reference=1,
            )

    def test_strata_distribution_validation(self):
        psi = np.zeros(16)
        psi[strata_index(1, 0, 1, 0)] = 1.0
        wit = StrataDistribution16(psi=psi, reference=1)
        assert wit.mass(1, 0, 1, 0) == 1.0
        assert wit.defier_mass() == 0.0
        with pytest.raises(ValidationError):
            StrataDistribution16(psi=np.zeros(16), reference=1)  # sums to 0
        bad = psi.copy()
        bad[0] = -0.01
        bad[strata_index(1, 0, 1, 0)] = 1.01
        with pytest.raises(ValidationError):
            StrataDistribution16(psi=bad, reference=1)
        with pytest.raises(ValidationError):
            StrataDistribution16(psi=np.ones(15), reference=1)
        with pytest.raises(ValidationError, match="^reference must be 0 or 1, got 2$"):
            StrataDistribution16(psi=psi, reference=2)


class TestSolve:
    def test_uniform_cross_world_extremes(self, uniform_dist):
        spec = EstimandSpec(reference=1, assumptions=Assumptions.NONE)
        lo, hi, _, _ = cross_world_range(uniform_dist, spec)
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_uniform_bounds(self, uniform_dist):
        res = anie_bounds_lp(uniform_dist, EstimandSpec(reference=1))
        assert res.lower == pytest.approx(-0.5, abs=1e-9)
        assert res.upper == pytest.approx(0.5, abs=1e-9)
        # A front door over the one evaluator: the same result, binding labels included.
        assert res == anie_bounds(uniform_dist, EstimandSpec(reference=1))
        assert res.method is Method.CLOSED_FORM
        assert res.binding_lower == 0

    def test_benchmark_bounds(self, e1_dist):
        for reference in (0, 1):
            res = anie_bounds_lp(e1_dist, EstimandSpec(reference=reference))
            assert res.lower == pytest.approx(-0.3, abs=1e-9)
            assert res.upper == pytest.approx(0.7, abs=1e-9)
        res = anie_bounds_lp(
            e1_dist, EstimandSpec(reference=1, assumptions=Assumptions.MMR)
        )
        assert res.lower == pytest.approx(-0.2, abs=1e-9)
        assert res.upper == pytest.approx(0.2, abs=1e-9)

    def test_point_mass_table(self):
        dist = from_probabilities([1, 0, 0, 0], [0, 0, 0, 1])
        res = anie_bounds_lp(dist, EstimandSpec(reference=1))
        assert res.lower == pytest.approx(0.0, abs=1e-9)
        assert res.upper == pytest.approx(1.0, abs=1e-9)

    def test_witness_satisfies_program(self):
        rng = make_rng(53)
        for _ in range(25):
            dist = random_mmr_dist(rng)
            for spec in ALL_SPECS[:5]:
                for sense in (Sense.MIN, Sense.MAX):
                    lp = build_lp(dist, spec, sense)
                    value, wit = solve(lp)
                    psi = wit.psi
                    for (coeffs, rhs), label in zip(lp.equalities, lp.row_labels):
                        assert abs(float(np.dot(coeffs, psi)) - rhs) <= 1e-9, label
                    for coeffs, rhs in lp.inequalities:
                        assert float(np.dot(coeffs, psi)) >= rhs - 1e-9
                    assert float(np.dot(lp.objective, psi)) == pytest.approx(value, abs=1e-9)
                    assert 0.0 - 1e-9 <= value <= 1.0 + 1e-9

    def test_monotone_witness_has_no_defiers(self, e1_dist):
        spec = EstimandSpec(reference=1, assumptions=Assumptions.MMR)
        _, _, lo_wit, hi_wit = cross_world_range(e1_dist, spec)
        assert lo_wit.defier_mass() == pytest.approx(0.0, abs=1e-9)
        assert hi_wit.defier_mass() == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("sense", list(Sense), ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "assumptions, sign",
        [(Assumptions.MMR, 1), (Assumptions.MMR_POS_MEDIATOR, 1), (Assumptions.MMR_POS_MEDIATOR, -1)],
        ids=["mmr", "mmr-pos-mediator+", "mmr-pos-mediator-"],
    )
    @pytest.mark.parametrize(
        "reference, constraint",
        [(0, "simplex: total mass = 1"), (1, "arm 0 mediator margin P(M=1|A=0)")],
        ids=["ref0", "ref1"],
    )
    def test_infeasible_margins(self, reference, constraint, assumptions, sign, sense):
        # Treated mediator margin 0.2 against control margin 0.5 violates
        # monotonicity of the mediator response; the program must say so.  The
        # residual is |ATM| = 0.3 at either reference.
        dist = from_probabilities([0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.4, 0.1])
        spec = EstimandSpec(reference=reference, assumptions=assumptions, mediator_effect_sign=sign)
        with pytest.raises(InfeasibleError) as exc_info:
            solve(build_lp(dist, spec, sense))
        assert exc_info.value.constraint == constraint
        assert exc_info.value.residual == 0.30000000000000004

    def test_infeasibility_becomes_incompatibility(self):
        dist = from_probabilities([0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.4, 0.1])
        with pytest.raises(AssumptionIncompatibilityError, match="mmr"):
            anie_bounds_lp(dist, EstimandSpec(reference=1, assumptions=Assumptions.MMR))

    def test_no_assumption_program_always_feasible(self):
        # Without cross-arm restrictions any observed table is attainable.
        dist = from_probabilities([0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.4, 0.1])
        res = anie_bounds_lp(dist, EstimandSpec(reference=1))
        assert res.lower <= 0.0 <= res.upper


class TestAgreement:
    def test_matches_external_solver(self):
        rng = make_rng(59)
        for _ in range(60):
            dist = random_mmr_dist(rng)
            for spec in ALL_SPECS:
                for sense in (Sense.MIN, Sense.MAX):
                    lp = build_lp(dist, spec, sense)
                    value, _ = solve(lp)
                    optimum = highs_optimum(lp)
                    assert optimum is not None
                    assert value == pytest.approx(optimum, abs=1e-8)

    def test_matches_external_solver_on_sparse_tables(self):
        # Tables with empty cells exercise degenerate bases.
        rng = make_rng(61)
        for _ in range(40):
            arm0 = rng.multinomial(6, [0.25] * 4) / 6
            arm1 = rng.multinomial(6, [0.25] * 4) / 6
            dist = from_probabilities(arm0, arm1)
            for reference in (0, 1):
                for sense in (Sense.MIN, Sense.MAX):
                    lp = build_lp(dist, EstimandSpec(reference=reference), sense)
                    value, _ = solve(lp)
                    optimum = highs_optimum(lp)
                    assert optimum is not None
                    assert value == pytest.approx(optimum, abs=1e-8)

    def test_assumptions_tighten_monotonically(self):
        rng = make_rng(67)
        for _ in range(50):
            dist = random_mmr_dist(rng)
            base = anie_bounds_lp(dist, EstimandSpec(reference=1))
            mono = anie_bounds_lp(
                dist, EstimandSpec(reference=1, assumptions=Assumptions.MMR)
            )
            signed = anie_bounds_lp(
                dist, EstimandSpec(reference=1, assumptions=Assumptions.MMR_POS_MEDIATOR)
            )
            assert base.lower <= mono.lower + 1e-9
            assert mono.lower <= signed.lower + 1e-9
            assert signed.upper <= mono.upper + 1e-9
            assert mono.upper <= base.upper + 1e-9

    def test_reference_relabelling_symmetry(self):
        # Swapping arms and recoding the mediator turns delta(0) into -delta(1),
        # so the bounds must map onto each other with ends exchanged.
        rng = make_rng(71)
        for _ in range(40):
            dist = random_dist(rng)
            mirrored = arm_mediator_relabel(dist)
            for assumptions in (Assumptions.NONE, Assumptions.MMR):
                if assumptions is Assumptions.MMR and atm(dist) < 0:
                    continue
                try:
                    direct = anie_bounds_lp(
                        dist, EstimandSpec(reference=0, assumptions=assumptions)
                    )
                    swapped = anie_bounds_lp(
                        mirrored, EstimandSpec(reference=1, assumptions=assumptions)
                    )
                except AssumptionIncompatibilityError:
                    continue
                assert swapped.lower == pytest.approx(-direct.upper, abs=1e-9)
                assert swapped.upper == pytest.approx(-direct.lower, abs=1e-9)

    def test_closed_form_equivalence_spot_check(self, e1_dist, uniform_dist):
        # The served closed forms against the simplex optima of the same program.
        for dist in (e1_dist, uniform_dist):
            for reference in (0, 1):
                for assumptions in (Assumptions.NONE, Assumptions.MMR):
                    cf = anie_bounds(dist, EstimandSpec(reference, assumptions))
                    lo, hi, _, _ = cross_world_range(dist, EstimandSpec(reference, assumptions))
                    mean = dist.outcome_mean(reference)
                    lp = (mean - hi, mean - lo) if reference == 1 else (lo - mean, hi - mean)
                    assert cf.lower == pytest.approx(lp[0], abs=1e-12)
                    assert cf.upper == pytest.approx(lp[1], abs=1e-12)

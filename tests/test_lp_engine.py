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
    ("none", 0, 1, "MIN"): "24a3924b0d3d1a8be5cf1a19c9d9cb04d728bbbf78e470f0a898c993039f1bbf",
    ("none", 0, 1, "MAX"): "492464c1309478eea56d1d9d54e449b7bd7eaa40f6bc6fa8fa666891da764fa4",
    ("none", 1, 1, "MIN"): "7e83482321a2b574fe0f5188bc92a5bb4d6c47de6918a3074286e05f2d6603c1",
    ("none", 1, 1, "MAX"): "5822ff62700a2fc6073e39795e52bae197de486e217a2c25a7cb120b6b304a06",
    ("mmr", 0, 1, "MIN"): "67e6f332dce540e9d4417fd83bfdc5575997794cdfc09f56e7e1e9d6c1bcb558",
    ("mmr", 0, 1, "MAX"): "3bb6d5faf19ef61bd1af1aa22b86130b64c287707e465bc1885e9177124eaada",
    ("mmr", 1, 1, "MIN"): "ebf6ef291f3aae0793a52e76189912e3a5914ed3a0e44636b449ca2609dd1f94",
    ("mmr", 1, 1, "MAX"): "c530063f516a9825fc2563a9b4e687fda5d0b801292c716bca17f6f44e72015e",
    ("mmr-pos-mediator", 0, 1, "MIN"): "ab3365bda9bc4eca2811d9996e8892d7531c2434cf188192fa2094b5f226f2a6",
    ("mmr-pos-mediator", 0, 1, "MAX"): "715d896db3e3290bda43a28214fb30ff67305ffc4039d7f30168f941ddede41a",
    ("mmr-pos-mediator", 1, 1, "MIN"): "c558ed18e3410f041189d9c5a926c7c73af4fd1d56df9456d73610bf13fce708",
    ("mmr-pos-mediator", 1, 1, "MAX"): "8a7943da0261f32b354f390d63ae1da70e7d0187cce89fcce040b3ed753ea546",
    ("mmr-pos-mediator", 0, -1, "MIN"): "bf1e86bb2d69cc3fd5fde1706f60c533e1b01507befcf1d86b618e2630b871ae",
    ("mmr-pos-mediator", 0, -1, "MAX"): "74ba31c6189e9279be69826336bc7d9358e7084bc1f924dd6c946d88d9a6253e",
    ("mmr-pos-mediator", 1, -1, "MIN"): "f5197442f89e290b85d26b5a639ac515be848015da5a967573e0122901092000",
    ("mmr-pos-mediator", 1, -1, "MAX"): "34b5bd31aed854520c399672ec0958c9e626740d950ff8d580f54614fa5fba1c",
}


class TestConstruction:
    @pytest.mark.parametrize("reference", [0, 1])
    def test_row_counts(self, e1_dist, reference):
        lp = build_lp(e1_dist, EstimandSpec(reference=reference), Sense.MIN)
        assert len(lp.equalities) == 5  # 4 joint cells + 1 margin
        assert len(lp.inequalities) == 0

        lp = build_lp(
            e1_dist, EstimandSpec(reference=reference, assumptions=Assumptions.MMR), Sense.MIN
        )
        assert len(lp.equalities) == 9  # + 4 defier-zero rows
        assert len(lp.inequalities) == 0

        lp = build_lp(
            e1_dist,
            EstimandSpec(reference=reference, assumptions=Assumptions.MMR_POS_MEDIATOR),
            Sense.MIN,
        )
        assert len(lp.equalities) == 9
        assert len(lp.inequalities) == 1

    @pytest.mark.parametrize(
        "spec",
        [*ALL_SPECS, EstimandSpec(0, Assumptions.MMR_POS_MEDIATOR, -1)],
        ids=lambda s: f"{s.assumptions.value}-ref{s.reference}-sign{s.mediator_effect_sign:+d}",
    )
    def test_equality_rows_have_full_rank(self, e1_dist, spec):
        # solve's drive-out pivots every artificial still basic after phase 1
        # on a structural entry of its row; full row rank guarantees one.
        for sense in Sense:
            rows = np.array([coeffs for coeffs, _ in build_lp(e1_dist, spec, sense).equalities])
            assert np.linalg.matrix_rank(rows) == len(rows)

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
        dependent = (tuple([1.0] * 16), 1.0)  # the sum of the four joint-cell rows
        with pytest.raises(ValidationError, match="^equality rows must be linearly independent$"):
            LinearProgram(
                objective=good.objective,
                equalities=good.equalities + (dependent,),
                inequalities=(),
                sense=Sense.MIN,
                reference=1,
            )
        with pytest.raises(ValidationError):
            LinearProgram(
                objective=good.objective,
                equalities=good.equalities[:4] + ((good.equalities[4][0], 1.5),),
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
        [(0, "arm 0 joint cell (y=1, m=1)"), (1, "arm 0 mediator margin P(M=1|A=0)")],
        ids=["ref0", "ref1"],
    )
    def test_infeasible_margins(self, reference, constraint, assumptions, sign, sense):
        # Treated mediator margin 0.2 against control margin 0.5 violates
        # monotonicity of the mediator response; the program must say so.  The
        # report carries the phase-1 optimum, |ATM| = 0.3 at either reference,
        # as anie_bounds prints it, and names the row holding its largest part.
        dist = from_probabilities([0.25, 0.25, 0.25, 0.25], [0.4, 0.1, 0.4, 0.1])
        spec = EstimandSpec(reference=reference, assumptions=assumptions, mediator_effect_sign=sign)
        with pytest.raises(InfeasibleError) as exc_info:
            solve(build_lp(dist, spec, sense))
        assert exc_info.value.constraint == constraint
        assert exc_info.value.residual == 0.30000000000000004
        assert "(phase-1 residual 0.3);" in anie_bounds(dist, spec).diagnostics[0]

    def test_tiny_negative_mediator_ate_is_feasible_at_both_references(self):
        # ATM = -7.5e-10: the phase-1 optimum max(0, -ATM) is below FEAS_TOL at
        # either reference, so the simplex finds every restricted program
        # feasible, and anie_bounds flags every restricted spec through its
        # crossing clause, the interval crossing by 1.5e-9 > ORDER_TOL.
        e = 7.5e-10
        dist = from_probabilities([0.25] * 4, [0.25 + e / 2, 0.25 - e / 2, 0.25 + e / 2, 0.25 - e / 2])
        assert atm(dist) == pytest.approx(-e, rel=1e-6)
        restricted = ((Assumptions.MMR, 1), (Assumptions.MMR_POS_MEDIATOR, 1), (Assumptions.MMR_POS_MEDIATOR, -1))
        for reference in (0, 1):
            for assumptions, sign in restricted:
                spec = EstimandSpec(reference, assumptions, sign)
                for sense in Sense:
                    solve(build_lp(dist, spec, sense))
                res = anie_bounds(dist, spec)
                assert res.incompatible, spec
                assert res.lower == pytest.approx(e, rel=1e-6) and res.upper == -res.lower, spec
                assert "(phase-1 residual 7.5e-10)" in res.diagnostics[0]

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

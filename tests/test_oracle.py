"""Ground-truth machinery: populations, exact effects, soundness and sharpness."""

from fractions import Fraction

import numpy as np
import pytest

from mediation_bounds import (
    Assumptions,
    EstimandSpec,
    ValidationError,
    ate,
    atm,
    from_counts,
    from_units,
)
from mediation_bounds.lp_engine import (
    LinearProgram,
    Sense,
    build_lp,
    cross_world_range,
)
from mediation_bounds.oracle import (
    FullPopulation64,
    extend_witness,
    iot_blindspot_population,
    observed_from_population,
    random_population,
    sample_records,
    sharpness_check,
    soundness_check,
    strata16_from_population,
    strata_proportions,
    true_estimands,
)
from mediation_bounds import lp_engine
from conftest import make_rng

ID_TOL = 1e-12


def point_mass(y11, y10, y01, y00, m1, m0) -> FullPopulation64:
    q = np.zeros((2,) * 6)
    q[y11, y10, y01, y00, m1, m0] = 1.0
    return FullPopulation64(q=q)


def delta1_by_strata(pop: FullPopulation64) -> float:
    """Indirect effect recomputed cell by cell from stratum membership.

    delta(1) moves only through units whose mediator responds: compliers
    contribute Y(1,1) - Y(1,0), defiers the negative of that.
    """
    total = 0.0
    for y11 in (0, 1):
        for y10 in (0, 1):
            for y01 in (0, 1):
                for y00 in (0, 1):
                    mass_c = pop.q[y11, y10, y01, y00, 1, 0]
                    mass_d = pop.q[y11, y10, y01, y00, 0, 1]
                    total += (mass_c - mass_d) * (y11 - y10)
    return total


def reference_gap(pop: FullPopulation64, reference: int) -> float:
    """E[Y(ref, 1) - Y(ref, 0)], read off the law's (y11, y10, y01, y00) axes."""
    keep = (0, 1) if reference == 1 else (2, 3)
    q = pop.q.sum(axis=tuple(i for i in range(6) if i not in keep))  # [Y(ref, 1), Y(ref, 0)]
    return q[1, 0] - q[0, 1]


def program_rows(reference: int):
    """``build_lp``'s rows at ``reference`` as arrays over the 16 strata, picked by label.

    Returns the objective, the reference arm's joint-cell rows [y, m], the
    opposite arm's mediator-margin row, the sum of the no-defier rows and
    the sign row at each sign.  Only right-hand sides read the data.
    """
    dist = from_counts([1] * 8)

    def rows(assumptions, sign=1):
        lp = build_lp(dist, EstimandSpec(reference, assumptions, sign), Sense.MIN)
        labelled = zip(lp.row_labels, lp.equalities + lp.inequalities)
        return {"objective": np.array(lp.objective), **{label: np.array(coeffs) for label, (coeffs, _) in labelled}}

    base = rows(Assumptions.NONE)
    cells = np.array([[base[f"arm {reference} joint cell (y={y}, m={m})"] for m in (0, 1)] for y in (0, 1)])
    (margin,) = (row for label, row in base.items() if label.startswith(f"arm {1 - reference} mediator margin"))
    defiers = sum((row for label, row in rows(Assumptions.MMR).items() if label.startswith("no mediator defiers")),
                  np.zeros(16))
    signs = {
        sign: rows(Assumptions.MMR_POS_MEDIATOR, sign)[f"mediator effect on arm-{reference} outcome has sign {sign:+d}"]
        for sign in (1, -1)
    }
    return base["objective"], cells, margin, defiers, signs


class TestExactEffects:
    def test_point_mass_complier(self):
        pop = point_mass(1, 1, 0, 0, 1, 0)
        te = true_estimands(pop)
        assert te.tau == 1.0
        assert te.alpha == 1.0
        assert te.delta(1) == 0.0
        assert te.delta(0) == 0.0
        assert te.zeta(1) == 1.0
        dist = observed_from_population(pop)
        assert dist.prob(1, 1, 1) == 1.0
        assert dist.prob(0, 0, 0) == 1.0

    def test_unresponsive_mediator_kills_indirect_effect(self):
        # Only always-takers and never-takers: M(1) = M(0) pointwise, so both
        # indirect effects vanish no matter what the outcomes do.
        q = np.zeros((2,) * 6)
        q[1, 0, 0, 1, 1, 1] = 0.5
        q[0, 1, 1, 0, 0, 0] = 0.5
        pop = FullPopulation64(q=q)
        te = true_estimands(pop)
        assert te.delta(1) == 0.0
        assert te.delta(0) == 0.0

    def test_uniform_population_induces_uniform_cells(self):
        pop = FullPopulation64(q=np.full((2,) * 6, 1 / 64))
        dist = observed_from_population(pop)
        np.testing.assert_allclose(dist.cells, np.full(8, 0.25), atol=ID_TOL)

    def test_margin_difference_is_complier_minus_defier_share(self):
        rng = make_rng(73)
        for _ in range(200):
            pop = random_population(rng)
            rho = strata_proportions(pop)
            te = true_estimands(pop)
            assert rho.shape == (2, 2)
            assert rho.sum() == pytest.approx(1.0, abs=ID_TOL)
            assert te.alpha == pytest.approx(rho[1, 0] - rho[0, 1], abs=ID_TOL)
            dist = observed_from_population(pop)
            assert atm(dist) == pytest.approx(te.alpha, abs=ID_TOL)
            assert ate(dist) == pytest.approx(te.tau, abs=ID_TOL)

    def test_effect_decomposition(self):
        rng = make_rng(79)
        for _ in range(200):
            te = true_estimands(random_population(rng))
            assert te.tau == pytest.approx(te.delta(1) + te.zeta(0), abs=ID_TOL)
            assert te.tau == pytest.approx(te.delta(0) + te.zeta(1), abs=ID_TOL)

    def test_indirect_effect_matches_stratum_expansion(self):
        rng = make_rng(83)
        for _ in range(50):
            pop = random_population(rng)
            assert true_estimands(pop).delta(1) == pytest.approx(
                delta1_by_strata(pop), abs=ID_TOL
            )

    def test_monotone_population_product_rule(self):
        # With no defiers the indirect effect factors into the complier share
        # times the mean mediator effect among compliers.
        rng = make_rng(89)
        for _ in range(50):
            pop = random_population(rng, Assumptions.MMR)
            rho = strata_proportions(pop)
            assert rho[0, 1] == 0.0
            comp = pop.q[:, :, :, :, 1, 0]
            if comp.sum() <= 0:
                continue
            y11_grid, y10_grid = np.indices((2,) * 4)[:2]
            uplift = (comp * (y11_grid - y10_grid)).sum() / comp.sum()
            te = true_estimands(pop)
            assert te.delta(1) == pytest.approx(rho[1, 0] * uplift, abs=ID_TOL)


class TestStrataBridge:
    def test_marginalization_reproduces_cross_world_mean(self):
        rng = make_rng(97)
        for reference in (0, 1):
            for _ in range(25):
                pop = random_population(rng)
                dist = observed_from_population(pop)
                psi = strata16_from_population(pop, reference)
                lp = build_lp(dist, EstimandSpec(reference=reference), Sense.MIN)
                value = float(np.dot(lp.objective, psi.psi))
                te = true_estimands(pop)
                if reference == 1:
                    expected = dist.outcome_mean(1) - te.delta(1)
                else:
                    expected = dist.outcome_mean(0) + te.delta(0)
                assert value == pytest.approx(expected, abs=ID_TOL)

    def test_marginalization_satisfies_program_rows(self):
        rng = make_rng(101)
        for reference in (0, 1):
            pop = random_population(rng)
            dist = observed_from_population(pop)
            psi = strata16_from_population(pop, reference)
            lp = build_lp(dist, EstimandSpec(reference=reference), Sense.MIN)
            for (coeffs, rhs), label in zip(lp.equalities, lp.row_labels):
                assert float(np.dot(coeffs, psi.psi)) == pytest.approx(rhs, abs=1e-10), label

    # A fair-coin fill of the opposite arm's outcomes gets some opposite-arm
    # cell of each of these tables wrong; the last two have an arm with no
    # units at M=1, where any fill reproduces the cells.
    EXTENSION_TABLES = {
        "e1": [40, 30, 20, 10, 10, 20, 30, 40],
        "digits": [3, 1, 4, 1, 5, 9, 2, 6],
        "arm 0 without M=1": [3, 0, 4, 0, 5, 9, 2, 6],
        "arm 1 without M=1": [3, 1, 4, 1, 5, 0, 2, 0],
    }

    @pytest.mark.parametrize("table", EXTENSION_TABLES)
    def test_witness_extension_round_trip(self, table):
        dist = from_counts(self.EXTENSION_TABLES[table])
        for reference in (0, 1):
            spec = EstimandSpec(reference=reference)
            _, _, wit, _ = cross_world_range(dist, spec)
            pop = extend_witness(wit, dist)
            back = strata16_from_population(pop, reference)
            np.testing.assert_allclose(back.psi, wit.psi, atol=ID_TOL)

    @pytest.mark.parametrize("table", EXTENSION_TABLES)
    def test_witness_extension_preserves_observables(self, table):
        dist = from_counts(self.EXTENSION_TABLES[table])
        for reference in (0, 1):
            spec = EstimandSpec(reference=reference)
            _, _, wit_min, wit_max = cross_world_range(dist, spec)
            for wit in (wit_min, wit_max):
                induced = observed_from_population(extend_witness(wit, dist))
                np.testing.assert_allclose(induced.cells, dist.cells, atol=1e-9)

    # The full-law program and the 16-stratum one have the same optimum: the
    # lift maps each feasible stratum law to a full law that reproduces the
    # eight cells with the same delta(ref), defier mass and sign row, and the
    # marginal maps each full law to a stratum law that satisfies the
    # program's rows with the same values.  Both maps are linear (the lift
    # for a fixed table), so checking them on unit laws proves them.  Each
    # arm of these tables has 16 units and each of its mediator groups 0, 8
    # or 16, so every fill rate is dyadic and the float arithmetic is exact;
    # the last two fill the arm without units at M=1 with a fair coin.
    LIFT_TABLES = [[3, 5, 5, 3, 2, 6, 6, 2], [3, 0, 13, 0, 2, 2, 6, 6], [2, 2, 6, 6, 3, 0, 13, 0]]

    @pytest.mark.parametrize("counts", LIFT_TABLES, ids=str)
    def test_lift_of_each_unit_witness_is_exact(self, counts):
        dist = from_counts(counts)
        for reference in (0, 1):
            objective, cells, margin, defiers, signs = program_rows(reference)
            opposite = np.array(counts[4 * (1 - reference) : 8 - 4 * reference]).reshape(2, 2)  # [y, m]
            with_m = opposite.sum(axis=0)
            rate = [[Fraction(int(opposite[y, m]), int(with_m[m])) if with_m[m] else Fraction(1, 2) for m in (0, 1)]
                    for y in (0, 1)]
            for s in range(16):
                pop = extend_witness(lp_engine.StrataDistribution16(np.eye(16)[s], reference), dist)
                induced = observed_from_population(pop).cells.reshape(2, 2, 2)  # [a, y, m]
                assert induced[reference].tolist() == cells[:, :, s].tolist()
                at_m = (1 - margin[s], margin[s])  # [M(1-ref) = m]
                assert induced[1 - reference].tolist() == [[at_m[m] * float(rate[y][m]) for m in (0, 1)] for y in (0, 1)]
                delta = (2 * reference - 1) * (cells[1, :, s].sum() - objective[s])
                assert true_estimands(pop).delta(reference) == delta
                assert strata_proportions(pop)[0, 1] == defiers[s]
                for sign in (1, -1):
                    assert sign * reference_gap(pop, reference) == signs[sign][s]

    def test_marginal_of_each_unit_law_is_exact(self):
        for reference in (0, 1):
            objective, cells, margin, defiers, signs = program_rows(reference)
            for index in np.ndindex((2,) * 6):
                pop = point_mass(*index)
                psi = strata16_from_population(pop, reference).psi
                assert sorted(psi.tolist()) == [0.0] * 15 + [1.0]
                induced = observed_from_population(pop).cells.reshape(2, 2, 2)  # [a, y, m]
                assert induced[reference].tolist() == (cells @ psi).tolist()
                assert induced[1 - reference, :, 1].sum() == margin @ psi
                delta = (2 * reference - 1) * (cells[1].sum(axis=0) - objective) @ psi
                assert true_estimands(pop).delta(reference) == delta
                assert strata_proportions(pop)[0, 1] == defiers @ psi
                for sign in (1, -1):
                    assert sign * reference_gap(pop, reference) == signs[sign] @ psi


class TestRandomPopulations:
    def test_population_validation(self):
        with pytest.raises(ValidationError):
            FullPopulation64(q=np.zeros((2,) * 6))
        with pytest.raises(ValidationError):
            FullPopulation64(q=np.full((2,) * 5, 1 / 32))
        bad = np.full((2,) * 6, 1 / 64)
        bad[0, 0, 0, 0, 0, 0] = -1 / 64
        bad[1, 1, 1, 1, 1, 1] += 2 / 64
        with pytest.raises(ValidationError):
            FullPopulation64(q=bad)

    def test_assumption_support(self):
        rng = make_rng(103)
        for _ in range(50):
            pop = random_population(rng, Assumptions.MMR)
            assert pop.q[:, :, :, :, 0, 1].sum() == 0.0
        for sign in (1, -1):
            for _ in range(50):
                pop = random_population(
                    rng, Assumptions.MMR_POS_MEDIATOR, mediator_effect_sign=sign
                )
                assert pop.q[:, :, :, :, 0, 1].sum() == 0.0
                grid = np.indices((2,) * 6)
                gap = float((pop.q * (grid[0] - grid[1])).sum())
                assert sign * gap >= 0.0

    # Each was read as another population: "none" (a str, not the member) as
    # MMR, a sign of 0 or 0.5 as no sign restriction, reference 2 as 0.
    @pytest.mark.parametrize(
        "args",
        [
            {"assumptions": "none"},
            {"assumptions": "mmr-pos-mediator"},
            {"assumptions": Assumptions.MMR_POS_MEDIATOR, "mediator_effect_sign": 0},
            {"assumptions": Assumptions.MMR_POS_MEDIATOR, "mediator_effect_sign": 0.5},
            {"assumptions": Assumptions.MMR_POS_MEDIATOR, "mediator_effect_sign": True},
            {"reference": 2},
            {"reference": 1.0},
            {"reference": True},
        ],
    )
    def test_arguments_are_checked_as_a_spec(self, args):
        with pytest.raises(ValidationError):
            random_population(make_rng(113), **args)

    def test_soundness_sample(self):
        rng = make_rng(107)
        cases = [
            (Assumptions.NONE, 1),
            (Assumptions.NONE, 0),
            (Assumptions.MMR, 1),
            (Assumptions.MMR, 0),
            (Assumptions.MMR_POS_MEDIATOR, 1),
        ]
        for assumptions, reference in cases:
            spec = EstimandSpec(reference=reference, assumptions=assumptions)
            for _ in range(60):
                pop = random_population(rng, assumptions, reference=reference)
                assert soundness_check(pop, spec)
        for reference in (1, 0):
            spec = EstimandSpec(reference, Assumptions.MMR_POS_MEDIATOR, -1)
            for _ in range(60):
                pop = random_population(rng, Assumptions.MMR_POS_MEDIATOR, -1, reference)
                assert soundness_check(pop, spec)

    def test_sharpness_sample(self):
        rng = make_rng(109)
        for assumptions in (Assumptions.NONE, Assumptions.MMR, Assumptions.MMR_POS_MEDIATOR):
            for _ in range(20):
                pop = random_population(rng, assumptions)
                dist = observed_from_population(pop)
                for reference in (0, 1):
                    spec = EstimandSpec(reference=reference, assumptions=assumptions)
                    assert sharpness_check(dist, spec)
        for _ in range(20):
            dist = observed_from_population(random_population(rng, Assumptions.MMR_POS_MEDIATOR, -1))
            for reference in (0, 1):
                assert sharpness_check(dist, EstimandSpec(reference, Assumptions.MMR_POS_MEDIATOR, -1))

    @pytest.mark.parametrize("reference", [0, 1])
    def test_sharpness_of_an_infeasible_program_raises_infeasible_error(self, reference):
        # A negative mediator ATE contradicts MMR: the program has no feasible point.
        dist = from_counts([10, 20, 30, 40, 40, 30, 20, 10])
        spec = EstimandSpec(reference=reference, assumptions=Assumptions.MMR)
        with pytest.raises(lp_engine.InfeasibleError):
            sharpness_check(dist, spec)


class TestWitnessAssumptions:
    """``sharpness_check`` checks each witness against the assumption set, not only the program."""

    @staticmethod
    def _dropping(prefix):
        # build_lp without the rows whose labels start with ``prefix``.
        build = lp_engine.build_lp

        def patched(dist, spec, sense):
            lp = build(dist, spec, sense)
            n_eq = len(lp.equalities)
            keep = [i for i, label in enumerate(lp.row_labels) if not label.startswith(prefix)]
            return LinearProgram(
                objective=lp.objective,
                equalities=tuple(lp.equalities[i] for i in keep if i < n_eq),
                inequalities=tuple(lp.inequalities[i - n_eq] for i in keep if i >= n_eq),
                sense=lp.sense,
                reference=lp.reference,
                row_labels=tuple(lp.row_labels[i] for i in keep),
            )

        return patched

    @pytest.mark.parametrize("reference", [0, 1])
    @pytest.mark.parametrize(
        "assumptions, sign, prefix",
        [
            (Assumptions.MMR, 1, "no mediator defiers"),
            (Assumptions.MMR_POS_MEDIATOR, 1, "no mediator defiers"),
            (Assumptions.MMR_POS_MEDIATOR, 1, "mediator effect"),
            (Assumptions.MMR_POS_MEDIATOR, -1, "mediator effect"),
        ],
    )
    def test_a_dropped_constraint_row_fails(self, monkeypatch, e1_dist, reference, assumptions, sign, prefix):
        spec = EstimandSpec(reference, assumptions, sign)
        assert sharpness_check(e1_dist, spec)
        monkeypatch.setattr(lp_engine, "build_lp", self._dropping(prefix))
        assert not sharpness_check(e1_dist, spec)


class TestWitnessChecks:
    """Each witness check of ``sharpness_check`` refuses the wrong witness that only it can catch."""

    E1 = (40, 30, 20, 10, 10, 20, 30, 40)
    ASSUMPTIONS = [Assumptions.NONE, Assumptions.MMR, Assumptions.MMR_POS_MEDIATOR]

    @staticmethod
    def _swapped(counts, arm):
        # The (y=0, m=0) and (y=0, m=1) counts of ``arm`` traded: its cells and
        # mediator margin move, its outcome mean stays.
        out = list(counts)
        out[4 * arm], out[4 * arm + 1] = out[4 * arm + 1], out[4 * arm]
        return from_counts(out)

    # Another table's witnesses and optima: with the reference arm's cells or
    # the opposite arm's mediator margin changed, only the cell check fails
    # them.  The outcome mean is the same, so the optima still match the
    # witnesses' true effects.
    @pytest.mark.parametrize("reference", [0, 1])
    @pytest.mark.parametrize("assumptions", ASSUMPTIONS)
    @pytest.mark.parametrize("changed", ["reference-arm cells", "opposite-arm margin"])
    def test_another_tables_witnesses_fail(self, monkeypatch, reference, assumptions, changed):
        spec = EstimandSpec(reference, assumptions)
        dist = from_counts(self.E1)
        other = self._swapped(self.E1, reference if changed == "reference-arm cells" else 1 - reference)
        assert sharpness_check(dist, spec) and sharpness_check(other, spec)
        real = lp_engine.cross_world_range
        monkeypatch.setattr(lp_engine, "cross_world_range", lambda _dist, spec: real(other, spec))
        assert not sharpness_check(dist, spec)

    # The right witnesses, with one optimum moved: only the effect check fails them.
    @pytest.mark.parametrize("reference", [0, 1])
    @pytest.mark.parametrize("assumptions", ASSUMPTIONS)
    @pytest.mark.parametrize("moved", [(1e-6, 0.0), (0.0, -1e-6)], ids=["min", "max"])
    def test_a_moved_endpoint_fails(self, monkeypatch, reference, assumptions, moved):
        spec = EstimandSpec(reference, assumptions)
        dist = from_counts(self.E1)
        assert sharpness_check(dist, spec)
        lo, hi, wit_lo, wit_hi = lp_engine.cross_world_range(dist, spec)
        monkeypatch.setattr(
            lp_engine, "cross_world_range", lambda _dist, _spec: (lo + moved[0], hi + moved[1], wit_lo, wit_hi)
        )
        assert not sharpness_check(dist, spec)


class TestSampling:
    def test_rejects_empty_draw(self):
        pop = iot_blindspot_population()
        with pytest.raises(ValidationError):
            sample_records(pop, 0, seed=1)

    # seed=True was read as seed 1, and a float or bool arm size raised TypeError.
    @pytest.mark.parametrize("n_per_arm, seed", [(200, True), (200, 1.0), (200, "1"), (2.0, 11), (True, 11)])
    def test_arm_size_and_seed_must_be_integers(self, n_per_arm, seed):
        with pytest.raises(ValidationError, match="n_per_arm and seed must be integers"):
            sample_records(iot_blindspot_population(), n_per_arm, seed)

    # numpy's generator raised a bare ValueError that did not name the seed.
    @pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2**70)])
    def test_negative_seed_is_refused(self, seed):
        with pytest.raises(ValidationError, match=f"seed must be nonnegative, got {int(seed)}"):
            sample_records(iot_blindspot_population(), 10, seed)

    def test_seeds_past_64_bits_draw(self):
        pop = iot_blindspot_population()
        for seed in (2**64 - 1, 2**64, 2**200):
            rec = sample_records(pop, 50, seed)
            assert rec.shape == (100, 3) and np.array_equal(rec, sample_records(pop, 50, seed))
        assert not np.array_equal(sample_records(pop, 200, 2**64), sample_records(pop, 200, 2**64 + 1))

    def test_numpy_integers_draw_as_python_ints(self):
        pop = iot_blindspot_population()
        assert np.array_equal(sample_records(pop, np.int32(200), np.uint64(11)), sample_records(pop, 200, 11))

    def test_point_mass_is_deterministic(self):
        pop = point_mass(1, 1, 0, 0, 1, 0)
        rec = sample_records(pop, 50, seed=5)
        assert rec.shape == (100, 3)
        treated = rec[:50]
        control = rec[50:]
        assert (treated == np.array([1, 1, 1], dtype=np.uint8)).all()
        assert (control == np.array([0, 0, 0], dtype=np.uint8)).all()

    def test_seed_reproducibility(self):
        pop = iot_blindspot_population()
        a = sample_records(pop, 200, seed=11)
        b = sample_records(pop, 200, seed=11)
        c = sample_records(pop, 200, seed=12)
        assert (a == b).all()
        assert (a != c).any()

    @staticmethod
    def _hand_decoded(pop, n_per_arm, seed):
        # The 64-cell index decoded bit by bit, axes (y11, y10, y01, y00, m1, m0)
        # from the most significant bit down.
        rng = np.random.default_rng(seed)
        flat = pop.q.reshape(64)
        flat = flat / flat.sum()
        out = np.empty((2 * n_per_arm, 3), dtype=np.uint8)
        for a, sl in ((1, slice(0, n_per_arm)), (0, slice(n_per_arm, 2 * n_per_arm))):
            draws = rng.choice(64, size=n_per_arm, p=flat)
            y11, y10, y01, y00, m1, m0 = ((draws >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
            m = m1 if a == 1 else m0
            y = np.where(m == 1, y11, y10) if a == 1 else np.where(m == 1, y01, y00)
            out[sl] = np.column_stack([np.full(n_per_arm, a), m, y])
        return out

    # perfbench's inference_mc pool is drawn by sample_records, so its records
    # must not change with the way the index is decoded.
    def test_records_match_the_bitwise_decode(self):
        rng = make_rng(41)
        pops = [iot_blindspot_population(), point_mass(1, 0, 1, 0, 1, 0)]
        pops += [random_population(rng, assumptions) for assumptions in Assumptions]
        for pop in pops:
            for n_per_arm, seed in ((1, 0), (37, 5), (2000, 123)):
                got = sample_records(pop, n_per_arm, seed)
                assert got.dtype == np.uint8
                assert np.array_equal(got, self._hand_decoded(pop, n_per_arm, seed))

    def test_empirical_cells_concentrate(self):
        pop = iot_blindspot_population()
        n = 100_000
        dist = from_units(sample_records(pop, n, seed=13))
        target = observed_from_population(pop)
        gap = np.abs(dist.cells - target.cells).max()
        assert gap <= 4 / np.sqrt(n)


class TestBlindspot:
    def test_shipped_population_hides_from_margin_tests(self):
        pop = iot_blindspot_population()
        te = true_estimands(pop)
        assert te.alpha == 0.0
        assert te.delta(1) == pytest.approx(0.6, abs=ID_TOL)
        assert abs(te.delta(1)) >= 0.2

    def test_shipped_population_is_sound(self):
        pop = iot_blindspot_population()
        spec = EstimandSpec(reference=1, assumptions=Assumptions.NONE)
        assert soundness_check(pop, spec)

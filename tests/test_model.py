"""Construction, validation, and point identities of the observed-data model."""

import ast
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mediation_bounds
from mediation_bounds import (
    Assumptions,
    BoundsResult,
    EmptyArmError,
    EstimandSpec,
    Method,
    ObservedDistribution,
    ValidationError,
    ate,
    atm,
    from_counts,
    from_probabilities,
    from_units,
)
from mediation_bounds.lp_engine import StrataDistribution16
from mediation_bounds.model import MAX_TOTAL, as_cell_counts
from mediation_bounds.oracle import FullPopulation64
from conftest import make_rng, random_dist


class TestConstruction:
    def test_uniform_counts(self, uniform_dist):
        assert uniform_dist.n0 == 100
        assert uniform_dist.n1 == 100
        for a in (0, 1):
            for y in (0, 1):
                for m in (0, 1):
                    assert uniform_dist.prob(y, m, a) == 0.25

    def test_benchmark_cells(self, e1_dist):
        assert e1_dist.prob(0, 0, 1) == pytest.approx(0.1, abs=1e-15)
        assert e1_dist.prob(0, 1, 1) == pytest.approx(0.2, abs=1e-15)
        assert e1_dist.prob(1, 0, 1) == pytest.approx(0.3, abs=1e-15)
        assert e1_dist.prob(1, 1, 1) == pytest.approx(0.4, abs=1e-15)
        assert e1_dist.prob(0, 0, 0) == pytest.approx(0.4, abs=1e-15)
        assert e1_dist.prob(1, 1, 0) == pytest.approx(0.1, abs=1e-15)
        assert e1_dist.n1 == 100
        assert e1_dist.n0 == 100

    def test_empty_arm_rejected(self):
        with pytest.raises(EmptyArmError):
            from_counts([0, 0, 0, 0, 10, 20, 30, 40])
        with pytest.raises(EmptyArmError):
            from_counts([10, 20, 30, 40, 0, 0, 0, 0])
        with pytest.raises(EmptyArmError):
            from_units([])

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            from_counts([1] * 7)
        with pytest.raises(ValidationError):
            from_counts([1, 1, 1, 1, 1, 1, 1, -1])
        with pytest.raises(ValidationError):
            from_counts([1.5, 1, 1, 1, 1, 1, 1, 1])
        with pytest.raises(ValidationError):
            from_counts([True] * 8)

    def test_total_bound(self):
        dist = from_counts([MAX_TOTAL - 7, 1, 1, 1, 1, 1, 1, 1])
        assert dist.n0 + dist.n1 == MAX_TOTAL == 2**53
        over = [MAX_TOTAL - 6, 1, 1, 1, 1, 1, 1, 1]  # a total of 2**53 + 1
        for counts in (over, np.array(over), np.array([2**63, 1, 1, 1, 1, 1, 1, 1], dtype=np.uint64)):
            with pytest.raises(ValidationError, match=r"at most 2\*\*53"):
                from_counts(counts)
        with pytest.raises(ValidationError):  # beyond uint64, so an object array
            from_counts([10**20] + [1] * 7)

    def test_two_records_single_cell_mass(self):
        dist = from_units([(1, 0, 1), (0, 1, 0)])
        assert dist.prob(1, 0, 1) == 1.0
        assert dist.prob(0, 1, 0) == 1.0
        assert dist.n1 == 1
        assert dist.n0 == 1

    def test_balanced_records_give_uniform(self, uniform_dist):
        records = [(a, m, y) for a in (0, 1) for m in (0, 1) for y in (0, 1)] * 25
        assert from_units(records) == uniform_dist

    def test_units_match_counts(self):
        rng = make_rng(11)
        for _ in range(20):
            counts = [int(c) for c in rng.integers(0, 30, size=8)]
            counts[0] += 1
            counts[4] += 1
            records = []
            for a in (0, 1):
                for y in (0, 1):
                    for m in (0, 1):
                        records += [(a, m, y)] * counts[4 * a + 2 * y + m]
            rng.shuffle(records)
            assert from_units(records) == from_counts(counts)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValidationError):
            from_units([(0, 0, 2)])
        with pytest.raises(ValidationError):
            from_units([(0, 0, 0.5)])
        for intake in (from_units, as_cell_counts):
            with pytest.raises(ValidationError, match=r"^record values must be 0 or 1, got -1$"):
                intake(np.array([[0, 0, -1]]))

    def test_float_records_of_0_and_1_count_as_ints_do(self):
        records = [(1, 0, 1), (0, 1, 0), (1, 1, 1), (0, 0, 0), (0, 0, 1)]
        for floats in (np.array(records, dtype=float), [tuple(map(float, r)) for r in records]):
            assert as_cell_counts(floats).tolist() == as_cell_counts(records).tolist()
            assert from_units(floats) == from_units(records)
        # A float that is not 0 or 1 fails the float check, which names no value.
        for intake in (from_units, as_cell_counts):
            with pytest.raises(ValidationError, match=r"^record values must be 0 or 1$"):
                intake(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]]))

    def test_cell_counts_from_counts_or_records(self):
        counts = np.array([3, 0, 2, 1, 0, 4, 1, 1], dtype=np.int32)
        assert as_cell_counts(counts).dtype == np.int64
        assert as_cell_counts(counts).tolist() == counts.tolist()
        records = [(a, m, y) for a in (0, 1) for y in (0, 1) for m in (0, 1) for _ in range(counts[4 * a + 2 * y + m])]
        assert as_cell_counts(records).tolist() == counts.tolist()
        assert as_cell_counts(np.array(records)).tolist() == counts.tolist()
        assert as_cell_counts(counts.tolist()).tolist() == counts.tolist()
        assert as_cell_counts(tuple(counts.tolist())).tolist() == counts.tolist()
        with pytest.raises(ValidationError):
            as_cell_counts(np.array([3, 0, 2, -1, 0, 4, 1, 1]))
        # Not two-dimensional, so counts, and non-integer counts are rejected.
        for bad in (counts.astype(float), counts.astype(bool), iter(counts.tolist()), iter(records)):
            with pytest.raises(ValidationError):
                as_cell_counts(bad)

    def test_record_array_shape(self):
        assert as_cell_counts([(1, 0, 1), (0, 1, 0)]).tolist() == [0, 1, 0, 0, 0, 0, 1, 0]
        for intake in (from_units, as_cell_counts):
            with pytest.raises(ValidationError, match=r"^record array must have shape \(n, 3\), got \(3, 2\)$"):
                intake(np.zeros((3, 2), dtype=int))

    def test_probability_validation(self):
        with pytest.raises(ValidationError):
            from_probabilities([0.3, 0.3, 0.3, 0.3], [0.25] * 4)
        with pytest.raises(ValidationError):
            from_probabilities([-0.1, 0.5, 0.3, 0.3], [0.25] * 4)
        with pytest.raises(ValidationError):
            ObservedDistribution(np.full((2, 2, 2), 0.25))
        with pytest.raises(ValidationError, match=r"must each have 4 cell probabilities, got shape \(2, 3\)$"):
            from_probabilities([0.5, 0.25, 0.25], [0.25, 0.25, 0.5])

    # A NaN compares false with everything, so a check written as "x < lo"
    # or "|sum - 1| > tol" lets it through; each probability vector refuses it.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_probability_vectors_reject_non_finite_entries(self, bad):
        cells = np.full(8, 0.25)
        psi = np.full(16, 1 / 16)
        q = np.full((2,) * 6, 1 / 64)
        ObservedDistribution(cells)  # each vector is valid before its first entry is replaced
        StrataDistribution16(psi, reference=1)
        FullPopulation64(q)
        cells[0] = psi[0] = q[(0,) * 6] = bad
        with pytest.raises(ValidationError):
            ObservedDistribution(cells)
        with pytest.raises(ValidationError):
            StrataDistribution16(psi, reference=1)
        with pytest.raises(ValidationError):
            FullPopulation64(q)
        with pytest.raises(ValidationError):
            from_probabilities([bad, 0, 0, 1], [0.25] * 4)

    # Each vector keeps its own bounds and tolerance.
    def test_probability_vectors_keep_their_own_limits(self):
        StrataDistribution16(np.r_[-1e-10, 1 + 1e-10, np.zeros(14)], reference=1)  # within FEAS_TOL
        with pytest.raises(ValidationError):
            StrataDistribution16(np.r_[-1e-8, 1 + 1e-8, np.zeros(14)], reference=1)
        with pytest.raises(ValidationError):
            ObservedDistribution(np.r_[-1e-13, 1 + 1e-13, 0, 0, np.full(4, 0.25)])
        with pytest.raises(ValidationError):
            ObservedDistribution(np.r_[1 - 1e-11, 0, 0, 0, np.full(4, 0.25)])  # beyond SIMPLEX_TOL
        with pytest.raises(ValidationError):
            FullPopulation64(np.r_[-1e-13, 1 + 1e-13, np.zeros(62)].reshape((2,) * 6))

    # Arm sizes feed inference and the fingerprint; the stratum distribution's
    # reference arm follows EstimandSpec's rule, so 1.0 and True are refused.
    @pytest.mark.parametrize("n1, n0", [(float("nan"), 2), (3, 2.5), (True, 2), (3, np.float64(2)), (-1, 2), (3, -2)])
    def test_arm_sizes_must_be_nonnegative_integers(self, n1, n0):
        with pytest.raises(ValidationError, match="arm sizes"):
            ObservedDistribution(np.full(8, 0.25), n1=n1, n0=n0)

    @pytest.mark.parametrize("reference", [1.0, True, np.float64(0)])
    def test_stratum_reference_refused_as_the_spec_refuses_it(self, reference):
        with pytest.raises(ValidationError, match="must be integers"):
            EstimandSpec(reference=reference)
        with pytest.raises(ValidationError, match="must be an integer"):
            StrataDistribution16(np.full(16, 1 / 16), reference=reference)

    def test_integer_fields_are_stored_as_python_ints(self):
        dist = ObservedDistribution(np.full(8, 0.25), n1=np.int64(3), n0=np.uint32(2))
        assert (type(dist.n1), type(dist.n0), dist.fingerprint()[-2:]) == (int, int, (3, 2))
        assert type(StrataDistribution16(np.full(16, 1 / 16), reference=np.int8(1)).reference) is int

    def test_cells_are_read_only(self, uniform_dist):
        with pytest.raises(ValueError):
            uniform_dist.cells[0] = 0.5

    def test_cells_are_copied_at_construction(self):
        source = np.full(8, 0.25)
        dist = ObservedDistribution(source)
        source[0] = 1.0
        assert dist.cells[0] == 0.25

    def test_cells_and_fingerprint_are_computed_once(self, e1_dist):
        vec = e1_dist.cells
        assert e1_dist.fingerprint() is e1_dist.fingerprint()
        assert e1_dist.fingerprint() == tuple(float(v) for v in vec) + (100, 100)
        for view in (vec, e1_dist.arm(0), e1_dist.arm(1)):
            with pytest.raises(ValueError):
                view[0] = 0.5
        np.testing.assert_array_equal(np.concatenate([e1_dist.arm(0), e1_dist.arm(1)]), vec)
        for a in (0, 1):
            for y in (0, 1):
                for m in (0, 1):
                    assert e1_dist.prob(y, m, a) == vec[4 * a + 2 * y + m]

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.int64, 8, elements=st.integers(0, MAX_TOTAL // 8)),
        st.sampled_from([lambda c: c, lambda c: c.astype(np.uint64), lambda c: c.tolist(), lambda c: tuple(c.tolist())]),
    )
    def test_cells_are_exact_count_ratios(self, counts, form):
        counts[0] += counts[:4].sum() == 0
        counts[4] += counts[4:].sum() == 0
        vals = counts.tolist()
        assert sum(vals) <= MAX_TOTAL
        dist = from_counts(form(counts))
        n0, n1 = sum(vals[:4]), sum(vals[4:])
        assert (dist.n0, dist.n1) == (n0, n1)
        for i, v in enumerate(vals):
            assert dist.cells[i] == v / (n0 if i < 4 else n1)  # Python int division, correctly rounded
        assert dist.fingerprint() == tuple(dist.cells.tolist()) + (n1, n0)


class TestAccessors:
    def test_cells_order(self, e1_dist):
        vec = e1_dist.cells
        np.testing.assert_allclose(vec[:4], [0.4, 0.3, 0.2, 0.1], atol=1e-15)
        np.testing.assert_allclose(vec[4:], [0.1, 0.2, 0.3, 0.4], atol=1e-15)

    def test_margins(self, e1_dist):
        assert e1_dist.mediator_margin(1) == pytest.approx(0.6, abs=1e-12)
        assert e1_dist.mediator_margin(0) == pytest.approx(0.4, abs=1e-12)
        assert e1_dist.outcome_mean(1) == pytest.approx(0.7, abs=1e-12)
        assert e1_dist.outcome_mean(0) == pytest.approx(0.3, abs=1e-12)

    def test_ate_atm_benchmark(self, e1_dist, uniform_dist):
        assert ate(e1_dist) == pytest.approx(0.4, abs=1e-12)
        assert atm(e1_dist) == pytest.approx(0.2, abs=1e-12)
        assert ate(uniform_dist) == 0.0
        assert atm(uniform_dist) == 0.0

    def test_equality_tracks_arm_sizes(self, uniform_dist):
        twin = from_counts([25] * 8)
        assert twin == uniform_dist
        bigger = from_counts([50] * 8)
        assert bigger != uniform_dist
        assert uniform_dist != "not a distribution"

    def test_fingerprint_distinguishes(self, uniform_dist, e1_dist):
        assert uniform_dist.fingerprint() == from_counts([25] * 8).fingerprint()
        assert uniform_dist.fingerprint() != e1_dist.fingerprint()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_effects_bounded_by_one(self, seed):
        dist = random_dist(make_rng(seed))
        assert -1.0 <= ate(dist) <= 1.0
        assert -1.0 <= atm(dist) <= 1.0


class TestSpecAndResult:
    def test_spec_validation(self):
        EstimandSpec(reference=0, assumptions=Assumptions.MMR)
        with pytest.raises(ValidationError):
            EstimandSpec(reference=2)
        with pytest.raises(ValidationError):
            EstimandSpec(reference=1, assumptions="mmr")
        with pytest.raises(ValidationError):
            EstimandSpec(reference=1, mediator_effect_sign=0)

    # 1.0 == 1, so a float would pass a membership test and reach code that
    # indexes with it; spec fields must be integers and are stored as ints.
    @pytest.mark.parametrize("fields", [{"reference": 1.0}, {"reference": 0.0}, {"mediator_effect_sign": -1.0},
                                        {"reference": "1"}, {"reference": None}, {"reference": True},
                                        {"mediator_effect_sign": True}])
    def test_spec_fields_must_be_integers(self, fields):
        with pytest.raises(ValidationError, match="must be integers"):
            EstimandSpec(**{"reference": 1, **fields})

    def test_spec_stores_python_ints(self):
        spec = EstimandSpec(reference=np.int64(0), mediator_effect_sign=np.int8(-1))
        assert (type(spec.reference), type(spec.mediator_effect_sign)) == (int, int)
        assert spec == EstimandSpec(reference=0, mediator_effect_sign=-1)

    def test_crossed_interval_needs_flag(self):
        spec = EstimandSpec(reference=1, assumptions=Assumptions.MMR)
        with pytest.raises(ValidationError):
            BoundsResult(
                lower=0.3, upper=0.1, binding_lower=0, binding_upper=0,
                spec=spec, method=Method.CLOSED_FORM,
            )
        flagged = BoundsResult(
            lower=0.3, upper=0.1, binding_lower=0, binding_upper=0,
            spec=spec, method=Method.CLOSED_FORM, incompatible=True,
        )
        assert flagged.width() == pytest.approx(-0.2)

    def test_no_assumption_interval_must_cover_zero(self):
        spec = EstimandSpec(reference=1, assumptions=Assumptions.NONE)
        with pytest.raises(ValidationError):
            BoundsResult(
                lower=0.05, upper=0.4, binding_lower=0, binding_upper=0,
                spec=spec, method=Method.CLOSED_FORM,
            )

    def test_estimand_is_anie_or_ande(self):
        with pytest.raises(ValidationError, match="^estimand must be 'anie' or 'ande', got 'x'$"):
            BoundsResult(
                lower=-0.2, upper=0.2, binding_lower=0, binding_upper=0,
                spec=EstimandSpec(reference=1), method=Method.CLOSED_FORM, estimand="x",
            )

    def test_result_range_check(self):
        spec = EstimandSpec(reference=1)
        with pytest.raises(ValidationError):
            BoundsResult(
                lower=-1.5, upper=0.5, binding_lower=0, binding_upper=0,
                spec=spec, method=Method.CLOSED_FORM,
            )

    def test_contains_and_width(self):
        spec = EstimandSpec(reference=1, assumptions=Assumptions.MMR)
        res = BoundsResult(
            lower=-0.2, upper=0.2, binding_lower=0, binding_upper=0,
            spec=spec, method=Method.CLOSED_FORM,
        )
        assert res.width() == pytest.approx(0.4)
        assert res.contains(0.0)
        assert res.contains(0.2)
        assert not res.contains(0.25)


class TestTolerancesHaveOneHome:
    def test_count_limit_named_only_in_model(self):
        # The count rule lives in model._checked_counts; a module that names
        # MAX_TOTAL is checking counts a second time.
        found = []
        for path in sorted(Path(mediation_bounds.__file__).parent.glob("*.py")):
            if path.name == "model.py":
                continue
            with open(path, "rb") as fh:
                for tok in tokenize.tokenize(fh.readline):
                    if tok.type == tokenize.NAME and tok.string == "MAX_TOTAL":
                        found.append(f"{path.name}:{tok.start[0]}")
        assert found == []

    def test_integer_rule_only_in_checked_ints(self):
        # model._checked_ints is the one integer check; an operator.index
        # anywhere else is a second copy of the rule.
        found = []
        for path in sorted(Path(mediation_bounds.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            # ast.walk reaches a nested function after its parent, so the innermost one wins.
            owner = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for node in ast.walk(f)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "operator":
                    found.append(f"{path.name}: from operator import")
                if isinstance(node, ast.Attribute) and node.attr == "index" and getattr(node.value, "id", None) == "operator":
                    found.append(f"{path.name}:{owner.get(id(node))}")
        assert found == ["model.py:_checked_ints"]

    def test_no_tolerance_literal_outside_model(self):
        # model.py names each tolerance with the decision it governs; a small
        # float literal anywhere else is an unnamed tolerance.  Comments and
        # docstrings are not number tokens, so they may quote the values.
        found = []
        for path in sorted(Path(mediation_bounds.__file__).parent.glob("*.py")):
            if path.name == "model.py":
                continue
            with open(path, "rb") as fh:
                for tok in tokenize.tokenize(fh.readline):
                    if tok.type != tokenize.NUMBER:
                        continue
                    value = ast.literal_eval(tok.string)
                    if isinstance(value, float) and 0 < value < 1e-6:
                        found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
        assert found == []

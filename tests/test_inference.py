"""Estimation layer: Wald tests, covariance, and intersection-bounds intervals."""

import numpy as np
import pytest

from mediation_bounds import (
    Assumptions,
    EstimandSpec,
    InferenceConfig,
    InsufficientDataError,
    ValidationError,
    anie_bounds,
    anie_expressions,
    ate_test,
    bounds_mmr,
    clr_bounds,
    estimate_distribution,
    from_units,
    iot_test,
    observed_from_population,
    sample_records,
    iot_blindspot_population,
    true_estimands,
)
from mediation_bounds.inference import SideDiagnostics, _one_side
from conftest import calibration_population, make_rng, unique_binding_population

Z975 = 1.959963984540054


def uniform_records():
    return [(a, m, y) for a in (0, 1) for m in (0, 1) for y in (0, 1)] * 25


def margin_records(n1: int, p1: float, n0: int, p0: float):
    """Records with the given mediator margins and all-zero outcomes."""
    rows = []
    k1 = round(n1 * p1)
    k0 = round(n0 * p0)
    rows += [(1, 1, 0)] * k1 + [(1, 0, 0)] * (n1 - k1)
    rows += [(0, 1, 0)] * k0 + [(0, 0, 0)] * (n0 - k0)
    return rows


def expand(counts, rng):
    """Unit records holding the given cell counts, in random order."""
    cells = np.array([(a, m, y) for a in (0, 1) for y in (0, 1) for m in (0, 1)], dtype=np.uint8)
    records = np.repeat(cells, counts, axis=0)
    return records[rng.permutation(len(records))]


def random_tables(rng, count):
    """Count vectors whose arms hold 2 to 40 units, often with empty cells."""
    tables = []
    for _ in range(count):
        table = []
        for n in rng.choice([2, 3, 7, 40], size=2):
            p = rng.dirichlet(np.ones(4)) * (rng.random(4) > 0.3)
            table += rng.multinomial(n, p / p.sum() if p.sum() else np.full(4, 0.25)).tolist()
        tables.append(np.array(table, dtype=np.int64))
    return tables


class TestCountsAndRecordsAgree:
    SPECS = [EstimandSpec(r, a) for r in (0, 1) for a in (Assumptions.NONE, Assumptions.MMR)] + [
        EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR)
    ]

    def test_same_results_from_counts_and_records(self):
        rng = make_rng(211)
        config = InferenceConfig(draws=200, seed=5)
        tables = random_tables(rng, 60)
        # The tables exercise the smoothing path and the smallest arms allowed.
        assert sum((t == 0).any() for t in tables) >= 30
        assert sum(t[:4].sum() == 2 or t[4:].sum() == 2 for t in tables) >= 20
        for counts in tables:
            records = expand(counts, rng)
            # The counts as a list and as a tuple, and the records as a list of triples.
            forms = (records, counts.tolist(), tuple(counts.tolist()), records.tolist())
            for spec in self.SPECS:
                want = clr_bounds(counts, spec, config)
                assert all(clr_bounds(data, spec, config) == want for data in forms)
            dist, cov = estimate_distribution(counts)
            for data in forms:
                dist_r, cov_r = estimate_distribution(data)
                assert dist == dist_r
                assert np.array_equal(cov, cov_r)
            treated = records[:, 0] == 1
            for test, column in ((iot_test, 1), (ate_test, 2)):
                result = test(counts, config)
                assert all(test(data, config) == result for data in forms)
                # The count arithmetic matches the difference of record means exactly.
                p1, p0 = records[treated, column].mean(), records[~treated, column].mean()
                assert result.estimate == float(p1 - p0)
                assert result.se == float(np.sqrt(p1 * (1 - p1) / treated.sum() + p0 * (1 - p0) / (~treated).sum()))

    def test_counts_are_validated(self):
        with pytest.raises(InsufficientDataError):
            clr_bounds(np.array([1, 0, 0, 0, 2, 0, 0, 0]), EstimandSpec(reference=1))
        with pytest.raises(InsufficientDataError):
            ate_test(np.array([1, 0, 0, 0, 2, 0, 0, 0]))
        with pytest.raises(ValidationError):
            iot_test(np.array([3, 0, 0, -1, 2, 0, 0, 0]))

    # The int64 arm sums of the first overflow; float and bool counts are not counts.
    @pytest.mark.parametrize(
        "data",
        [
            np.array([2**62, 2**62, 2**62, 2**62 + 10, 30, 20, 10, 40]),
            np.array([10.0, 20.0, 30.0, 40.0, 10.0, 20.0, 30.0, 40.0]),
            np.array([True, False, True, True, True, False, True, True]),
        ],
        ids=["overflow", "float", "bool"],
    )
    def test_bad_counts_are_rejected(self, data):
        config = InferenceConfig(draws=200)
        for call in (
            lambda: ate_test(data, config),
            lambda: iot_test(data, config),
            lambda: clr_bounds(data, EstimandSpec(reference=1), config),
            lambda: estimate_distribution(data),
        ):
            with pytest.raises(ValidationError):
                call()


class TestCovariance:
    def test_uniform_cell_covariance(self):
        dist, cov = estimate_distribution(uniform_records())
        assert dist.n1 == dist.n0 == 100
        for i in range(8):
            assert cov[i, i] == pytest.approx(0.001875, abs=1e-15)
        for a in (0, 1):
            block = cov[4 * a : 4 * a + 4, 4 * a : 4 * a + 4]
            off = block[~np.eye(4, dtype=bool)]
            np.testing.assert_allclose(off, -0.000625, atol=1e-15)
        assert np.all(cov[:4, 4:] == 0.0)
        assert np.all(cov[4:, :4] == 0.0)

    def test_block_rows_sum_to_zero(self):
        # Each arm's cell frequencies sum to one, so every covariance row within
        # a block must sum to zero exactly.
        rng = make_rng(113)
        records = sample_records(calibration_population(), 500, seed=3)
        _, cov = estimate_distribution(records)
        np.testing.assert_allclose(cov[:4, :4].sum(axis=1), 0.0, atol=1e-18)
        np.testing.assert_allclose(cov[4:, 4:].sum(axis=1), 0.0, atol=1e-18)

    def test_degenerate_arm_has_zero_block(self):
        records = [(0, 0, 0)] * 50 + [(1, m, y) for m in (0, 1) for y in (0, 1)] * 10
        dist, cov = estimate_distribution(records)
        assert np.all(cov[:4, :4] == 0.0)
        assert dist.prob(0, 0, 0) == 1.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            estimate_distribution([(0, 0, 0), (1, 0, 0)])


class TestWaldTests:
    def test_mediator_margin_arithmetic(self):
        res = iot_test(margin_records(1000, 0.7, 1000, 0.4))
        se = np.sqrt(0.7 * 0.3 / 1000 + 0.4 * 0.6 / 1000)
        assert res.estimate == pytest.approx(0.3, abs=1e-12)
        assert res.se == pytest.approx(se, abs=1e-12)
        assert res.ci[0] == pytest.approx(0.3 - Z975 * se, abs=1e-9)
        assert res.ci[1] == pytest.approx(0.3 + Z975 * se, abs=1e-9)

    def test_identical_margins_give_zero(self):
        res = iot_test(margin_records(500, 0.4, 500, 0.4))
        assert res.estimate == pytest.approx(0.0, abs=1e-12)
        assert res.ci[0] < 0.0 < res.ci[1]

    def test_outcome_ate(self):
        records = [(1, 0, 1)] * 70 + [(1, 0, 0)] * 30 + [(0, 0, 1)] * 30 + [(0, 0, 0)] * 70
        res = ate_test(records)
        assert res.estimate == pytest.approx(0.4, abs=1e-12)
        assert res.se == pytest.approx(np.sqrt(2 * 0.7 * 0.3 / 100), abs=1e-12)

    def test_alpha_controls_width(self):
        records = margin_records(400, 0.6, 400, 0.3)
        narrow = iot_test(records, InferenceConfig(alpha=0.32))
        wide = iot_test(records, InferenceConfig(alpha=0.01))
        assert wide.ci[0] < narrow.ci[0] < narrow.ci[1] < wide.ci[1]

    def test_insufficient_arm(self):
        with pytest.raises(InsufficientDataError):
            iot_test([(1, 0, 0), (0, 0, 0), (0, 1, 0)])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            InferenceConfig(alpha=0.0)
        with pytest.raises(ValidationError):
            InferenceConfig(alpha=1.0)
        with pytest.raises(ValidationError):
            InferenceConfig(draws=50)
        with pytest.raises(ValidationError):
            InferenceConfig(seed=-1)
        with pytest.raises(ValidationError):
            InferenceConfig(selection_slack=-0.1)


class TestIntervalEstimation:
    SPEC = EstimandSpec(reference=1, assumptions=Assumptions.MMR)

    def test_bit_reproducible(self):
        records = sample_records(calibration_population(), 1000, seed=21)
        config = InferenceConfig(seed=77)
        assert clr_bounds(records, self.SPEC, config) == clr_bounds(records, self.SPEC, config)

    def test_seed_changes_critical_values(self):
        records = sample_records(calibration_population(), 1000, seed=21)
        a = clr_bounds(records, self.SPEC, InferenceConfig(seed=1, draws=500))
        b = clr_bounds(records, self.SPEC, InferenceConfig(seed=2, draws=500))
        assert a.upper_diagnostics.k_ci != b.upper_diagnostics.k_ci

    def test_ci_brackets_hmu_estimates(self):
        records = sample_records(calibration_population(), 1000, seed=22)
        res = clr_bounds(records, self.SPEC)
        assert res.ci_lower <= res.bound_lower_hmu
        assert res.ci_upper >= res.bound_upper_hmu
        assert not res.crossed
        for diag in (res.lower_diagnostics, res.upper_diagnostics):
            assert diag.k_ci >= diag.k_half
            assert diag.selected

    def test_expression_estimates_match_plugin_values(self):
        records = sample_records(calibration_population(), 2000, seed=23)
        dist, _ = estimate_distribution(records)
        res = clr_bounds(records, self.SPEC)
        plugin = bounds_mmr(dist, 1)
        est_lo = max(e.estimate for e in res.lower_expressions)
        est_hi = min(e.estimate for e in res.upper_expressions)
        assert est_lo == pytest.approx(plugin.lower, abs=1e-12)
        assert est_hi == pytest.approx(plugin.upper, abs=1e-12)

    def test_consistency_at_large_n(self):
        # Half a million records per arm: the HMU endpoints must sit within
        # 0.01 of the population-sharp interval [-0.10, 0.30].
        pop = calibration_population()
        records = sample_records(pop, 500_000, seed=29)
        res = clr_bounds(records, self.SPEC)
        assert res.bound_lower_hmu == pytest.approx(-0.10, abs=0.01)
        assert res.bound_upper_hmu == pytest.approx(0.30, abs=0.01)

    def test_critical_value_stable_in_draws(self):
        # Deterministic given the fixed seeds: a tail quantile from 1e4 draws
        # carries Monte Carlo error of roughly the tolerance itself, so the
        # claim is about this corpus, not arbitrary seeds.
        records = sample_records(calibration_population(), 1000, seed=34)
        coarse = clr_bounds(records, self.SPEC, InferenceConfig(draws=10_000, seed=22))
        fine = clr_bounds(records, self.SPEC, InferenceConfig(draws=100_000, seed=101))
        for side in ("lower_diagnostics", "upper_diagnostics"):
            assert abs(getattr(coarse, side).k_ci - getattr(fine, side).k_ci) < 0.02
            assert abs(getattr(coarse, side).k_half - getattr(fine, side).k_half) < 0.02

    def test_single_surviving_expression_reduces_to_normal(self):
        # When selection keeps exactly one expression the simulated max is one
        # studentized normal, so k(1 - alpha/2) is the usual z value.
        records = sample_records(unique_binding_population(), 1000, seed=37)
        res = clr_bounds(records, self.SPEC, InferenceConfig(draws=100_000, seed=9))
        assert res.upper_diagnostics.selected == (0,)
        assert res.lower_diagnostics.selected == (1,)
        assert res.upper_diagnostics.k_ci == pytest.approx(Z975, abs=0.05)
        assert abs(res.upper_diagnostics.k_half) < 0.02
        atm_expr = res.upper_expressions[0]
        assert res.ci_upper == pytest.approx(
            atm_expr.estimate + res.upper_diagnostics.k_ci * atm_expr.se, abs=1e-12
        )

    def test_smoothing_flags_degenerate_arm(self):
        records = [(0, 0, 0)] * 40 + [(1, m, y) for m in (0, 1) for y in (0, 1)] * 10
        res = clr_bounds(records, EstimandSpec(reference=1))
        assert 0 in res.smoothed_arms
        assert 1 not in res.smoothed_arms

    def test_no_smoothing_when_all_cells_filled(self):
        records = sample_records(calibration_population(), 2000, seed=41)
        res = clr_bounds(records, self.SPEC)
        assert res.smoothed_arms == ()

    def test_serves_every_spec(self):
        # The CLR target is the sharp set the point bounds are evaluated from.
        records = sample_records(calibration_population(), 100, seed=43)
        dist = from_units(records)
        for reference in (0, 1):
            for sign in (1, -1):
                spec = EstimandSpec(reference, Assumptions.MMR_POS_MEDIATOR, sign)
                res = clr_bounds(records, spec)
                lowers, uppers = anie_expressions(spec)
                assert [e.label for e in res.lower_expressions] == [e.label for e in lowers]
                assert [e.label for e in res.upper_expressions] == [e.label for e in uppers]
                bounds = anie_bounds(dist, spec)
                assert max(e.estimate for e in res.lower_expressions) == pytest.approx(bounds.lower, abs=1e-12)
                assert min(e.estimate for e in res.upper_expressions) == pytest.approx(bounds.upper, abs=1e-12)

    def test_zero_variance_expression_sidelined(self):
        rng = make_rng(127)
        devs = rng.standard_normal((2000, 2)) * np.array([0.02, 1e-15])
        est = np.array([0.30, 0.50])
        se = np.array([0.02, 0.0])
        hmu, ci, diag = _one_side(est, se, devs, side=+1, n=2000, alpha=0.05, slack=2.0)
        assert isinstance(diag, SideDiagnostics)
        assert diag.zero_variance == (1,)
        assert 0 in diag.selected
        assert ci >= hmu

    def test_endpoints_are_not_clamped_to_the_parameter_space(self):
        res = clr_bounds(np.array([1, 2, 1, 1, 3, 1, 0, 1]), EstimandSpec(reference=0))
        assert res.ci_upper == pytest.approx(1.1327, abs=1e-4)
        assert res.ci_upper > 1.0

    def test_small_sample_coverage(self):
        # Light version of the calibration study: nominal 95% interval for the
        # identified set should cover the true effect nearly always because the
        # truth is strictly interior.
        pop = unique_binding_population()
        truth = true_estimands(pop).delta(1)
        hits = 0
        reps = 120
        for rep in range(reps):
            records = sample_records(pop, 1000, seed=1000 + rep)
            res = clr_bounds(records, self.SPEC, InferenceConfig(seed=rep))
            hits += res.ci_lower <= truth <= res.ci_upper
        assert hits / reps >= 0.90


class TestBlindspotStory:
    def test_margin_test_misses_what_bounds_catch(self):
        # In the shipped adversarial population the mediator ATE is exactly
        # zero, so the margin-based screen reports nothing; the no-assumption
        # interval still reaches up to the true indirect effect 0.6.
        pop = iot_blindspot_population()
        records = sample_records(pop, 2000, seed=47)
        margin = iot_test(records)
        assert margin.ci[0] < 0.0 < margin.ci[1]
        outcome = ate_test(records)
        assert outcome.ci[0] > 0.0  # the outcome effect itself is unmistakable
        res = clr_bounds(records, EstimandSpec(reference=1))
        truth = true_estimands(pop).delta(1)
        assert truth == pytest.approx(0.6, abs=1e-12)
        assert res.ci_upper >= truth - 0.05
        assert not res.crossed

    def test_interval_estimate_matches_population_bounds(self):
        pop = iot_blindspot_population()
        dist = observed_from_population(pop)
        records = sample_records(pop, 200_000, seed=53)
        res = clr_bounds(records, EstimandSpec(reference=1))
        from mediation_bounds import bounds_no_assumption

        sharp = bounds_no_assumption(dist, 1)
        assert res.bound_lower_hmu == pytest.approx(sharp.lower, abs=0.01)
        assert res.bound_upper_hmu == pytest.approx(sharp.upper, abs=0.01)

"""Estimation layer: Wald tests, covariance, and intersection-bounds intervals."""

import dataclasses
from fractions import Fraction

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
    clr_bounds,
    from_counts,
    from_units,
    iot_test,
)
from mediation_bounds.oracle import (
    observed_from_population,
    sample_records,
    iot_blindspot_population,
    true_estimands,
)
from mediation_bounds.inference import SideDiagnostics, _min_sides, _quantiles, _simulation, estimate_distribution
from mediation_bounds.model import _ZERO_SE_TOL
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

    # Ragged sequences: numpy's own error would be a bare ValueError.
    @pytest.mark.parametrize(
        "call, data",
        [
            (from_counts, [[1, 2], [3]]),
            (from_units, [(0, 1, 1), (1, 0)]),
            (ate_test, [(0, 1, 1), (1, 0)]),
            (iot_test, [[1, 2], [3]]),
            (lambda data: clr_bounds(data, EstimandSpec(reference=1)), [[1, 2], [3]]),
            (estimate_distribution, [(0, 1, 1), (1, 0)]),
        ],
        ids=["from_counts", "from_units", "ate_test", "iot_test", "clr_bounds", "estimate_distribution"],
    )
    def test_ragged_input_is_rejected(self, call, data):
        with pytest.raises(ValidationError, match="ragged"):
            call(data)


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
        # The draws cap is checked on the config alone; nothing is simulated here.
        # A bool is not an integer: seed=True would be read as seed 1.
        for bad in (dict(seed=1.5), dict(seed=-0.5), dict(draws=150.5), dict(seed=2**64), dict(draws=1_000_001),
                    dict(draws=np.int64(10**12)), dict(seed=True), dict(seed=np.True_)):
            with pytest.raises(ValidationError):
                InferenceConfig(**bad)
        numpy_config = InferenceConfig(draws=np.int64(200), seed=np.uint64(2**64 - 1))
        assert (type(numpy_config.draws), type(numpy_config.seed)) == (int, int)
        assert numpy_config == InferenceConfig(draws=200, seed=2**64 - 1)
        assert InferenceConfig(draws=1_000_000).draws == 1_000_000

    # A str or None used to escape as the comparison's TypeError; a bool was read as 1 or 0.
    @pytest.mark.parametrize("alpha", ["0.05", None, True, np.True_, 0.05j, [0.05]])
    def test_alpha_must_be_real(self, alpha):
        with pytest.raises(ValidationError, match="alpha must be a real number"):
            InferenceConfig(alpha=alpha)

    @pytest.mark.parametrize(
        "alpha", [float("nan"), float("inf"), -float("inf"), 0, 1, -0.5, 10**400,
                  Fraction(10**20 - 1, 10**20), Fraction(1, 10**400), np.float64(1.0)]
    )
    def test_alpha_must_lie_strictly_between_0_and_1(self, alpha):
        with pytest.raises(ValidationError, match=r"alpha must be in \(0, 1\)"):
            InferenceConfig(alpha=alpha)

    @pytest.mark.parametrize("alpha", [np.float64(0.05), np.float32(0.25), Fraction(1, 20), np.longdouble(0.1)])
    def test_alpha_is_stored_as_a_python_float(self, alpha):
        config = InferenceConfig(alpha=alpha)
        assert type(config.alpha) is float
        assert config.alpha == float(alpha)


# The eight (assumption set, reference, sign) specs: the sign matters only under MMR_POS_MEDIATOR.
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


def fields_of(result):
    return [getattr(result, f.name) for f in dataclasses.fields(result)]


def cold(data, spec, config):
    _simulation.cache_clear()
    return clr_bounds(data, spec, config)


class TestSharedSimulation:
    """clr_bounds keeps the last table's simulation and reuses it across specs."""

    COUNTS = np.array([40, 30, 20, 10, 10, 20, 30, 40])
    OTHER = np.array([12, 6, 8, 31, 4, 33, 2, 0])

    def test_warm_calls_equal_cold_calls(self):
        assert len(set(ALL_SPECS)) == 8
        config = InferenceConfig(draws=500, seed=11)
        records = expand(self.COUNTS, make_rng(5))
        for data in (self.COUNTS, records):
            want = [cold(data, spec, config) for spec in ALL_SPECS]
            _simulation.cache_clear()
            got = [clr_bounds(data, spec, config) for spec in ALL_SPECS]
            info = _simulation.cache_info()
            assert (info.hits, info.misses) == (len(ALL_SPECS) - 1, 1)
            for g, w in zip(got, want):
                assert fields_of(g) == fields_of(w)

    def test_a_changed_table_or_seed_is_never_served_stale(self):
        spec = EstimandSpec(1, Assumptions.MMR)
        configs = {s: InferenceConfig(draws=300, seed=s) for s in (3, 4)}
        calls = [(self.COUNTS, 3), (self.OTHER, 3), (self.COUNTS, 3), (self.COUNTS, 4), (self.COUNTS, 3)]
        want = [cold(counts, spec, configs[seed]) for counts, seed in calls]
        _simulation.cache_clear()
        got = [clr_bounds(counts, spec, configs[seed]) for counts, seed in calls]
        assert got == want
        assert got[0] != got[1] and got[0] != got[3]
        # The draws are part of the key too.
        assert clr_bounds(self.COUNTS, spec, InferenceConfig(draws=301, seed=3)) == cold(
            self.COUNTS, spec, InferenceConfig(draws=301, seed=3)
        )

    def test_numpy_integers_match_python_ints(self):
        spec = EstimandSpec(0, Assumptions.MMR_POS_MEDIATOR)
        want = cold(self.COUNTS, spec, InferenceConfig(draws=400, seed=2**64 - 1))
        numpy_config = InferenceConfig(draws=np.int64(400), seed=np.uint64(2**64 - 1))
        assert cold(self.COUNTS, spec, numpy_config) == want
        assert clr_bounds(self.COUNTS, spec, numpy_config) == want
        assert clr_bounds(self.COUNTS.astype(np.uint16), spec, InferenceConfig(draws=400, seed=2**64 - 1)) == want

    def test_cached_arrays_are_read_only(self):
        clr_bounds(self.OTHER, EstimandSpec(1), InferenceConfig(draws=200, seed=1))
        dist, cov, smoothed_arms, cell_devs = _simulation(tuple(self.OTHER.tolist()), 1, 200)
        assert _simulation.cache_info().hits >= 1
        assert smoothed_arms == (1,)
        for array in (dist.cells, cov, cell_devs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_stacked_quantiles_equal_per_side_quantiles(self):
        rng = make_rng(331)
        alpha = 0.1
        for trial in range(40):
            draws = int(rng.choice([100, 777]))
            sides = []
            for k in rng.integers(1, 6, size=2):
                se = rng.uniform(0.01, 0.2, size=k) * (rng.random(k) > 0.3)
                sides.append((rng.normal(0.0, 0.1, size=k), se, rng.standard_normal((draws, k)) * se))
            if trial % 4 == 0:  # one side, upper or lower in turn, has no studentizable expression
                est, se, devs = sides[trial % 8 // 4]
                sides[trial % 8 // 4] = (est, np.zeros_like(se), np.zeros_like(devs))
            n = int(rng.integers(4, 10**6))
            results = _min_sides(sides, n=n, alpha=alpha)
            for (est, se, devs), (_, _, diag) in zip(sides, results):
                # Each side alone gives the same bits.
                assert _min_sides([(est, se, devs)], n=n, alpha=alpha)[0][2] == diag
                usable = se > _ZERO_SE_TOL
                got = [diag.k0, diag.k_half, diag.k_ci]
                if not usable.any():
                    assert got == [0.0, 0.0, 0.0] and not np.signbit(got).any()
                    continue
                stats = devs[:, usable] / se[usable]
                assert diag.k0 == np.quantile(stats.max(axis=1), 1.0 - 1.0 / np.log(n))
                chosen = np.zeros(len(est), dtype=bool)
                chosen[list(diag.selected)] = True
                if (chosen & usable).any():
                    row_max = (devs[:, chosen & usable] / se[chosen & usable]).max(axis=1)
                    assert [diag.k_half, diag.k_ci] == np.quantile(row_max, [0.5, 1.0 - alpha / 2.0]).tolist()
                else:
                    assert [diag.k_half, diag.k_ci] == [0.0, 0.0]


class TestSortedQuantiles:
    """``_quantiles`` reads ``np.quantile``'s linear-method values off one sort, byte for byte."""

    ALPHAS = (1e-9, 0.001, 0.01, 0.05, 0.1, 0.2, 0.32, 0.5, 0.8, 0.999)
    # The selection level 1 - 1/log n over the sample sizes _min_sides can see.
    SELECTION = tuple(1.0 - 1.0 / np.log(n) for n in (4, 5, 9, 100, 10**4, 10**6, 2**31, 2**53))
    # Level 0 and 1 and the quartiles: virtual indices that are exact integers
    # at every draw count (0, 1) or where 4 divides draws - 1 (0.25, 0.75).
    EXACT = (0.0, 0.25, 0.75, 1.0)

    def columns(self, rng, draws):
        """Gaussian columns on three scales, 40 signed columns of log-uniform
        magnitude, a heavily tied column and an all-zero column."""
        cols = rng.standard_normal((draws, 45))
        cols[:, :3] *= [1.0, 1e-3, 40.0]
        cols[:, 3:43] *= 10.0 ** rng.uniform(-6, 2, (draws, 40))
        cols[:, 43] = rng.integers(-2, 3, size=draws) / 4.0
        cols[:, 44] = 0.0
        return cols

    def test_equals_np_quantile_bytewise(self):
        rng = make_rng(1717)
        gammas = [0.5, *(1.0 - a / 2.0 for a in self.ALPHAS), *self.SELECTION, *self.EXACT]
        sizes = [100, 101, 4001, 5000, *rng.integers(100, 5001, size=16).tolist()]
        assert {d % 2 for d in sizes} == {0, 1} and any((d - 1) % 4 == 0 for d in sizes)
        forms_differ = 0
        for draws in sizes:
            cols = self.columns(rng, draws)
            if draws % 2 == 0:
                # The median's weight is exactly 1/2, where numpy's lerp switches
                # form; count the columns on which the two forms round apart.
                a, b = np.sort(cols, axis=0)[draws // 2 - 1 : draws // 2 + 1]
                forms_differ += int((a + (b - a) * 0.5 != b - (b - a) * 0.5).sum())
            want = np.quantile(cols, gammas, axis=0)
            got = _quantiles(cols.T, gammas)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), draws
            # The list form _min_sides passes gives the same bytes, and the input is not sorted in place.
            rows = list(cols.T)
            assert _quantiles(rows, gammas).tobytes() == want.tobytes()
            assert np.array_equal(np.column_stack(rows), cols)
        assert forms_differ > 0


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

    def test_ci_endpoint_inside_its_hmu_estimate_is_refused(self):
        res = clr_bounds(sample_records(calibration_population(), 1000, seed=22), self.SPEC)
        with pytest.raises(ValidationError, match="^lower CI endpoint above the HMU lower estimate$"):
            dataclasses.replace(res, ci_lower=res.bound_lower_hmu + 1e-6)
        with pytest.raises(ValidationError, match="^upper CI endpoint below the HMU upper estimate$"):
            dataclasses.replace(res, ci_upper=res.bound_upper_hmu - 1e-6)

    def test_expression_estimates_match_plugin_values(self):
        records = sample_records(calibration_population(), 2000, seed=23)
        dist, _ = estimate_distribution(records)
        res = clr_bounds(records, self.SPEC)
        plugin = anie_bounds(dist, EstimandSpec(1, Assumptions.MMR))
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
        # The mirrored case runs beside it: a max of the negated expressions,
        # run the way clr_bounds runs its lower side.
        est_lo, devs_lo = -est, -devs
        (hmu, ci, diag), (hmu_lo, ci_lo, diag_lo) = _min_sides(
            [(est, se, devs), (-est_lo, se, -devs_lo)], n=2000, alpha=0.05
        )
        assert isinstance(diag, SideDiagnostics)
        assert diag.zero_variance == (1,)
        assert 0 in diag.selected
        assert ci >= hmu
        # The mirror gives the negated endpoints with the same selection, and
        # they are max_j [theta_j - k * se_j] over it.
        hmu_lo, ci_lo = -hmu_lo, -ci_lo
        assert (hmu_lo, ci_lo) == (-hmu, -ci)
        assert diag_lo.selected == diag.selected
        assert diag_lo.zero_variance == diag.zero_variance == (1,)
        sel = list(diag_lo.selected)
        assert hmu_lo == (est_lo - diag_lo.k_half * se)[sel].max()
        assert ci_lo == (est_lo - diag_lo.k_ci * se)[sel].max()
        assert ci_lo <= hmu_lo

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
        sharp = anie_bounds(dist, EstimandSpec(1))
        assert res.bound_lower_hmu == pytest.approx(sharp.lower, abs=0.01)
        assert res.bound_upper_hmu == pytest.approx(sharp.upper, abs=0.01)

"""Estimation layer: Wald tests, covariance, and intersection-bounds intervals."""

import dataclasses
import math
from fractions import Fraction
from statistics import NormalDist

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
from mediation_bounds.closed_form import _ROWS, _spec_table
from mediation_bounds.inference import (
    ExpressionEstimate,
    IntervalEstimate,
    SideDiagnostics,
    WaldResult,
    _cell_probabilities,
    _levels,
    _min_sides,
    _simulation,
    estimate_distribution,
)
from mediation_bounds.model import _TIE_TOL, _ZERO_SE_TOL, ORDER_TOL
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

    def test_a_distribution_is_refused_by_name(self):
        dist = from_counts([40, 30, 20, 10, 10, 20, 30, 40])
        message = "^data must be eight cell counts or unit records, got an ObservedDistribution; pass its eight counts$"
        for call in (
            lambda: ate_test(dist),
            lambda: iot_test(dist),
            lambda: clr_bounds(dist, EstimandSpec(reference=1)),
            lambda: estimate_distribution(dist),
        ):
            with pytest.raises(ValidationError, match=message):
                call()
        # Its counts are the data the functions take.
        assert clr_bounds(dist.counts, EstimandSpec(reference=1)) == clr_bounds(
            np.array([40, 30, 20, 10, 10, 20, 30, 40]), EstimandSpec(reference=1)
        )

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

    # Below 2**-53 the two-sided level 1 - alpha/2 rounds to 1, whose normal quantile is infinite.
    @pytest.mark.parametrize("alpha", [1e-16, 2.0**-53, Fraction(1, 10**300)])
    def test_alpha_whose_level_rounds_to_1_is_refused(self, alpha):
        with pytest.raises(ValidationError, match=r"^alpha must be above 2\*\*-53, got "):
            InferenceConfig(alpha=alpha)

    def test_smallest_alpha_gives_a_finite_interval(self):
        result = ate_test([3, 1, 4, 1, 5, 9, 2, 6], InferenceConfig(alpha=2.0**-52))
        assert np.isfinite(result.ci).all()

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
        dist, p, n, smoothed_arms, se, se_floats, cell_devs = _simulation(tuple(self.OTHER.tolist()), 1, 200)
        assert _simulation.cache_info().hits >= 1
        assert smoothed_arms == (1,)
        assert type(se_floats) is tuple and se_floats == tuple(se.tolist())
        for array in (dist.cells, p, n, se, cell_devs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_stacked_quantiles_equal_per_side_quantiles(self):
        rng = make_rng(331)
        alpha = 0.1
        for trial in range(40):
            draws = int(rng.choice([100, 777]))
            sides = []
            for sign, k in zip((-1, 1), rng.integers(1, 6, size=2)):
                se = rng.uniform(0.01, 0.2, size=k) * (rng.random(k) > 0.3)
                stats = rng.standard_normal((k, draws))
                stats[se <= _ZERO_SE_TOL] = np.nan  # the rows of zero-variance expressions are never read
                sides.append((rng.normal(0.0, 0.1, size=k).tolist(), se.tolist(), stats, sign))
            if trial % 4 == 0:  # one side, lower or upper in turn, has no studentizable expression
                est, se, stats, sign = sides[trial % 8 // 4]
                sides[trial % 8 // 4] = (est, [0.0] * len(se), np.full_like(stats, np.nan), sign)
            n = int(rng.integers(4, 10**6))
            results = _min_sides(sides, n=n, alpha=alpha)
            for (est, se, stats, sign), (_, _, diag) in zip(sides, results):
                # Each side alone gives the same bits.
                assert _min_sides([(est, se, stats, sign)], n=n, alpha=alpha)[0][2] == diag
                usable = np.array(se) > _ZERO_SE_TOL
                got = [diag.k0, diag.k_half, diag.k_ci]
                assert all(type(k) is float for k in got)
                if not usable.any():
                    assert got == [0.0, 0.0, 0.0] and not np.signbit(got).any()
                    continue
                # A max side (sign -1) runs as the min of its negated deviations.
                mirrored = sign * stats
                assert diag.k0 == np.quantile(mirrored[usable].max(axis=0), 1.0 - 1.0 / np.log(n))
                chosen = np.zeros(len(est), dtype=bool)
                chosen[list(diag.selected)] = True
                if (chosen & usable).any():
                    row_max = mirrored[chosen & usable].max(axis=0)
                    assert [diag.k_half, diag.k_ci] == np.quantile(row_max, [0.5, 1.0 - alpha / 2.0]).tolist()
                else:
                    assert [diag.k_half, diag.k_ci] == [0.0, 0.0]


class TestClosedFormRoot:
    """The simulated deviations and the standard errors follow the smoothed multinomial covariance."""

    @staticmethod
    def tables():
        """Seeded tables: cells from 0-3, where most arms have an empty cell and are smoothed, and
        cells from 1 to 10**5 on a log scale, where none is."""
        rng = make_rng(1731)
        small = [rng.integers(0, 4, size=8) for _ in range(20)]
        large = [np.round(10.0 ** rng.uniform(0, 5, size=8)).astype(np.int64) for _ in range(20)]
        return [t for t in small + large if t[:4].sum() >= 2 and t[4:].sum() >= 2]

    @staticmethod
    def smoothed_cov(counts):
        """The exact covariance the simulation targets, in Fractions: add-half in an arm with an empty cell."""
        cov = [[Fraction(0)] * 8 for _ in range(8)]
        for a in (0, 1):
            arm = [int(c) for c in counts[4 * a : 4 * a + 4]]
            n = sum(arm)
            p = [Fraction(2 * c + 1, 2 * n + 4) if 0 in arm else Fraction(c, n) for c in arm]
            for i in range(4):
                for j in range(4):
                    cov[4 * a + i][4 * a + j] = (p[i] * (i == j) - p[i] * p[j]) / n
        return cov

    def test_deviations_sum_to_zero_in_each_arm(self):
        smoothed = set()
        for counts in self.tables():
            memo = _simulation(tuple(counts.tolist()), 5, 2000)
            arms, cell_devs = memo[3], memo[-1]
            smoothed.add(arms)
            assert cell_devs.shape == (8, 2000) and cell_devs.flags.c_contiguous
            # An arm's frequencies sum to 1, so its deviations sum to 0, up to rounding on the arm's scale.
            devs = cell_devs.reshape(2, 4, -1)
            assert (np.abs(devs.sum(axis=1)) <= 1e-13 * np.abs(devs).max(axis=(1, 2))[:, None]).all()
        assert {(), (0,), (1,), (0, 1)} <= smoothed

    def test_standard_errors_are_the_exact_ones(self):
        for counts in self.tables():
            cov = self.smoothed_cov(counts)
            for spec in ALL_SPECS:
                res = clr_bounds(counts, spec, InferenceConfig(draws=100))
                lowers, uppers = anie_expressions(spec)
                for expr, got in zip(lowers + uppers, res.lower_expressions + res.upper_expressions):
                    r = [Fraction(c) for c in expr.coeffs]
                    want = float(sum(r[i] * cov[i][j] * r[j] for i in range(8) for j in range(8))) ** 0.5
                    assert abs(got.se - want) <= 1e-15 * want

    def test_million_draws_reproduce_the_covariance(self):
        counts = np.array([0, 7, 3, 12, 9, 4, 11, 6])
        cell_devs = _simulation(tuple(counts.tolist()), 8, 1_000_000)[-1]
        want = np.array(self.smoothed_cov(counts), dtype=float)
        got = np.cov(cell_devs)
        _simulation.cache_clear()
        assert np.abs(got - want).max() <= 0.01 * np.abs(want).max()


class TestSortedQuantiles:
    """``_levels`` reads ``np.quantile``'s linear-method values off one in-place sort, byte for byte."""

    ALPHAS = (1e-9, 0.001, 0.01, 0.05, 0.1, 0.2, 0.32, 0.5, 0.8, 0.999)
    # The selection level 1 - 1/log n over the sample sizes _min_sides can see, a Python float as there.
    SELECTION = tuple(1.0 - 1.0 / float(np.log(n)) for n in (4, 5, 9, 100, 10**4, 10**6, 2**31, 2**53))
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
            rows = cols.T.copy()
            levels = _levels(rows, gammas)
            assert all(type(v) is float for row in levels for v in row)
            got = np.array(levels).T
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), draws
            # The buffer is sorted in place, row by row.
            assert np.array_equal(rows, np.sort(cols.T, axis=1))
        assert forms_differ > 0


def plain_clr(counts, spec, config):
    """``clr_bounds`` written plainly: (draws, 8) deviations, ``devs[:, mask] / se`` and ``np.quantile``."""
    counts = [int(c) for c in counts]
    arms = [counts[:4], counts[4:]]
    sizes = [sum(arm) for arm in arms]
    smoothed = tuple(a for a in (0, 1) if 0 in arms[a])
    p, arm_of = [], [0] * 4 + [1] * 4
    for a in (0, 1):
        p += [(c + 0.5) / (sizes[a] + 2.0) if a in smoothed else c / sizes[a] for c in arms[a]]
    z = np.random.default_rng(config.seed).standard_normal((8, config.draws))
    for a in (0, 1):
        cells = range(4 * a, 4 * a + 4)
        dot = sum(z[i] * math.sqrt(p[i]) for i in cells)
        for i in cells:
            z[i] -= dot * math.sqrt(p[i])
            z[i] *= math.sqrt(p[i]) / math.sqrt(sizes[a])
    lowers, uppers = anie_expressions(spec)
    rows = np.array([e.coeffs for e in lowers + uppers])
    devs = z.T @ rows.T
    est, se = [], []
    for r in rows.tolist():
        est.append(float(sum(Fraction(int(c)) * k / sizes[arm_of[i]] for i, (c, k) in enumerate(zip(r, counts)))))
        means = [0.0, 0.0]
        for i in range(8):  # the p-weighted arm means and the variance, each added in cell order
            means[arm_of[i]] += r[i] * p[i]
        var = 0.0
        for i in range(8):
            d = r[i] - means[arm_of[i]]
            var += p[i] * (d * d) / sizes[arm_of[i]]
        se.append(math.sqrt(var))
    est, se, n = np.array(est), np.array(se), sum(sizes)

    def side(est, se, devs):
        """A min of expressions; the max side passes its negated estimates and deviations."""
        usable = se > _ZERO_SE_TOL

        def critical(mask, levels):
            if not mask.any():
                return [0.0] * len(levels)
            return np.quantile((devs[:, mask] / se[mask]).max(axis=1), levels).tolist()

        (k0,) = critical(usable, [1.0 - 1.0 / np.log(n)])
        selected = est <= (est + 2.0 * k0 * se).min() + _TIE_TOL
        if not selected.any():
            selected[np.argmin(est)] = True
        k_half, k_ci = critical(selected & usable, [0.5, 1.0 - config.alpha / 2.0])
        diag = SideDiagnostics(
            tuple(np.flatnonzero(selected).tolist()), k0, k_half, k_ci, tuple(np.flatnonzero(~usable).tolist())
        )
        return (est + k_half * se)[selected].min().item(), (est + k_ci * se)[selected].min().item(), diag

    k = len(lowers)
    hmu_lo, ci_lo, diag_lo = side(-est[:k], se[:k], -devs[:, :k])
    hmu_up, ci_up, diag_up = side(est[k:], se[k:], devs[:, k:])
    exprs = [ExpressionEstimate(e.label, v, s) for e, v, s in zip(lowers + uppers, est.tolist(), se.tolist())]
    return IntervalEstimate(
        -hmu_lo, hmu_up, -ci_lo, ci_up, tuple(exprs[:k]), tuple(exprs[k:]), diag_lo, diag_up,
        smoothed, -hmu_lo > hmu_up + ORDER_TOL, config.alpha,
    )


class TestPlainReference:
    """Every field of ``clr_bounds`` equals ``plain_clr``'s, bit for bit, on every spec."""

    @staticmethod
    def tables():
        """Cells from 0-3 (most arms smoothed), log-uniform arms of 10 to 10**6 units, a 10**6-unit
        arm, and a 2 * 10**12-unit arm whose single-arm expressions have zero variance."""
        rng = make_rng(3303)
        tables = [rng.integers(0, 4, size=8) for _ in range(8)]
        tables += [
            np.concatenate([rng.multinomial(int(10 ** rng.uniform(1, 6)), rng.dirichlet(np.ones(4))) for _ in range(2)])
            for _ in range(6)
        ]
        tables.append(np.array([249_990, 250_020, 249_985, 250_005, 3, 1, 4, 1]))
        tables.append(np.array([10**12, 10**12, 1, 1, 30, 20, 0, 40]))
        return [t for t in tables if t[:4].sum() >= 2 and t[4:].sum() >= 2]

    def test_every_field_equals_the_plain_reference(self):
        # Table i runs at the three alphas with draws 100, 777 or 2000 in turn.
        levels = [(alpha, draws) for alpha in (0.05, 0.1, 0.32) for draws in (100, 777, 2000)]
        configs = [InferenceConfig(alpha, draws, seed) for seed, (alpha, draws) in enumerate(levels)]
        smoothed, zero_variance = set(), 0
        for i, counts in enumerate(self.tables()):
            for config in configs[i % 3 :: 3]:
                for spec in ALL_SPECS:
                    got, want = clr_bounds(counts, spec, config), plain_clr(counts, spec, config)
                    assert repr(got) == repr(want), (counts, spec, config)
                    assert fields_of(got) == fields_of(want)
                    smoothed.add(got.smoothed_arms)
                    zero_variance += bool(got.lower_diagnostics.zero_variance + got.upper_diagnostics.zero_variance)
        assert {(), (0,), (1,), (0, 1)} <= smoothed
        assert zero_variance > 0


def numpy_cell_probabilities(counts, smooth):
    """``_cell_probabilities`` in numpy on the int64 counts: ``np.where`` over both arms' quotients."""
    arms = np.asarray(counts, dtype=np.int64).reshape(2, 4)
    n = arms.sum(axis=1, keepdims=True)
    smoothed = (arms == 0).any(axis=1) & smooth
    p = np.where(smoothed[:, None], (arms + 0.5) / (n + 2.0), arms / n)
    return p.ravel(), np.repeat(n, 4), tuple(np.flatnonzero(smoothed).tolist())


def spec_standard_errors(counts, spec):
    """The spec's standard errors formed on its own slice of ``_ROWS``: cell-order sums on each arm."""
    table = _spec_table(spec)
    rows = _ROWS[table.start : table.stop]
    p, n, _ = numpy_cell_probabilities(counts, smooth=True)
    arm_means = np.cumsum((rows * p).reshape(-1, 4), axis=1)[:, -1].reshape(-1, 2)
    return np.sqrt(np.cumsum(p * (rows - np.repeat(arm_means, 4, axis=1)) ** 2 / n, axis=1)[:, -1])


class TestMemoStandardErrors:
    """The simulation's standard errors of all of ``_ROWS`` are each spec's own, and so is every result."""

    def test_every_spec_slice_equals_its_own_formula(self):
        zero_variance = 0
        for counts in TestPlainReference.tables():
            _, _, _, _, se, se_floats, _ = _simulation(tuple(counts.tolist()), 0, 100)
            assert se.shape == (len(_ROWS),) and se_floats == tuple(se.tolist())
            for spec in ALL_SPECS:
                table = _spec_table(spec)
                assert se[table.start : table.stop].tobytes() == spec_standard_errors(counts, spec).tobytes()
            zero_variance += bool((se <= _ZERO_SE_TOL).any())
        assert zero_variance > 0

    def test_spec_order_and_eviction_change_no_result(self):
        config = InferenceConfig(alpha=0.1, draws=777, seed=34)
        other = TestSharedSimulation.OTHER
        for counts in TestPlainReference.tables():
            want = [repr(cold(counts, spec, config)) for spec in ALL_SPECS]
            forward = [repr(clr_bounds(counts, spec, config)) for spec in ALL_SPECS]
            reverse = [repr(clr_bounds(counts, spec, config)) for spec in ALL_SPECS[::-1]][::-1]
            evicted, misses = [], _simulation.cache_info().misses
            for spec in ALL_SPECS:  # a call on another table replaces the memo before each call
                clr_bounds(other, spec, config)
                evicted.append(repr(clr_bounds(counts, spec, config)))
            assert _simulation.cache_info().misses == misses + 2 * len(ALL_SPECS)
            assert forward == reverse == evicted == want, counts


def numpy_difference_of_means(counts, ones, alpha):
    """``ate_test`` (``ones`` = [2, 3]) and ``iot_test`` ([1, 3]) with numpy sums and ``np.sqrt``."""
    counts = np.asarray(counts, dtype=np.int64)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    n0, n1 = int(counts[:4].sum()), int(counts[4:].sum())
    k0, k1 = counts.reshape(2, 4)[:, ones].sum(axis=1).tolist()
    p1, p0 = k1 / n1, k0 / n0
    se = float(np.sqrt(p1 * (1 - p1) / n1 + p0 * (1 - p0) / n0))
    est = float(p1 - p0)
    return WaldResult(estimate=est, se=se, ci=(est - z * se, est + z * se))


class TestWaldReference:
    """The Wald tests and the cell probabilities in Python arithmetic equal their numpy forms, bit for bit."""

    @staticmethod
    def tables():
        """Seeded small tables, the plain-reference tables, and totals up to 2**53, some with an empty cell."""
        rng = make_rng(3401)
        tables = random_tables(rng, 60) + TestPlainReference.tables()
        tables += [rng.integers(2**49, 2**50, size=8) for _ in range(20)]
        for _ in range(20):
            table = rng.integers(2**49, 2**50, size=8)
            table[rng.integers(0, 8)] = 0
            tables.append(table)
        tables += [np.array([2**52 - 3, 1, 1, 1, 2**52 - 5, 2, 2, 1]), np.array([2**52, 0, 0, 0, 2**52 - 3, 0, 1, 2])]
        return [t for t in tables if t[:4].sum() >= 2 and t[4:].sum() >= 2]

    def test_wald_tests_equal_the_numpy_formula(self):
        for i, counts in enumerate(self.tables()):
            config = InferenceConfig(alpha=(0.05, 0.1, 0.32)[i % 3])
            assert repr(ate_test(counts, config)) == repr(numpy_difference_of_means(counts, [2, 3], config.alpha))
            assert repr(iot_test(counts, config)) == repr(numpy_difference_of_means(counts, [1, 3], config.alpha))

    def test_cell_probabilities_equal_the_numpy_form(self):
        smoothed = set()
        for counts in self.tables():
            for smooth in (True, False):
                p, n, arms = _cell_probabilities(counts.tolist(), smooth=smooth)
                want_p, want_n, want_arms = numpy_cell_probabilities(counts, smooth)
                assert (p.dtype, n.dtype) == (want_p.dtype, want_n.dtype) == (np.float64, np.int64)
                assert p.tobytes() == want_p.tobytes() and n.tobytes() == want_n.tobytes() and arms == want_arms
                smoothed.add(arms)
        assert {(), (0,), (1,), (0, 1)} <= smoothed


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
        # Deterministic given the fixed seeds.  At 1e4 draws the seed-to-seed
        # sd of k_ci is 0.02-0.03, as large as the tolerance itself; at 1e5
        # draws it is about 0.01, so the tolerance clears the Monte Carlo noise.
        records = sample_records(calibration_population(), 1000, seed=34)
        coarse = clr_bounds(records, self.SPEC, InferenceConfig(draws=100_000, seed=22))
        fine = clr_bounds(records, self.SPEC, InferenceConfig(draws=1_000_000, seed=101))
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
        with np.errstate(divide="ignore"):
            stats = devs.T / se[:, None]  # the zero-variance row is infinite, and never read
        # The mirrored case runs beside it: a max of the negated expressions,
        # run the way clr_bounds runs its lower side.
        est_lo, stats_lo = -est, -stats
        (hmu, ci, diag), (hmu_lo, ci_lo, diag_lo) = _min_sides(
            [(est.tolist(), se.tolist(), stats, 1), (est_lo.tolist(), se.tolist(), stats_lo, -1)], n=2000, alpha=0.05
        )
        assert isinstance(diag, SideDiagnostics)
        assert diag.zero_variance == (1,)
        assert 0 in diag.selected
        assert ci >= hmu
        # The mirror gives the negated endpoints with the same selection, and
        # they are max_j [theta_j - k * se_j] over it.
        assert (hmu_lo, ci_lo) == (-hmu, -ci)
        assert diag_lo.selected == diag.selected
        assert diag_lo.zero_variance == diag.zero_variance == (1,)
        sel = list(diag_lo.selected)
        assert hmu_lo == (est_lo - diag_lo.k_half * se)[sel].max()
        assert ci_lo == (est_lo - diag_lo.k_ci * se)[sel].max()
        assert ci_lo <= hmu_lo

    def test_endpoints_are_not_clamped_to_the_parameter_space(self):
        res = clr_bounds(np.array([1, 2, 1, 1, 3, 1, 0, 1]), EstimandSpec(reference=0))
        assert res.ci_upper == pytest.approx(1.1117, abs=1e-4)
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

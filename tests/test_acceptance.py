"""Release gate: ten acceptance checks, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -rA` to see the lines on passing
runs (plain -v shows them only on failure).  Check 10 has a conditional
half: the external replication datasets are not redistributed here, so the
byte-level interval reproduction runs only when the CSVs are supplied under
tests/replication/; the analytic fixture values it also names are asserted
unconditionally.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from mediation_bounds import (
    Assumptions,
    EstimandSpec,
    InferenceConfig,
    anie_bounds,
    ate,
    atm,
    clr_bounds,
    from_counts,
)
from mediation_bounds.lp_engine import cross_world_range
from mediation_bounds.oracle import (
    iot_blindspot_population,
    observed_from_population,
    random_population,
    sample_records,
    sharpness_check,
    soundness_check,
    strata_proportions,
    true_estimands,
)

from conftest import (
    calibration_population,
    make_rng,
    random_dist,
    random_mmr_dist,
    unique_binding_population,
)

REPLICATION_DIR = Path(__file__).parent / "replication"

ALL_REGIMES = (Assumptions.NONE, Assumptions.MMR, Assumptions.MMR_POS_MEDIATOR)


def _line(index: int, status: str, detail: str) -> None:
    print(f"ACCEPTANCE {index}/10 {status} - {detail}")


def _simplex_interval(dist, spec):
    # delta(reference) from the simplex optima of the cross-world mean.
    cross_min, cross_max, _, _ = cross_world_range(dist, spec)
    if spec.reference == 1:
        mean = dist.outcome_mean(1)
        return mean - cross_max, mean - cross_min
    mean = dist.outcome_mean(0)
    return cross_min - mean, cross_max - mean


def test_criterion_01_closed_form_matches_lp():
    rng = make_rng(101)
    dists = [random_dist(rng) for _ in range(1000)]
    worst = 0.0
    comparisons = 0
    t0 = time.perf_counter()
    for dist in dists:
        compatible = atm(dist) >= 0.0
        for reference in (0, 1):
            pairs = [
                (
                    anie_bounds(dist, EstimandSpec(reference)),
                    _simplex_interval(dist, EstimandSpec(reference=reference)),
                )
            ]
            if compatible:
                pairs.append(
                    (
                        anie_bounds(dist, EstimandSpec(reference, Assumptions.MMR)),
                        _simplex_interval(
                            dist,
                            EstimandSpec(reference=reference, assumptions=Assumptions.MMR),
                        ),
                    )
                )
            for cf, (lp_lower, lp_upper) in pairs:
                worst = max(worst, abs(cf.lower - lp_lower), abs(cf.upper - lp_upper))
                comparisons += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _line(
        1,
        "PASS" if ok else "FAIL",
        f"closed form vs simplex LP optimum: max endpoint gap {worst:.2e} (tol 1e-9) over 1000 "
        f"distributions, both references, no-assumption + compatible margin-response "
        f"sets ({comparisons} interval pairs, {elapsed:.1f}s, target 10s)",
    )
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_no_assumption_bounds_contain_zero():
    rng = make_rng(202)
    n_dists = 10_000
    contained = 0
    for _ in range(n_dists):
        dist = random_dist(rng)
        intervals = [anie_bounds(dist, EstimandSpec(ref)) for ref in (0, 1)]
        if all(b.lower <= 0.0 <= b.upper for b in intervals):
            contained += 1
    ok = contained == n_dists
    _line(
        2,
        "PASS" if ok else "FAIL",
        f"no-assumption bounds contain zero on {contained}/{n_dists} random "
        f"distributions, both references (100% required)",
    )
    assert contained == n_dists


def test_criterion_03_zero_margin_difference_pins_bounds_at_zero():
    rng = make_rng(303)
    dists = [
        from_counts([25] * 8),
        # degenerate margins: nobody / everybody mediator-positive
        from_counts([128, 0, 0, 0, 0, 0, 128, 0]),
        from_counts([0, 128, 0, 0, 0, 0, 0, 128]),
    ]
    for _ in range(200):
        # power-of-two arm sizes make every cell probability dyadic, so the
        # two-cell margin sums are exact and equal mediator counts force the
        # margin difference to be exactly 0.0 in floating point
        n = int(rng.choice([64, 128, 256, 512]))
        m_pos = int(rng.integers(1, n))
        counts = []
        for _ in (0, 1):
            y1_m0 = int(rng.integers(0, n - m_pos + 1))
            y1_m1 = int(rng.integers(0, m_pos + 1))
            counts.extend([(n - m_pos) - y1_m0, m_pos - y1_m1, y1_m0, y1_m1])
        dists.append(from_counts(counts))
    worst = 0.0
    for dist in dists:
        assert atm(dist) == 0.0
        for reference in (0, 1):
            b = anie_bounds(dist, EstimandSpec(reference, Assumptions.MMR))
            worst = max(worst, abs(b.lower), abs(b.upper))
    ok = worst <= 1e-12
    _line(
        3,
        "PASS" if ok else "FAIL",
        f"margin-response bounds collapse to [0, 0] at exactly zero margin "
        f"difference: max |endpoint| {worst:.2e} (tol 1e-12) over {len(dists)} "
        f"constructed distributions, both references",
    )
    assert worst <= 1e-12


def test_criterion_03_non_dyadic_twin_pins_bounds_at_exactly_zero():
    # Criterion 03's claim on unequal arms that are not powers of two, where
    # the cell probabilities are not dyadic: a table of counts whose mediator
    # ATE is exactly 0 gives mmr bounds of exactly 0.0, with no tolerance.
    rng = make_rng(313)
    tables = 0
    while tables < 200:
        g, r0, r1 = (int(rng.integers(lo, hi)) for lo, hi in ((2, 40), (1, 30), (1, 30)))
        n0, n1 = g * r0, g * r1
        if n0 == n1 or not n0 & (n0 - 1) or not n1 & (n1 - 1):
            continue
        s = int(rng.integers(0, g + 1))
        counts = []
        for n, m_pos in ((n0, r0 * s), (n1, r1 * s)):  # m_pos / n = s / g in both arms
            y1_m0, y1_m1 = int(rng.integers(0, n - m_pos + 1)), int(rng.integers(0, m_pos + 1))
            counts.extend([(n - m_pos) - y1_m0, m_pos - y1_m1, y1_m0, y1_m1])
        assert (counts[1] + counts[3]) * n1 == (counts[5] + counts[7]) * n0
        dist = from_counts(counts)
        for reference in (0, 1):
            res = anie_bounds(dist, EstimandSpec(reference, Assumptions.MMR))
            assert (res.lower, res.upper, res.incompatible) == (0.0, 0.0, False), (counts, reference)
        tables += 1


def test_criterion_04_signed_mediator_interval_contains_zero():
    rng = make_rng(404)
    n_dists = 10_000
    contained = 0
    checked = 0
    while checked < n_dists:
        dist = random_dist(rng)
        if atm(dist) < 0.0:
            continue
        checked += 1
        b = anie_bounds(dist, EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR))
        if b.lower <= 0.0 <= b.upper:
            contained += 1
    ok = contained == n_dists
    _line(
        4,
        "PASS" if ok else "FAIL",
        f"signed-mediator interval has nonpositive lower and nonnegative upper "
        f"endpoint on {contained}/{n_dists} margin-compatible random distributions "
        f"(100% required)",
    )
    assert contained == n_dists


def test_criterion_05_bounds_are_sound_on_simulated_populations():
    rng = make_rng(505)
    n_pops = 10_000
    failures = {}
    for assumptions in ALL_REGIMES:
        bad = 0
        for i in range(n_pops):
            reference = i & 1
            pop = random_population(rng, assumptions, reference=reference)
            spec = EstimandSpec(reference=reference, assumptions=assumptions)
            if not soundness_check(pop, spec):
                bad += 1
        failures[assumptions.value] = bad
    # The sign -1 specs, drawn after the three sets above so their draws stay as they were.
    bad = 0
    for i in range(n_pops):
        reference = i & 1
        pop = random_population(rng, Assumptions.MMR_POS_MEDIATOR, -1, reference)
        if not soundness_check(pop, EstimandSpec(reference, Assumptions.MMR_POS_MEDIATOR, -1)):
            bad += 1
    failures["mmr-pos-mediator sign -1"] = bad
    ok = all(bad == 0 for bad in failures.values())
    summary = ", ".join(
        f"{name}: {n_pops - bad}/{n_pops}" for name, bad in failures.items()
    )
    _line(
        5,
        "PASS" if ok else "FAIL",
        f"true delta(reference) inside its interval on every compatible simulated "
        f"population ({summary}; 100% required, references alternating)",
    )
    assert ok, failures


def test_criterion_06_bounds_are_sharp():
    rng = make_rng(606)
    n_dists = 1000
    failures = {}
    for assumptions in ALL_REGIMES:
        bad = 0
        for i in range(n_dists):
            reference = i & 1
            if assumptions is Assumptions.NONE:
                dist = random_dist(rng)
            elif assumptions is Assumptions.MMR:
                dist = random_mmr_dist(rng)
            else:
                # induced observables of a sign-compatible population, so the
                # program is feasible by construction
                dist = observed_from_population(
                    random_population(rng, assumptions, reference=reference)
                )
            spec = EstimandSpec(reference=reference, assumptions=assumptions)
            if not sharpness_check(dist, spec):
                bad += 1
        failures[assumptions.value] = bad
    # The sign -1 specs, drawn after the three sets above so their draws stay as they were.
    bad = 0
    for i in range(n_dists):
        reference = i & 1
        dist = observed_from_population(
            random_population(rng, Assumptions.MMR_POS_MEDIATOR, -1, reference)
        )
        if not sharpness_check(dist, EstimandSpec(reference, Assumptions.MMR_POS_MEDIATOR, -1)):
            bad += 1
    failures["mmr-pos-mediator sign -1"] = bad
    ok = all(bad == 0 for bad in failures.values())
    summary = ", ".join(
        f"{name}: {n_dists - bad}/{n_dists}" for name, bad in failures.items()
    )
    _line(
        6,
        "PASS" if ok else "FAIL",
        f"witness populations reproduce the constrained observables, satisfy the assumption "
        f"set and attain both endpoints within 1e-9 ({summary}; references alternating)",
    )
    assert ok, failures


def test_criterion_07_estimand_identities():
    rng = make_rng(707)
    pops = [
        random_population(rng, assumptions, reference=i & 1)
        for assumptions in ALL_REGIMES
        for i in range(1000)
    ]
    pops += [
        iot_blindspot_population(),
        calibration_population(),
        unique_binding_population(),
    ]
    worst = 0.0
    for pop in pops:
        truth = true_estimands(pop)
        rho = strata_proportions(pop)
        worst = max(
            worst,
            abs(truth.alpha - (rho[1, 0] - rho[0, 1])),
            abs(truth.tau - (truth.delta1 + truth.zeta0)),
            abs(truth.tau - (truth.delta0 + truth.zeta1)),
        )
    ok = worst <= 1e-12
    _line(
        7,
        "PASS" if ok else "FAIL",
        f"mediator ATE equals complier-minus-defier mass and the total effect "
        f"decomposes as delta(a) + zeta(1-a): max identity error {worst:.2e} "
        f"(tol 1e-12) over {len(pops)} populations",
    )
    assert worst <= 1e-12


def test_criterion_08_mediator_ate_blindspot_population_ships():
    pop = iot_blindspot_population()
    truth = true_estimands(pop)
    ok = truth.alpha == 0.0 and abs(truth.delta1) >= 0.2
    _line(
        8,
        "PASS" if ok else "FAIL",
        f"shipped population has mediator ATE exactly {truth.alpha} with indirect "
        f"effect delta(1) = {truth.delta1} (|delta(1)| >= 0.2 required): a mediator "
        f"ATE test has zero power here",
    )
    assert truth.alpha == 0.0
    assert abs(truth.delta1) >= 0.2


def test_criterion_09_interval_inference_calibration():
    # The calibration population has no mediator defiers and a nonnegative
    # average effect of the mediator on the treated-arm outcome (+0.099), so
    # it satisfies both assumption sets checked here.
    pop = calibration_population()
    truth = true_estimands(pop).delta1
    observed = observed_from_population(pop)
    specs = {
        "mmr": EstimandSpec(reference=1, assumptions=Assumptions.MMR),
        "mmr-pos-mediator": EstimandSpec(reference=1, assumptions=Assumptions.MMR_POS_MEDIATOR),
    }
    theta_upper = {}
    for name, spec in specs.items():
        target = anie_bounds(observed, spec)
        assert not target.incompatible
        # the experiment needs an interior truth, otherwise coverage conflates
        # the two guarantees being measured
        assert target.lower < truth < target.upper
        theta_upper[name] = target.upper

    n_reps = 500
    n_per_arm = 1000
    covered = dict.fromkeys(specs, 0)
    upper_at_least_truth = dict.fromkeys(specs, 0)
    t0 = time.perf_counter()
    for rep, child in enumerate(np.random.SeedSequence(909).spawn(n_reps)):
        record_seed, inference_seed = (
            int(s.generate_state(1, dtype=np.uint64)[0]) for s in child.spawn(2)
        )
        records = sample_records(pop, n_per_arm, seed=record_seed)
        config = InferenceConfig(alpha=0.05, draws=2000, seed=inference_seed)
        for name, spec in specs.items():
            interval = clr_bounds(records, spec, config)
            if interval.ci_lower <= truth <= interval.ci_upper:
                covered[name] += 1
            if interval.bound_upper_hmu >= theta_upper[name]:
                upper_at_least_truth[name] += 1
    elapsed = time.perf_counter() - t0
    coverage = {name: covered[name] / n_reps for name in specs}
    half_median = {name: upper_at_least_truth[name] / n_reps for name in specs}
    ok = (
        all(c >= 0.93 for c in coverage.values())
        and all(h >= 0.48 for h in half_median.values())
        and elapsed < 300.0
    )
    summary = "; ".join(
        f"{name}: CI coverage of true delta(1) = {coverage[name]:.3f} (>= 0.93 at nominal 0.95), "
        f"P(upper estimate >= true upper bound {theta_upper[name]:g}) = {half_median[name]:.3f} (>= 0.48)"
        for name in specs
    )
    _line(
        9,
        "PASS" if ok else "FAIL",
        f"{summary}; over {n_reps} replications at n = {n_per_arm}/arm "
        f"({elapsed:.1f}s, target 300s)",
    )
    for name in specs:
        assert coverage[name] >= 0.93, name
        assert half_median[name] >= 0.48, name
    assert elapsed < 300.0


def test_criterion_10_mandatory_fixture_values(uniform_dist, e1_dist):
    tol = 1e-12
    uniform_bounds = anie_bounds(uniform_dist, EstimandSpec(1))
    e1_none = anie_bounds(e1_dist, EstimandSpec(1))
    e1_mmr = anie_bounds(e1_dist, EstimandSpec(1, Assumptions.MMR))
    checks = {
        "uniform delta(1) in [-0.5, 0.5]": (
            abs(uniform_bounds.lower + 0.5) <= tol
            and abs(uniform_bounds.upper - 0.5) <= tol
        ),
        "benchmark ATE 0.4": abs(ate(e1_dist) - 0.4) <= tol,
        "benchmark mediator ATE 0.2": abs(atm(e1_dist) - 0.2) <= tol,
        "benchmark no-assumption [-0.3, 0.7]": (
            abs(e1_none.lower + 0.3) <= tol and abs(e1_none.upper - 0.7) <= tol
        ),
        "benchmark margin-response [-0.2, 0.2]": (
            abs(e1_mmr.lower + 0.2) <= tol and abs(e1_mmr.upper - 0.2) <= tol
        ),
    }
    ok = all(checks.values())
    _line(
        10,
        "PASS" if ok else "FAIL",
        "mandatory analytic fixtures: " + ", ".join(checks) + f" (tol {tol:g})",
    )
    assert all(checks.values()), checks


def test_criterion_10_replication_datasets_conditional():
    supplied = sorted(REPLICATION_DIR.glob("*.csv")) if REPLICATION_DIR.exists() else []
    if not supplied:
        _line(
            10,
            "SKIP",
            "external replication CSVs not supplied under tests/replication/; "
            "checks 1-9 plus the fixture values above constitute acceptance",
        )
        pytest.skip("external replication data not supplied")
    # With data present this would ingest each CSV through the command line
    # and compare the reported intervals against the published values; the
    # datasets are not redistributable, so the expectation table lives with
    # the data drop, one JSON file per CSV.
    raise AssertionError(
        f"replication CSVs found ({[p.name for p in supplied]}) but no expectation "
        "table; add <name>.expected.json next to each file"
    )

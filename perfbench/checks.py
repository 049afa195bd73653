"""Output checks, independent of the package's own solver.

Bounds are checked against the optimum of ``lp_engine.build_lp``'s program as
solved by ``scipy.optimize.linprog`` (HiGHS), the same independent oracle the
test suite uses.  Each check returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from mediation_bounds import lp_engine, model
from mediation_bounds.model import Assumptions, EstimandSpec

TOL = 1e-8
# HiGHS's default primal feasibility tolerance (1e-7) is looser than the
# package's phase-1 tolerance (1e-9); tighten it so infeasibility verdicts are
# compared at the package's own resolution.
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}

ASSUMPTION_NAMES = {a.value: a for a in Assumptions}
METHOD_ASSUMPTIONS = {
    "bounds-none": Assumptions.NONE,
    "bounds-mmr": Assumptions.MMR,
    "bounds-mmr-pos": Assumptions.MMR_POS_MEDIATOR,
}


def _clamp(v: float) -> float:
    return min(1.0, max(-1.0, v))


def _scipy_optimum(program: lp_engine.LinearProgram) -> float | None:
    from scipy.optimize import linprog

    c = np.array(program.objective)
    if program.sense is lp_engine.Sense.MAX:
        c = -c
    a_eq = np.array([row for row, _ in program.equalities])
    b_eq = np.array([rhs for _, rhs in program.equalities])
    a_ub = b_ub = None
    if program.inequalities:
        a_ub = -np.array([row for row, _ in program.inequalities])
        b_ub = -np.array([rhs for _, rhs in program.inequalities])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs", options=_HIGHS)
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError(f"scipy linprog failed: {res.message}")
    return -float(res.fun) if program.sense is lp_engine.Sense.MAX else float(res.fun)


def reference_anie(dist: model.ObservedDistribution, spec: EstimandSpec) -> tuple[float, float] | None:
    """Sharp delta(spec.reference) bounds from scipy, or None when the program is infeasible."""
    lo = _scipy_optimum(lp_engine.build_lp(dist, spec, lp_engine.Sense.MIN))
    hi = _scipy_optimum(lp_engine.build_lp(dist, spec, lp_engine.Sense.MAX))
    if lo is None or hi is None:
        return None
    if spec.reference == 1:
        mean = dist.outcome_mean(1)
        return _clamp(mean - hi), _clamp(mean - lo)
    mean = dist.outcome_mean(0)
    return _clamp(lo - mean), _clamp(hi - mean)


def reference_ande(dist: model.ObservedDistribution, anie: tuple[float, float]) -> tuple[float, float]:
    """zeta(1 - r) = ATE - delta(r), from the delta(r) interval ``anie``."""
    tau = model.ate(dist)
    return _clamp(tau - anie[1]), _clamp(tau - anie[0])


def compare_interval(where: str, got: tuple[float, float], want: tuple[float, float]) -> list[str]:
    gap = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
    if not gap <= TOL:
        return [f"{where}: [{got[0]!r}, {got[1]!r}] differs from scipy [{want[0]!r}, {want[1]!r}] by {gap:.3g}"]
    return []


def compare_verdict(where: str, incompatible: bool, want: tuple[float, float] | None) -> list[str]:
    if incompatible != (want is None):
        return [f"{where}: incompatible={incompatible} but scipy says {'infeasible' if want is None else 'feasible'}"]
    return []


# --- CLI outputs -----------------------------------------------------------

def check_cli_json(text: str, expected_counts: dict[str, tuple[int, ...]], n_rows: int, deep: bool) -> list[str]:
    """JSON report: per-mediator counts equal the generator's, and (deep) bounds equal scipy's."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"json does not parse: {exc}"]
    failures = []
    if report.get("n_rows") != n_rows:
        failures.append(f"n_rows {report.get('n_rows')} != {n_rows}")
    names = [m["name"] for m in report.get("mediators", [])]
    if names != list(expected_counts):
        return failures + [f"mediators {names} != {list(expected_counts)}"]
    for med in report["mediators"]:
        want = expected_counts[med["name"]]
        if tuple(med["counts"]) != want:
            failures.append(f"{med['name']}: counts {med['counts']} != {list(want)}")
            continue
        if not deep:
            continue
        dist = model.from_counts(list(want))
        reference = report["config"]["reference"]
        for res in med["results"]:
            spec = EstimandSpec(reference=reference, assumptions=ASSUMPTION_NAMES[res["assumptions"]])
            truth = reference_anie(dist, spec)
            where = f"{med['name']}/{res['assumptions']}"
            failures += compare_verdict(where, bool(res["incompatible"]), truth)
            if truth is None:
                continue
            for block in ("closed_form", "lp"):
                got = res[block]
                if got is None or "error" in got:
                    failures.append(f"{where}/{block}: missing on a feasible program ({got})")
                    continue
                failures += compare_interval(f"{where}/{block}", (got["lower"], got["upper"]), truth)
            ande = res["ande"]
            failures += compare_interval(f"{where}/ande", (ande["lower"], ande["upper"]), reference_ande(dist, truth))
    return failures


def check_cli_csv(text: str, counts: tuple[int, ...], deep: bool) -> list[str]:
    """Flat CSV: one row per assumption set, n_used equals the table total, (deep) bounds equal scipy's."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if [r.get("assumptions") for r in rows] != ["none", "mmr", "mmr-pos-mediator"]:
        return [f"csv rows {[r.get('assumptions') for r in rows]} are not the three assumption sets"]
    failures = []
    dist = model.from_counts(list(counts))
    for row in rows:
        if int(row["n_used"]) != sum(counts):
            failures.append(f"csv n_used {row['n_used']} != {sum(counts)}")
        if not deep:
            continue
        spec = EstimandSpec(reference=int(row["reference"]), assumptions=ASSUMPTION_NAMES[row["assumptions"]])
        truth = reference_anie(dist, spec)
        where = f"csv/{row['assumptions']}"
        failures += compare_verdict(where, row["incompatible"] == "1", truth)
        if truth is None:
            continue
        failures += compare_interval(f"{where}/cf", (float(row["cf_lower"]), float(row["cf_upper"])), truth)
        failures += compare_interval(f"{where}/lp", (float(row["lp_lower"]), float(row["lp_upper"])), truth)
        failures += compare_interval(
            f"{where}/ande", (float(row["ande_lower"]), float(row["ande_upper"])), reference_ande(dist, truth)
        )
    return failures


def check_cli_plotdata(text: str, counts: tuple[int, ...], deep: bool) -> list[str]:
    """Plotdata rows: iot plus one row per assumption set, (deep) lo/hi equal scipy's where feasible."""
    rows = list(csv.DictReader(io.StringIO(text)))
    methods = [r.get("method") for r in rows]
    if methods != ["iot", "bounds-none", "bounds-mmr", "bounds-mmr-pos"]:
        return [f"plotdata methods {methods} are unexpected"]
    failures = []
    for row in rows:
        for key in ("ate_reference_line",) + (("point", "ci_lo", "ci_hi") if row["method"] == "iot" else ("lo", "hi")):
            try:
                float(row[key])
            except (TypeError, ValueError):
                failures.append(f"plotdata {row['method']}: {key}={row[key]!r} is not a number")
    if failures or not deep:
        return failures
    dist = model.from_counts(list(counts))
    for row in rows[1:]:
        spec = EstimandSpec(reference=1, assumptions=METHOD_ASSUMPTIONS[row["method"]])
        truth = reference_anie(dist, spec)
        if truth is not None:
            failures += compare_interval(f"plotdata/{row['method']}", (float(row["lo"]), float(row["hi"])), truth)
    return failures


# --- library results -------------------------------------------------------

def check_table(counts: tuple[int, ...], outcomes: list) -> list[str]:
    """One table_sweep table: every spec's verdict and bounds, and every ande, against scipy.

    ``outcomes`` holds one (spec, anie, ande) triple per spec, where ``anie`` is
    a BoundsResult or the AssumptionIncompatibilityError it raised and
    ``ande`` is the direct-effect result or None.
    """
    failures = []
    dist = model.from_counts(list(counts))
    for spec, anie, ande in outcomes:
        where = f"{counts} {spec.assumptions.value} ref={spec.reference} sign={spec.mediator_effect_sign:+d}"
        truth = reference_anie(dist, spec)
        incompatible = isinstance(anie, model.AssumptionIncompatibilityError) or anie.incompatible
        failures += compare_verdict(where, incompatible, truth)
        if truth is None:
            continue
        failures += compare_interval(where, (anie.lower, anie.upper), truth)
        if ande is None:
            failures.append(f"{where}: no ande result for a compatible anie result")
        else:
            failures += compare_interval(f"{where} ande", (ande.lower, ande.upper), reference_ande(dist, truth))
    return failures


def check_wald(records: np.ndarray, ate, iot) -> list[str]:
    """ate_test / iot_test estimates equal numpy's difference of arm means."""
    failures = []
    treated = records[:, 0] == 1
    for label, column, result in (("ate", 2, ate), ("iot", 1, iot)):
        want = records[treated, column].mean() - records[~treated, column].mean()
        if not abs(result.estimate - want) <= 1e-12:
            failures.append(f"{label} estimate {result.estimate!r} != numpy {want!r}")
    return failures


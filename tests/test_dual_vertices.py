"""The dual-vertex table behind ``anie_bounds``: its derivation and its agreement with the simplex.

``derive_table`` is the table's source of truth and its regeneration tool: when
the checked-in ``closed_form._DUAL_VERTICES`` differs from a fresh brute-force
derivation, the failure message prints the literal to paste in its place.
"""

import itertools

import numpy as np
import pytest

from mediation_bounds import (
    AssumptionIncompatibilityError,
    Assumptions,
    EstimandSpec,
    anie_bounds,
    closed_form,
    from_counts,
)
from mediation_bounds.lp_engine import (
    InfeasibleError,
    Sense,
    anie_bounds_lp,
    build_lp,
    cross_world_range,
)
from conftest import highs_optimum, make_rng, random_dist

TABLE_KEYS = [
    (Assumptions.NONE, 0, 1),
    (Assumptions.NONE, 1, 1),
    (Assumptions.MMR, 0, 1),
    (Assumptions.MMR, 1, 1),
    (Assumptions.MMR_POS_MEDIATOR, 0, 1),
    (Assumptions.MMR_POS_MEDIATOR, 0, -1),
    (Assumptions.MMR_POS_MEDIATOR, 1, 1),
    (Assumptions.MMR_POS_MEDIATOR, 1, -1),
]
ALL_SPECS = [EstimandSpec(ref, assumptions, sign) for assumptions, ref, sign in TABLE_KEYS]
TOL = 1e-12


# --- derivation ---------------------------------------------------------------

def polytope_vertices(G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Vertices of {y : G y <= h}: the feasible solutions of every nonsingular square set of tight rows."""
    rows = np.unique(np.column_stack([G, h]), axis=0)
    G, h = rows[:, :-1], rows[:, -1]
    combos = np.array(list(itertools.combinations(range(len(G)), G.shape[1])))
    square = G[combos]
    nonsingular = np.abs(np.linalg.det(square)) > 0.5  # integer matrices
    ys = np.linalg.solve(square[nonsingular], h[combos[nonsingular]][..., None])[..., 0]
    ys = ys[(ys @ G.T <= h + 1e-9).all(axis=1)]
    vertices = np.rint(ys)
    assert np.abs(ys - vertices).max() <= 1e-9, "a dual vertex is not integral"
    return vertices.astype(int)


def _projected(vertices: np.ndarray, columns) -> tuple[tuple[int, ...], ...]:
    """Distinct vertices as 6-tuples over b's rows: the first len(columns) coordinates go to ``columns``."""
    out = np.zeros((len(vertices), 6), dtype=int)
    out[:, columns] = vertices[:, : len(columns)]
    return tuple(sorted({tuple(int(v) for v in row) for row in out}))


def derive_table(assumptions: Assumptions, reference: int, sign: int):
    """(MIN-side, MAX-side, phase-1) dual vertices of ``build_lp``'s program, as stored in the table."""
    dist = from_counts([1, 2, 3, 4, 5, 6, 7, 8])  # only the right-hand side depends on the table
    lp = build_lp(dist, EstimandSpec(reference, assumptions, sign), Sense.MIN)
    eq = np.array([row for row, _ in lp.equalities])
    eq_rhs = np.array([rhs for _, rhs in lp.equalities])
    simplex = (eq == 1).all(axis=1)
    defier = (eq.sum(axis=1) == 1) & (eq_rhs == 0)
    data = ~simplex & ~defier
    # The right-hand sides the package evaluates the vertices against, in table order.
    rhs = np.concatenate([[1.0], dist.arm(reference), [dist.mediator_margin(1 - reference)]])
    assert np.array_equal(np.concatenate([eq_rhs[simplex], eq_rhs[data]]), rhs)

    # Defier rows zero their strata: drop both.  Inequality rows get a surplus column.
    kept = ~eq[defier].any(axis=0)
    ineq = np.array([row for row, _ in lp.inequalities]).reshape(-1, 16)
    assert all(rhs_i == 0.0 for _, rhs_i in lp.inequalities)
    n_ineq = len(ineq)
    A = np.vstack([eq[simplex][:, kept], eq[data][:, kept], ineq[:, kept]])
    A = np.hstack([A, np.vstack([np.zeros((len(A) - n_ineq, n_ineq)), -np.eye(n_ineq)])])
    c = np.concatenate([np.array(lp.objective)[kept], np.zeros(n_ineq)])

    # min c.x s.t. A x = b, x >= 0 has dual max b.y s.t. A^T y <= c; the max
    # side is its mirror.  The simplex row (the sum of the joint-cell rows)
    # is left out of the optimum duals.
    A_opt = A[1:]
    data_columns = range(1, 1 + int(data.sum()))
    lower = _projected(polytope_vertices(A_opt.T, c), data_columns)
    upper = _projected(polytope_vertices(-A_opt.T, -c), data_columns)
    # Phase 1 minimizes the artificials of A x + art = b; its dual is
    # max b.y s.t. A^T y <= 0, y <= 1.
    m = len(A)
    phase1 = polytope_vertices(np.vstack([A.T, np.eye(m)]), np.concatenate([np.zeros(A.shape[1]), np.ones(m)]))
    return lower, upper, _projected(phase1, range(6))


def format_table(table: dict) -> str:
    """The ``_DUAL_VERTICES`` literal as it appears in ``closed_form.py``."""

    def part(vertices, per_line: int = 4) -> list[str]:
        if len(vertices) <= per_line:
            return [f"        ({', '.join(map(str, vertices))}{',' if len(vertices) == 1 else ''}),"]
        chunks = [vertices[i : i + per_line] for i in range(0, len(vertices), per_line)]
        return ["        ("] + [f"            {', '.join(map(str, chunk))}," for chunk in chunks] + ["        ),"]

    out = ["_DUAL_VERTICES = {"]
    for (assumptions, reference, sign), parts in table.items():
        out.append(f"    (Assumptions.{assumptions.name}, {reference}, {sign}): (")
        for vertices in parts:
            out += part(vertices)
        out.append("    ),")
    out.append("}")
    return "\n".join(out)


def test_table_equals_fresh_derivation():
    derived = {key: derive_table(*key) for key in TABLE_KEYS}
    if closed_form._DUAL_VERTICES != derived:
        pytest.fail("closed_form._DUAL_VERTICES is stale; replace it with:\n\n" + format_table(derived))


# --- equivalence with the simplex and scipy -----------------------------------

def _translate(dist, spec, cross_min: float, cross_max: float) -> tuple[float, float]:
    if spec.reference == 1:
        mean = dist.outcome_mean(1)
        lower, upper = mean - cross_max, mean - cross_min
    else:
        mean = dist.outcome_mean(0)
        lower, upper = cross_min - mean, cross_max - mean
    return min(1.0, max(-1.0, lower)), min(1.0, max(-1.0, upper))


def served_anie(dist, spec):
    result = anie_bounds(dist, spec)
    try:
        assert anie_bounds_lp(dist, spec) == result
    except AssumptionIncompatibilityError:
        assert result.incompatible
        return None
    assert not result.incompatible
    return result.lower, result.upper


def simplex_anie(dist, spec):
    """delta bounds from the simplex optima, or None when its phase 1 finds no feasible point."""
    try:
        cross_min, cross_max, _, _ = cross_world_range(dist, spec)
    except InfeasibleError:
        return None
    return _translate(dist, spec, cross_min, cross_max)


def scipy_anie(dist, spec):
    """delta bounds from HiGHS's optima of the same program, or None when it is infeasible."""
    cross_min = highs_optimum(build_lp(dist, spec, Sense.MIN))
    cross_max = highs_optimum(build_lp(dist, spec, Sense.MAX))
    if cross_min is None or cross_max is None:
        assert cross_min is None and cross_max is None
        return None
    return _translate(dist, spec, cross_min, cross_max)


def assert_same(where: str, got, want) -> None:
    assert (got is None) == (want is None), f"{where}: verdict {got} vs {want}"
    if got is not None:
        gap = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
        assert gap <= TOL, f"{where}: {got} vs {want} (gap {gap:.3g})"


def sparse_dist(rng):
    """Six units per arm: most tables have empty cells."""
    return from_counts(np.concatenate([rng.multinomial(6, [0.25] * 4), rng.multinomial(6, [0.25] * 4)]).tolist())


def count_dist(rng):
    """Per-arm Dirichlet(1) shares, arm sizes log-uniform on [10, 10^6]."""
    sizes = np.rint(10.0 ** rng.uniform(1.0, 6.0, size=2)).astype(int)
    return from_counts(np.concatenate([rng.multinomial(n, rng.dirichlet(np.ones(4))) for n in sizes]).tolist())


TABLE_KINDS = {"random": random_dist, "sparse": sparse_dist, "counts": count_dist}


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_matches_simplex(kind):
    rng = make_rng(83)
    verdicts = set()
    for i in range(150):
        dist = TABLE_KINDS[kind](rng)
        for spec in ALL_SPECS:
            got = served_anie(dist, spec)
            assert_same(f"{kind} table {i}, {spec}", got, simplex_anie(dist, spec))
            verdicts.add((spec, got is None))
    # Every restricted spec met both verdicts, so both branches were compared.
    for spec in ALL_SPECS:
        assert (spec, False) in verdicts
        if spec.assumptions is not Assumptions.NONE:
            assert (spec, True) in verdicts, spec


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_matches_scipy(kind):
    rng = make_rng(89)
    for i in range(25):
        dist = TABLE_KINDS[kind](rng)
        for spec in ALL_SPECS:
            assert_same(f"{kind} table {i}, {spec}", served_anie(dist, spec), scipy_anie(dist, spec))


BOUNDARY_TABLES = {
    # Mediator ATE exactly 0 in exact arithmetic.
    "atm 0": [3, 2, 1, 4, 4, 1, 0, 5],
    "atm 0, arms of 3 and 6": [1, 1, 0, 1, 1, 2, 1, 2],
    "atm 0, arms of 10^6": [300_000, 200_000, 100_000, 400_000, 100_000, 500_000, 300_000, 100_000],
    # n0 = 10^6 and n1 = 10^6 + 1: n1 - 1 and n0 - 1 mediator units give
    # ATM = +1/(n0 n1); one mediator unit per arm gives -1/(n0 n1).
    "atm +1/(n0 n1)": [1, 400_000, 0, 599_999, 0, 600_000, 1, 400_000],
    "atm +1/(n0 n1), outcomes swapped": [0, 599_999, 1, 400_000, 1, 400_000, 0, 600_000],
    "atm -1/(n0 n1)": [600_000, 1, 399_999, 0, 400_000, 0, 600_000, 1],
    "atm -1/(n0 n1), outcomes swapped": [399_999, 0, 600_000, 1, 600_000, 1, 400_000, 0],
}


@pytest.mark.parametrize("name", BOUNDARY_TABLES)
def test_boundary_verdicts(name):
    dist = from_counts(BOUNDARY_TABLES[name])
    for spec in ALL_SPECS:
        got = served_anie(dist, spec)
        assert_same(f"{name}, {spec}", got, simplex_anie(dist, spec))
        assert_same(f"{name}, {spec}", got, scipy_anie(dist, spec))


def test_tiny_negative_mediator_ate_matches_highs():
    # Mediator ATE -1/(n0 n1) with n0 = 40,001 and n1 = 40,000.  HiGHS, at
    # feasibility tolerances of 1e-10, finds every restricted spec infeasible
    # at both references; the simplex, at FEAS_TOL, finds reference 1
    # feasible, but its interval is crossed by more than ORDER_TOL.
    dist = from_counts([1, 21164, 0, 18836, 1, 30111, 0, 9888])
    for spec in ALL_SPECS:
        want = scipy_anie(dist, spec)
        assert (want is None) is (spec.assumptions is not Assumptions.NONE), spec
        assert_same(str(spec), served_anie(dist, spec), want)

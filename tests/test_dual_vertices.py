"""The dual-vertex table behind ``anie_bounds``: its derivation and its agreement with the simplex.

``conftest.derive_table`` is the table's source of truth and its regeneration
tool: when the checked-in ``closed_form._DUAL_VERTICES`` differs from the
MIN and MAX sides of a fresh brute-force derivation, the failure message
prints the literal to paste in its place.  The derivation's phase-1 vertices
are not kept: below, their optimum is proven to be the mediator ATE's
shortfall, which ``anie_bounds`` compares instead.
"""

from fractions import Fraction

import numpy as np
import pytest

from mediation_bounds import (
    AssumptionIncompatibilityError,
    Assumptions,
    EstimandSpec,
    anie_bounds,
    closed_form,
    from_counts,
    from_probabilities,
)
from mediation_bounds.lp_engine import (
    _CROSS,
    _FACTUAL,
    _M,
    _Y,
    InfeasibleError,
    Sense,
    anie_bounds_lp,
    build_lp,
    cross_world_range,
)
from conftest import derive_table, highs_optimum, make_rng, phase1_rows, random_dist

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

def format_table(table: dict) -> str:
    """The ``_DUAL_VERTICES`` literal as it appears in ``closed_form.py``."""

    def part(vertices, per_line: int = 4) -> list[str]:
        if len(vertices) <= per_line:
            return [f"        ({', '.join(map(str, vertices))}),"]
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


# The 16 vertices of the product of the two arm simplices, one per row: a
# unit cell in arm 0 next to a unit cell in arm 1.  Two forms that agree at
# all 16 agree wherever each arm's cells sum to 1.
ARM_VERTICES = np.array(
    [np.concatenate([np.eye(4, dtype=np.int64)[i], np.eye(4, dtype=np.int64)[j]]) for i in range(4) for j in range(4)]
)
ATM_AT_VERTICES = ARM_VERTICES @ np.array(closed_form._ATM)  # -1, 0 or 1 at each
# The mediator ATE's shortfall as ``anie_bounds`` writes it for a distribution
# without counts: -ATM at either reference, the phase-1 vertex (0, 1, 0, 1, -1)
# at reference 0 and (0, -1, 0, -1, 1) at reference 1.
VERDICT_ROW = (0, 1, 0, 1, 0, -1, 0, -1)


def kept_table() -> dict:
    """The fresh derivation's MIN and MAX sides."""
    return {key: derive_table(*key)[:2] for key in TABLE_KEYS}


def test_table_equals_fresh_derivation():
    kept = kept_table()
    if closed_form._DUAL_VERTICES != kept:
        pytest.fail("closed_form._DUAL_VERTICES is stale; replace it with:\n\n" + format_table(kept))


def test_printed_table_reads_back():
    # The literal the failure message prints evaluates to the table it
    # prints, for parts of up to 4 vertices and of more.
    tables = ({key: derive_table(*key) for key in TABLE_KEYS}, kept_table())
    for table in tables:
        assert eval(format_table(table).split(" = ", 1)[1], {"Assumptions": Assumptions}) == table
    sizes = {len(part) for table in tables for parts in table.values() for part in parts}
    assert {2, 7} <= sizes


@pytest.mark.parametrize("key", TABLE_KEYS, ids=lambda k: f"{k[0].value}-ref{k[1]}-sign{k[2]:+d}")
def test_verdict_row_is_the_phase1_optimum(key):
    # The brute-force phase-1 optimum is the max of r . p over every derived
    # phase-1 row r; the package decides on max(0, verdict . p), 0 for NONE.
    # Checked in integers: the verdict row and the zero row are both derived,
    # so the package's value is at most the brute force's, and no derived row
    # exceeds max(0, verdict . p), so the brute force's is at most the
    # package's.  Each side is linear on the pieces {ATM >= 0} and
    # {ATM <= 0} of the product of the arm simplices.  An edge of the product
    # moves one arm's unit cell, so ATM moves by at most 1 from -1, 0 or 1
    # and no edge crosses ATM = 0: the 16 product vertices are the vertices
    # of both pieces.  The verdict row is -ATM, so the optimum is positive
    # exactly when ATM < 0.
    assumptions, reference, sign = key
    derived = phase1_rows(reference, derive_table(*key)[2])
    assert any((row == 0).all() for row in derived)
    if assumptions is Assumptions.NONE:
        bound = np.zeros(16, dtype=np.int64)
    else:
        verdict = np.array(VERDICT_ROW)
        assert any((row == verdict).all() for row in derived)
        bound = np.maximum(0, ARM_VERTICES @ verdict)
        assert np.array_equal(ARM_VERTICES @ verdict, -ATM_AT_VERTICES)
    above = np.argwhere(derived @ ARM_VERTICES.T > bound)
    if len(above):
        row, vertex = above[0]
        cells = ARM_VERTICES[vertex].tolist()
        pytest.fail(f"phase-1 row {derived[row].tolist()} exceeds max(0, verdict row) at cells {cells}")


@pytest.mark.parametrize("kind", ["random", "counts"])
def test_printed_residual_is_the_verdict_row_summed_in_index_order(kind):
    # The diagnostic's phase-1 residual is, bit for bit, the verdict row's
    # index-order sum, as ``_evaluate`` would give it, on probabilities, and
    # max(0, -ATM) correctly rounded on counts.
    rng = make_rng(97)
    for _ in range(200):
        dist = TABLE_KINDS[kind](rng)
        if kind == "counts":
            k = dist.counts
            shortfall = float(Fraction(k[1] + k[3], dist.n0) - Fraction(k[5] + k[7], dist.n1))
        else:
            shortfall = closed_form._evaluate(np.array([VERDICT_ROW], dtype=float), dist.cells).item()
        for spec in ALL_SPECS:
            want = 0.0 if spec.assumptions is Assumptions.NONE else max(0.0, shortfall)
            assert repr(closed_form._residual(dist, spec)) == repr(want)


# --- soundness over every population -----------------------------------------

# Each atom of the 64-cell law (axes y11, y10, y01, y00, m1, m0) as its observed
# cells, arm a showing Y(a, M(a)) and M(a), and as its delta(0) and delta(1).
ATOM_CELLS = np.array(
    [(_FACTUAL[a] == y) & (_M[a] == m) for a in (0, 1) for y in (0, 1) for m in (0, 1)], dtype=np.int64
).reshape(8, 64)
ATOM_DELTA = ((_CROSS[0] - _FACTUAL[0]).reshape(64), (_FACTUAL[1] - _CROSS[1]).reshape(64))
# 64 + 64 + 48 + 48 + 4 * 180 = 944 vertices over the eight specs.
VERTEX_COUNTS = {Assumptions.NONE: 64, Assumptions.MMR: 48, Assumptions.MMR_POS_MEDIATOR: 180}


def assumption_vertices(spec: EstimandSpec) -> np.ndarray:
    """The vertices of the spec's set of 64-cell laws, one column of integer atom weights each.

    The set is read from ``build_lp``'s rows, mapped to the atoms through
    their strata at the reference.  A zero right-hand-side equality (a defier
    row) has nonnegative coefficients, so it keeps the atoms where it is 0.
    The one inequality g . psi >= 0, if any, keeps the atoms with g >= 0 and
    adds, for each pair with g(u) > 0 > g(w), the point -g(w) u + g(u) w on
    g = 0.  The weights are not normalized: everything checked against them
    is linear with no constant term, so a positive scale changes no sign.
    """
    ref = spec.reference
    lp = build_lp(from_counts([1, 2, 3, 4, 5, 6, 7, 8]), spec, Sense.MIN)  # every data row has rhs > 0
    stratum = (8 * _Y[ref][1] + 4 * _Y[ref][0] + 2 * _M[1] + _M[0]).reshape(64)
    keep = np.ones(64, dtype=bool)
    for row, rhs in lp.equalities:
        if rhs == 0.0:
            on_atoms = np.array(row)[stratum]
            assert (on_atoms >= 0).all()
            keep &= on_atoms == 0
    assert len(lp.inequalities) <= 1
    gap = np.zeros(64, dtype=np.int64)
    for row, _ in lp.inequalities:
        gap = np.rint(np.array(row)[stratum]).astype(np.int64)
    atoms = np.flatnonzero(keep & (gap >= 0))
    pos, neg = np.flatnonzero(keep & (gap > 0)), np.flatnonzero(keep & (gap < 0))
    u, w = np.repeat(pos, len(neg)), np.tile(neg, len(pos))
    weights = np.zeros((64, len(atoms) + len(u)), dtype=np.int64)
    weights[atoms, np.arange(len(atoms))] = 1
    pairs = np.arange(len(atoms), weights.shape[1])
    weights[u, pairs] = -gap[w]
    weights[w, pairs] = gap[u]
    return weights


@pytest.mark.parametrize(
    "spec", ALL_SPECS, ids=lambda s: f"{s.assumptions.value}-ref{s.reference}-sign{s.mediator_effect_sign:+d}"
)
def test_sound_on_every_population(spec):
    # Every bounding expression, verdict row and delta(ref) is linear in the
    # law, so checking the vertices of the spec's set of laws covers every
    # population in it, those on the verdict boundary included, exactly.
    table = closed_form._spec_table(spec)
    rows = closed_form._ROWS[table.start : table.stop]
    coeffs = np.rint(rows).astype(np.int64)
    assert np.array_equal(coeffs, rows)
    if spec.assumptions is not Assumptions.NONE:
        coeffs = np.vstack([coeffs, VERDICT_ROW])
    weights = assumption_vertices(spec)
    values = coeffs @ ATOM_CELLS @ weights
    delta = ATOM_DELTA[spec.reference] @ weights
    n_lo, n_bounds = table.uppers_at - table.start, table.stop - table.start
    for name, bad in (
        ("lower expression above delta", values[:n_lo] > delta),
        ("upper expression below delta", values[n_lo:n_bounds] < delta),
        ("verdict row positive", values[n_bounds:] > 0),
    ):
        rows_at, vertices_at = np.nonzero(bad)
        if len(rows_at):
            vertex = weights[:, vertices_at[0]]
            atoms = {int(i): int(vertex[i]) for i in np.flatnonzero(vertex)}
            pytest.fail(f"{name}: its row {rows_at[0]}, at the vertex with atom weights {atoms}")
    # Each expression meets delta(ref) somewhere, and the verdict row meets 0,
    # so none is slack on the whole set.
    assert (values[:n_bounds] == delta).any(axis=1).all()
    assert (values[n_bounds:] == 0).any(axis=1).all()
    assert weights.shape[1] == VERTEX_COUNTS[spec.assumptions]


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
    counts = BOUNDARY_TABLES[name]
    dist = from_counts(counts)
    short = Fraction(counts[5] + counts[7], sum(counts[4:])) < Fraction(counts[1] + counts[3], sum(counts[:4]))
    # Without its counts the same table is judged at FEAS_TOL, as the solvers judge it.
    twin = from_probabilities(dist.arm(0), dist.arm(1))
    for spec in ALL_SPECS:
        where = f"{name}, {spec}"
        solvers = simplex_anie(dist, spec), scipy_anie(dist, spec)
        got = served_anie(dist, spec)
        if short and spec.assumptions is not Assumptions.NONE:
            # ATM = -1/(n0 n1) is flagged exactly, though both solvers, at
            # their feasibility tolerances, find a feasible point; the
            # interval reported as computed is their optimum.
            assert got is None, where
            res = anie_bounds(dist, spec)
            got = res.lower, res.upper
        for want in solvers:
            assert_same(where, got, want)
            assert_same(where, served_anie(twin, spec), want)


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

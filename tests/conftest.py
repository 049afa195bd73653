"""Shared fixtures: canonical distributions, random generators, benchmark populations,
and the brute-force derivation of the dual-vertex table."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest

from mediation_bounds import (
    Assumptions,
    EstimandSpec,
    ObservedDistribution,
    atm,
    closed_form,
    from_counts,
    from_probabilities,
)
from mediation_bounds.lp_engine import LinearProgram, Sense, build_lp
from mediation_bounds.oracle import FullPopulation64


@pytest.fixture
def uniform_dist() -> ObservedDistribution:
    """All eight observed cells 1/4 within each arm."""
    return from_counts([25] * 8)


@pytest.fixture
def e1_dist() -> ObservedDistribution:
    """Benchmark table: arm-1 counts (10,20,30,40), arm-0 counts (40,30,20,10).

    Cell order within an arm is (y=0,m=0), (y=0,m=1), (y=1,m=0), (y=1,m=1).
    ATE = 0.4, mediator margin difference = 0.2.
    """
    return from_counts([40, 30, 20, 10, 10, 20, 30, 40])


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_dist(rng: np.random.Generator) -> ObservedDistribution:
    """Dirichlet(1) draw per arm: dense interior distributions."""
    return from_probabilities(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))


def random_mmr_dist(rng: np.random.Generator) -> ObservedDistribution:
    """Random distribution satisfying the nonneg mediator-margin-difference check."""
    while True:
        dist = random_dist(rng)
        if atm(dist) >= 0.0:
            return dist


def arm_mediator_relabel(dist: ObservedDistribution) -> ObservedDistribution:
    """Swap treatment arms and recode the mediator (m -> 1-m) simultaneously.

    Under this relabelling the indirect effect through the new reference arm 1
    equals the negated indirect effect through the old reference arm 0, and the
    mediator margin difference is unchanged.
    """
    swap_m = [1, 0, 3, 2]
    return from_probabilities(dist.arm(1)[swap_m], dist.arm(0)[swap_m])


# HiGHS's default primal feasibility tolerance (1e-7) is looser than the
# package's phase-1 tolerance (1e-9); tighten it so verdicts are comparable.
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def highs_optimum(lp: LinearProgram) -> float | None:
    """Reference optimum from scipy's HiGHS solver on the same program, or None when it is infeasible."""
    import scipy.optimize

    c = np.array(lp.objective)
    if lp.sense is Sense.MAX:
        c = -c
    a_ub = b_ub = None
    if lp.inequalities:
        a_ub = -np.array([row for row, _ in lp.inequalities])
        b_ub = -np.array([rhs for _, rhs in lp.inequalities])
    res = scipy.optimize.linprog(
        c,
        A_eq=np.array([row for row, _ in lp.equalities]),
        b_eq=np.array([rhs for _, rhs in lp.equalities]),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0, None),
        method="highs",
        options=_HIGHS,
    )
    if res.status == 2:
        return None
    assert res.success, res.message
    return -float(res.fun) if lp.sense is Sense.MAX else float(res.fun)


def _product_stratum(
    q: np.ndarray,
    mass: float,
    m1: int,
    m0: int,
    p11: float,
    p10: float,
    p01: float,
    p00: float,
) -> None:
    """Add a principal stratum whose four outcome coordinates are independent."""
    margins = (p11, p10, p01, p00)
    for flat in range(16):
        bits = [(flat >> (3 - k)) & 1 for k in range(4)]
        w = mass
        for bit, p in zip(bits, margins):
            w *= p if bit else 1.0 - p
        q[bits[0], bits[1], bits[2], bits[3], m1, m0] += w


def calibration_population() -> FullPopulation64:
    """Fixed monotone-mediator population used for repeated-sampling checks.

    Composition: 30% compliers (mediator 0 -> 1 under treatment) with outcome
    uplift 0.33 in the treated arm, 14% always-takers, 56% never-takers.
    Implied quantities: mediator margin difference 0.30, true delta(1) = 0.099,
    sharp interval under the monotone-mediator restriction [-0.10, 0.30], with
    the two upper expressions (0.30 and 0.34) close enough that both survive
    selection at n = 1000 per arm.
    """
    q = np.zeros((2,) * 6)
    _product_stratum(q, 0.30, 1, 0, 0.70, 0.37, 0.50, 0.50)
    _product_stratum(q, 0.14, 1, 1, 13 / 14, 13 / 14, 0.50, 0.50)
    _product_stratum(q, 0.56, 0, 0, 0.50, 0.50, 0.50, 0.50)
    return FullPopulation64(q)


def unique_binding_population() -> FullPopulation64:
    """Monotone-mediator population where one expression binds per side.

    Sharp interval [-0.0425, 0.25]: the margin difference 0.25 binds the upper
    bound (arm-1 cell expression 0.5575 is slack), and the arm-1 cell
    expression -0.0425 binds the lower bound (margin -0.25 is slack), so
    selection keeps a single expression on each side at n = 1000 per arm.
    True delta(1) = 0.10, strictly interior.
    """
    q = np.zeros((2,) * 6)
    _product_stratum(q, 0.25, 1, 0, 0.90, 0.50, 0.50, 0.50)
    _product_stratum(q, 0.35, 1, 1, 0.95, 0.95, 0.50, 0.50)
    _product_stratum(q, 0.40, 0, 0, 0.50, 0.50, 0.50, 0.50)
    return FullPopulation64(q)


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


def _projected(vertices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Distinct vertices as 5-tuples over b's rows, the sign row's coordinate (its right-hand side is 0) dropped."""
    return tuple(sorted({tuple(int(v) for v in row[:5]) for row in vertices}))


@functools.cache
def derive_table(assumptions: Assumptions, reference: int, sign: int):
    """(MIN-side, MAX-side, phase-1) dual vertices of ``build_lp``'s program, every phase-1 vertex included.

    Brute force, about a second for all eight specs, so it runs once per
    session: ``tests/test_dual_vertices.py`` checks ``closed_form._DUAL_VERTICES``
    against its first two parts and the verdict against its third, and
    ``tests/test_closed_form.py`` builds its reference route from it.
    """
    dist = from_counts([1, 2, 3, 4, 5, 6, 7, 8])  # only the right-hand side depends on the table
    lp = build_lp(dist, EstimandSpec(reference, assumptions, sign), Sense.MIN)
    eq = np.array([row for row, _ in lp.equalities])
    eq_rhs = np.array([rhs for _, rhs in lp.equalities])
    defier = (eq.sum(axis=1) == 1) & (eq_rhs == 0)
    data = ~defier
    # The right-hand sides the package evaluates the vertices against, in table order.
    rhs = np.concatenate([dist.arm(reference), [dist.mediator_margin(1 - reference)]])
    assert np.array_equal(eq_rhs[data], rhs)

    # Defier rows zero their strata: drop both.  Inequality rows get a surplus column.
    kept = ~eq[defier].any(axis=0)
    ineq = np.array([row for row, _ in lp.inequalities]).reshape(-1, 16)
    assert all(rhs_i == 0.0 for _, rhs_i in lp.inequalities)
    n_ineq = len(ineq)
    A = np.vstack([eq[data][:, kept], ineq[:, kept]])
    A = np.hstack([A, np.vstack([np.zeros((len(A) - n_ineq, n_ineq)), -np.eye(n_ineq)])])
    c = np.concatenate([np.array(lp.objective)[kept], np.zeros(n_ineq)])

    # min c.x s.t. A x = b, x >= 0 has dual max b.y s.t. A^T y <= c; the max
    # side is its mirror.
    lower = _projected(polytope_vertices(A.T, c))
    upper = _projected(polytope_vertices(-A.T, -c))
    # Phase 1 minimizes the artificials of A x + art = b; its dual is
    # max b.y s.t. A^T y <= 0, y <= 1.
    m = len(A)
    phase1 = polytope_vertices(np.vstack([A.T, np.eye(m)]), np.concatenate([np.zeros(A.shape[1]), np.ones(m)]))
    return lower, upper, _projected(phase1)


def phase1_rows(reference: int, vertices) -> np.ndarray:
    """Phase-1 vertices as integer rows on the cell vector, in ``closed_form``'s canonical form.

    A vertex v is read against b = (the four reference-arm cells, the
    opposite arm's mediator margin), as ``_DUAL_VERTICES`` is.
    """
    rows = []
    for v in vertices:
        w = [0] * 8
        w[4 * reference : 4 * reference + 4] = v[:4]
        w[5 - 4 * reference] = w[7 - 4 * reference] = v[4]
        rows.append(closed_form._canonical(w))
    return np.array(rows, dtype=np.int64).reshape(-1, 8)

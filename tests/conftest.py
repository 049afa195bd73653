"""Shared fixtures: canonical distributions, random generators, benchmark populations."""

from __future__ import annotations

import numpy as np
import pytest

from mediation_bounds import (
    ObservedDistribution,
    atm,
    from_counts,
    from_probabilities,
)
from mediation_bounds.lp_engine import LinearProgram, Sense
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

"""Linear-programming route to sharp indirect-effect bounds.

The decision variables are the sixteen augmented principal strata

    psi[yA, yB, m1, m0] = P(Y(ref, 1) = yA, Y(ref, 0) = yB, M(1) = m1, M(0) = m0)

for a fixed reference arm ``ref``: each stratum fixes both potential mediator
values and both potential reference-arm outcomes.  Every quantity the bounds
need is linear in psi:

* reference-arm joint cells pin four linear combinations of psi,
* the opposite arm contributes only its mediator margin P(M = 1 | A = 1-ref),
* mediator monotonicity zeroes the four defier strata (m1, m0) = (0, 1),
* the signed mediator-on-outcome restriction is one inequality
  sign * (P(yA=1, yB=0) - P(yA=0, yB=1)) >= 0,
* the cross-world mean E[Y(ref, M(1-ref))] is the objective.

Each row is a sixteen-stratum slice of one set of six-axis potential-outcome
grids, defined here once; ``oracle`` builds its maps to the observables and the
true effects from the same grids, so the LP and its ground truth share one model.

Extremizing the objective over this polytope and translating back to
delta(ref) gives bounds that are sharp by construction.  Only the program's
right-hand side depends on the data, so by LP duality its optima are maxima
and minima over a fixed list of integer dual vertices (Balke and Pearl, 1997;
Sachs et al., 2023).  ``closed_form`` holds that list and derives every
bounding expression from it, so requests never run a solver here.
``anie_bounds_lp``, a front door over ``closed_form.anie_bounds``, stays only
because the benchmark under ``perfbench/`` calls it by name.

The dense two-phase primal simplex with Bland's rule (``solve``) is kept for
what the vertex list cannot give: witness stratum distributions attaining
each endpoint (``cross_world_range``, used by ``oracle.sharpness_check``), and
the tests that carry its sharpness proof over to the served values.  Both
phases run on one tableau, and the equality rows have full rank.  The programs
are tiny (16 + at most 1 surplus variable, at most 10 rows), so a bespoke
dense implementation is simpler to certify at the 1e-9 contract than a
general sparse solver dependency, and its witnesses come back in the stratum
layout the oracle needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .closed_form import anie_bounds
from .model import (
    _TIE_TOL,
    FEAS_TOL,
    PIVOT_TOL,
    SIMPLEX_TOL,
    AssumptionIncompatibilityError,
    Assumptions,
    BoundsResult,
    EstimandSpec,
    ObservedDistribution,
    ValidationError,
    _checked_ints,
    _checked_masses,
)

_MAX_PIVOTS = 10_000


class Sense(enum.Enum):
    MIN = "min"
    MAX = "max"


def strata_index(y_a: int, y_b: int, m1: int, m0: int) -> int:
    """Flat index of stratum (Y(ref,1)=y_a, Y(ref,0)=y_b, M(1)=m1, M(0)=m0)."""
    return 8 * y_a + 4 * y_b + 2 * m1 + m0


# Index grids over the six binary potential variables, axes (y11, y10, y01, y00, m1, m0),
# where y{a}{m} is Y(a, m) and m{a} is M(a).  The LP rows and the oracle's maps use only these.
_Y11, _Y10, _Y01, _Y00, _M1, _M0 = np.indices((2,) * 6)
_M = (_M0, _M1)  # _M[a] = M(a)
_Y = ((_Y00, _Y01), (_Y10, _Y11))  # _Y[a][m] = Y(a, m)
_FACTUAL = tuple(np.where(_M[a] == 1, _Y[a][1], _Y[a][0]) for a in (0, 1))  # Y(a, M(a))
_CROSS = tuple(np.where(_M[1 - a] == 1, _Y[a][1], _Y[a][0]) for a in (0, 1))  # Y(a, M(1-a))
_DEFIER = (_M1 == 0) & (_M0 == 1)


def _strata(grid: np.ndarray, reference: int) -> np.ndarray:
    """A six-axis grid as sixteen stratum coefficients at ``reference``.

    Holding the other arm's outcome axes at 0 leaves (Y(ref, 1), Y(ref, 0), M(1), M(0)) in ``strata_index`` order.
    """
    return (grid[:, :, 0, 0] if reference == 1 else grid[0, 0]).reshape(16)


@dataclass(frozen=True, eq=False)
class StrataDistribution16:
    """A distribution over the sixteen augmented strata at one reference level."""

    psi: np.ndarray
    reference: int

    def __post_init__(self) -> None:
        arr = _checked_masses(self.psi, (16,), "stratum masses", -FEAS_TOL, np.inf, 1, FEAS_TOL)
        (reference,) = _checked_ints("reference must be an integer", self.reference)
        if reference not in (0, 1):
            raise ValidationError(f"reference must be 0 or 1, got {reference}")
        arr = np.clip(arr, 0.0, None)
        arr.flags.writeable = False
        object.__setattr__(self, "psi", arr)
        object.__setattr__(self, "reference", reference)

    def mass(self, y_a: int, y_b: int, m1: int, m0: int) -> float:
        return float(self.psi[strata_index(y_a, y_b, m1, m0)])

    def defier_mass(self) -> float:
        return float(self.psi[_strata(_DEFIER, self.reference)].sum())


@dataclass(frozen=True)
class LinearProgram:
    """A small LP over the sixteen strata, rows stored densely.

    ``equalities`` and ``inequalities`` are tuples of (coefficients, rhs);
    inequality rows are of the form coeffs . psi >= rhs.  The equality rows
    are linearly independent, as ``solve`` needs, and each rhs is a probability.
    """

    objective: tuple[float, ...]
    equalities: tuple[tuple[tuple[float, ...], float], ...]
    inequalities: tuple[tuple[tuple[float, ...], float], ...]
    sense: Sense
    reference: int
    row_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.objective) != 16:
            raise ValidationError("objective must have 16 coefficients")
        for coeffs, rhs in self.equalities:
            if len(coeffs) != 16:
                raise ValidationError("equality rows must have 16 coefficients")
            if not (-SIMPLEX_TOL <= rhs <= 1.0 + SIMPLEX_TOL):
                raise ValidationError(f"probability row rhs {rhs!r} outside [0, 1]")
        if np.linalg.matrix_rank(np.array([coeffs for coeffs, _ in self.equalities])) < len(self.equalities):
            raise ValidationError("equality rows must be linearly independent")
        for coeffs, rhs in self.inequalities:
            if len(coeffs) != 16:
                raise ValidationError("inequality rows must have 16 coefficients")


class InfeasibleError(RuntimeError):
    """The program has no feasible point; carries the most-violated constraint and the phase-1 optimum."""

    def __init__(self, message: str, *, constraint: str, residual: float):
        super().__init__(message)
        self.constraint = constraint
        self.residual = residual


def build_lp(dist: ObservedDistribution, spec: EstimandSpec, sense: Sense) -> LinearProgram:
    """Assemble the stratum LP whose optimum is the extreme cross-world mean.

    The objective is E[Y(ref, M(1-ref))]; ``anie_bounds_lp`` translates its
    extrema into bounds on delta(ref).
    """
    ref = spec.reference
    p_ref = dist.arm(ref)

    def row(grid: np.ndarray) -> tuple[float, ...]:
        return tuple(_strata(grid, ref).astype(float))

    equalities: list[tuple[tuple[float, ...], float]] = []
    labels: list[str] = []
    # Reference-arm joint cells, which also fix the total mass: arm ref reveals its factual outcome and mediator.
    for y in (0, 1):
        for m in (0, 1):
            equalities.append((row((_FACTUAL[ref] == y) & (_M[ref] == m)), float(p_ref[2 * y + m])))
            labels.append(f"arm {ref} joint cell (y={y}, m={m})")
    # The opposite arm identifies only its mediator margin.
    equalities.append((row(_M[1 - ref]), float(dist.mediator_margin(1 - ref))))
    labels.append(f"arm {1 - ref} mediator margin P(M=1|A={1 - ref})")

    if spec.assumptions in (Assumptions.MMR, Assumptions.MMR_POS_MEDIATOR):
        for a in (0, 1):
            for b in (0, 1):
                equalities.append((row(_DEFIER & (_Y[ref][1] == a) & (_Y[ref][0] == b)), 0.0))
                labels.append(f"no mediator defiers: psi({a},{b},0,1) = 0")

    inequalities: list[tuple[tuple[float, ...], float]] = []
    if spec.assumptions is Assumptions.MMR_POS_MEDIATOR:
        # Signed in integers, so a zero coefficient prints as 0, never -0.
        inequalities.append((row(spec.mediator_effect_sign * (_Y[ref][1] - _Y[ref][0])), 0.0))
        labels.append(f"mediator effect on arm-{ref} outcome has sign {spec.mediator_effect_sign:+d}")

    return LinearProgram(
        objective=row(_CROSS[ref]),
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        sense=sense,
        reference=ref,
        row_labels=tuple(labels),
    )


def format_lp(lp: LinearProgram) -> str:
    """Stable one-line-per-row text dump for debugging and golden tests."""

    def fmt_row(coeffs) -> str:
        return " ".join(f"{c:.12g}" for c in coeffs)

    lines = [f"# reference={lp.reference} rows={len(lp.equalities) + len(lp.inequalities)}"]
    lines.append(f"{lp.sense.name} {fmt_row(lp.objective)}")
    for coeffs, rhs in lp.equalities:
        lines.append(f"EQ {fmt_row(coeffs)} = {rhs:.12g}")
    for coeffs, rhs in lp.inequalities:
        lines.append(f"GE {fmt_row(coeffs)} >= {rhs:.12g}")
    return "\n".join(lines) + "\n"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _bland(T: np.ndarray, basis: np.ndarray, ncols: int) -> None:
    # Bland's smallest-index rules on both the entering and leaving choice;
    # guarantees termination despite the heavy degeneracy of these programs.
    m = T.shape[0] - 1
    for _ in range(_MAX_PIVOTS):
        reduced = T[m, :ncols]
        entering = np.flatnonzero(reduced < -PIVOT_TOL)
        if entering.size == 0:
            return
        col = int(entering[0])
        column = T[:m, col]
        positive = column > PIVOT_TOL
        if not positive.any():
            raise RuntimeError("simplex found no blocking row for an entering column")
        ratios = np.full(m, np.inf)
        ratios[positive] = T[:m, -1][positive] / column[positive]
        best = ratios.min()
        candidates = np.flatnonzero(ratios <= best + _TIE_TOL)
        row = int(candidates[np.argmin(basis[candidates])])
        _pivot(T, basis, row, col)
    raise RuntimeError("simplex failed to terminate within the pivot budget")


def solve(lp: LinearProgram) -> tuple[float, StrataDistribution16]:
    """Optimize ``lp``; return the optimal value and a witness stratum distribution.

    Both phases run on one tableau.  Phase 1 starts from the all-artificial
    basis and then pivots each artificial still basic out on the first
    structural entry of its row above ``PIVOT_TOL``; the equality rows have
    full rank, so every such row has one.  Phase 2 re-prices the
    tableau from the objective, and only structural columns enter.  Raises
    :class:`InfeasibleError`, with the phase-1 optimum and the most-violated
    constraint, when the constraints are inconsistent.
    """
    n_ineq = len(lp.inequalities)
    m = len(lp.equalities) + n_ineq
    n = 16 + n_ineq
    # Phase 1 minimizes the total of the artificial columns n .. n + m - 1.
    T = np.zeros((m + 1, n + m + 1))
    for i, (coeffs, rhs) in enumerate(lp.equalities + lp.inequalities):
        T[i, :16] = coeffs
        T[i, -1] = rhs
    T[m - n_ineq : m, 16:n] -= np.eye(n_ineq)  # coeffs . psi >= rhs: coeffs . psi - surplus = rhs
    T[:m][T[:m, -1] < 0.0] *= -1.0  # so that each artificial starts nonnegative
    A, b = T[:m, :n].copy(), T[:m, -1].copy()
    T[:m, n : n + m] = np.eye(m)
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, n + m)
    _bland(T, basis, n + m)
    artificial = basis >= n
    if -T[m, -1] > FEAS_TOL:
        residuals = np.zeros(m)
        residuals[basis[artificial] - n] = T[:m, -1][artificial]
        worst = int(np.argmax(np.abs(residuals)))
        label = lp.row_labels[worst] if worst < len(lp.row_labels) else f"row {worst}"
        residual = float(-T[m, -1])  # the phase-1 optimum, not the named row's part of it
        raise InfeasibleError(
            f"constraints are inconsistent (phase-1 residual {residual:.6g}); most violated: {label}",
            constraint=label,
            residual=residual,
        )
    for i in np.flatnonzero(artificial):
        _pivot(T, basis, i, int(np.flatnonzero(np.abs(T[i, :n]) > PIVOT_TOL)[0]))

    # Phase 2 re-prices the same tableau; only the n structural columns may enter.
    T[m] = 0.0
    T[m, :16] = np.negative(lp.objective) if lp.sense is Sense.MAX else lp.objective
    for i, var in enumerate(basis):
        if T[m, var] != 0.0:
            T[m] -= T[m, var] * T[i]
    _bland(T, basis, n)

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    x = x[:n]
    residual = float(np.abs(A @ x - b).max())
    if residual > FEAS_TOL or x.min() < -FEAS_TOL:
        raise RuntimeError(f"simplex returned an infeasible point (residual {residual:.3g})")
    value = float(np.dot(lp.objective, x[:16]))
    witness = StrataDistribution16(psi=x[:16], reference=lp.reference)
    return value, witness


def cross_world_range(
    dist: ObservedDistribution, spec: EstimandSpec
) -> tuple[float, float, StrataDistribution16, StrataDistribution16]:
    """Extremes of E[Y(ref, M(1-ref))] with the witnesses attaining them."""
    lo_val, lo_wit = solve(build_lp(dist, spec, Sense.MIN))
    hi_val, hi_wit = solve(build_lp(dist, spec, Sense.MAX))
    return lo_val, hi_val, lo_wit, hi_wit


def anie_bounds_lp(dist: ObservedDistribution, spec: EstimandSpec) -> BoundsResult:
    """Sharp bounds on delta(spec.reference), the optima of ``build_lp``'s program.

    A front door over ``closed_form.anie_bounds``, whose expressions are this
    program's dual vertices: it returns the same result, and raises
    :class:`AssumptionIncompatibilityError` where that result is flagged
    incompatible.
    """
    result = anie_bounds(dist, spec)
    if result.incompatible:
        raise AssumptionIncompatibilityError(result.diagnostics[0])
    return result

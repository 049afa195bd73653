"""Estimation and inference for intersection bounds on indirect effects.

The identified set is an intersection of one-sided linear bounds: the lower
endpoint is a max of linear expressions in the cell probabilities and the
upper endpoint a min.  Plug-in max/min estimators are biased inward, so this
module implements adaptive-inequality-selection inference for intersection
bounds: studentized Gaussian draws calibrate a critical value k(level) for
each side, a preliminary critical value discards expressions that are clearly
slack, and endpoint estimators

    lower(level) = max_j [ theta_j - k_lo(level) * se_j ]
    upper(level) = min_j [ theta_j + k_hi(level) * se_j ]

are reported at level 1/2 (half-median-unbiased point bounds) and at
1 - alpha/2 (confidence interval for the identified set).  The max side is
the min side run on negated estimates and deviations.  The theta_j are the
values ``closed_form`` keeps on the distribution, so they are the point bounds' bits.
A table's simulated cell deviations are one C-order (8, draws) array, kept
with the standard errors of every stacked row; each call studentizes its
spec's (k, draws) deviations once, and each k is ``np.quantile``'s default
(linear) value of their row maxima, read off one in-place sort of a
(sides, draws) buffer per selection stage.

Standard errors come from the exact multinomial covariance of the cell
frequencies within each arm, (diag(p) - p p^T) / n: a row r has variance
sum_i p_i (r_i - rbar)^2 / n on it, rbar the p-weighted mean, and the root
diag(u) (I - u u^T) / sqrt(n), u = sqrt(p), shapes the simulated deviations.
Their sums run in cell order, and the rows' small-integer coefficients make
every product exact.  The one matrix product adds in the BLAS kernel's order:
cell order on every kernel tried at an even number of draws, not always at an
odd one.  The p used for simulation and studentization are smoothed with an
add-half adjustment in any arm that has an empty cell, so degenerate samples
still produce usable (if conservative) intervals; point estimates are never
smoothed.

Every function here takes its data as the eight cell counts (shape (8,)) or
as unit records (two-dimensional, (n, 3)); see ``model.as_cell_counts``.
``estimate_distribution``, off the package root, stays only because the
benchmark under ``perfbench/`` calls it by name.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .closed_form import _ROWS, _spec_table, _table_values
from .model import (
    _TIE_TOL,
    _ZERO_SE_TOL,
    ORDER_TOL,
    EstimandSpec,
    InsufficientDataError,
    ObservedDistribution,
    ValidationError,
    _checked_ints,
    as_cell_counts,
    from_counts,
)

_STD_NORMAL = NormalDist()


# Scale of the preliminary critical value that discards slack expressions;
# 2 is the conventional choice.
_SELECTION_SLACK = 2.0

# The most Gaussian draws one simulation may take: its (8, draws) float64
# deviations, 64 MB at the limit, are kept until a call with another table,
# seed or draws replaces them.  A call's peak adds about k * draws floats:
# its k <= 6 studentized rows, the 2-row sort buffer and copies of scattered rows.
_MAX_DRAWS = 1_000_000


@dataclass(frozen=True)
class InferenceConfig:
    """Level, Gaussian draws (100 to 1,000,000) and seed of the simulated critical values.

    Alpha must be a real number (not a bool) in (0, 1) whose two-sided level
    1 - alpha/2 stays below 1 as a float (alpha above 2**-53); it is stored
    as a Python float.  Draws and seed must be integers (not bools) and are
    stored as Python ints.  The selection slack is fixed at 2.
    """

    alpha: float = 0.05
    draws: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ValidationError(f"alpha must be a real number, got {self.alpha!r}")
        # NaN fails both; a huge int fails before its cast, a Fraction that rounds to 0 or 1 after it.
        if not (0 < self.alpha < 1 and 0.0 < float(self.alpha) < 1.0):
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if 1.0 - float(self.alpha) / 2.0 == 1.0:  # the normal quantile at level 1 is infinite
            raise ValidationError(f"alpha must be above 2**-53, got {self.alpha!r}")
        draws, seed = _checked_ints("draws and seed must be integers", self.draws, self.seed)
        if not (100 <= draws <= _MAX_DRAWS):
            raise ValidationError(f"draws must be between 100 and {_MAX_DRAWS:,}, got {draws!r}")
        if not (0 <= seed < 2**64):
            raise ValidationError(f"seed must fit in 64 unsigned bits, got {seed!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class WaldResult:
    """A point estimate with its delta-method standard error and Wald interval."""

    estimate: float
    se: float
    ci: tuple[float, float]


@dataclass(frozen=True)
class ExpressionEstimate:
    """Point estimate and standard error of one bounding expression."""

    label: str
    estimate: float
    se: float


@dataclass(frozen=True)
class SideDiagnostics:
    """Selection and critical-value detail for one side of the interval."""

    selected: tuple[int, ...]
    k0: float
    k_half: float
    k_ci: float
    zero_variance: tuple[int, ...]


@dataclass(frozen=True)
class IntervalEstimate:
    """Estimated identification interval with its confidence interval.

    ``bound_lower_hmu`` and ``bound_upper_hmu`` are the half-median-unbiased
    endpoint estimates; (``ci_lower``, ``ci_upper``) covers the identified set
    with probability 1 - alpha asymptotically.  ``crossed`` marks samples where
    the estimated lower endpoint exceeds the estimated upper endpoint, which
    happens under assumption violation or close to point identification; the
    values are reported as computed.  Likewise no endpoint is clamped to the
    parameter space [-1, 1]; at small n a CI endpoint can lie outside it.
    """

    bound_lower_hmu: float
    bound_upper_hmu: float
    ci_lower: float
    ci_upper: float
    lower_expressions: tuple[ExpressionEstimate, ...]
    upper_expressions: tuple[ExpressionEstimate, ...]
    lower_diagnostics: SideDiagnostics
    upper_diagnostics: SideDiagnostics
    smoothed_arms: tuple[int, ...]
    crossed: bool
    alpha: float

    def __post_init__(self) -> None:
        if self.ci_lower > self.bound_lower_hmu + ORDER_TOL:
            raise ValidationError("lower CI endpoint above the HMU lower estimate")
        if self.ci_upper < self.bound_upper_hmu - ORDER_TOL:
            raise ValidationError("upper CI endpoint below the HMU upper estimate")


def _arm_sizes(cells: list[int]) -> tuple[int, int]:
    n0, n1 = sum(cells[:4]), sum(cells[4:])
    if n0 < 2 or n1 < 2:
        raise InsufficientDataError(f"need at least 2 observations per arm, got n0={n0}, n1={n1}")
    return n0, n1


def _cell_probabilities(cells: list[int], *, smooth: bool) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Each cell's probability and its arm's size (int64), and the arms that were smoothed.

    With ``smooth``, an arm with an empty cell takes add-half probabilities (count + 1/2) / (n + 2).
    The counts are Python ints of at most 2**53, so every quotient is numpy's on int64, bit for bit.
    """
    p, n, smoothed = [], [], []
    for arm, size in enumerate(_arm_sizes(cells)):
        arm_cells = cells[4 * arm : 4 * arm + 4]
        if smooth and 0 in arm_cells:
            smoothed.append(arm)
            p += [(c + 0.5) / (size + 2.0) for c in arm_cells]
        else:
            p += [c / size for c in arm_cells]
        n += [size] * 4
    return np.array(p), np.array(n, dtype=np.int64), tuple(smoothed)


def estimate_distribution(data) -> tuple[ObservedDistribution, np.ndarray]:
    """Cell-probability estimates and their exact 8x8 sampling covariance.

    Covariance rows/columns follow ``ObservedDistribution.cells`` order
    (arm-0 cells then arm-1 cells); the two arms are independent, so the matrix
    is block diagonal with one multinomial block (diag(p) - p p^T) / n per arm.
    """
    counts = as_cell_counts(data)
    p, n, _ = _cell_probabilities(counts.tolist(), smooth=False)
    same_arm = np.arange(8)[:, None] // 4 == np.arange(8) // 4
    return from_counts(counts), np.where(same_arm, (np.diag(p) - np.outer(p, p)) / n[:, None], 0.0)


def _difference_of_means(counts: np.ndarray, ones: list[int], alpha: float) -> WaldResult:
    # ``ones``: the cells (ym order 00, 01, 10, 11) where the variable is 1.
    z = _STD_NORMAL.inv_cdf(1.0 - alpha / 2.0)
    cells = counts.tolist()
    n0, n1 = _arm_sizes(cells)
    k0, k1 = (sum(cells[4 * arm + i] for i in ones) for arm in (0, 1))
    p1, p0 = k1 / n1, k0 / n0
    se = math.sqrt(p1 * (1 - p1) / n1 + p0 * (1 - p0) / n0)
    est = p1 - p0
    return WaldResult(estimate=est, se=se, ci=(est - z * se, est + z * se))


def iot_test(data, config: InferenceConfig = InferenceConfig()) -> WaldResult:
    """Wald test of the mediator ATE (the indirect-only test of mediation).

    A significant mediator ATE plus a significant outcome ATE is the classic
    screening argument for mediation.  Its blind spot: compliers and defiers
    with opposing outcome responses can leave the mediator ATE at zero while
    the indirect effect is large, which is exactly the case bounds detect.
    """
    return _difference_of_means(as_cell_counts(data), [1, 3], config.alpha)


def ate_test(data, config: InferenceConfig = InferenceConfig()) -> WaldResult:
    """Wald estimate of the outcome ATE from the same data."""
    return _difference_of_means(as_cell_counts(data), [2, 3], config.alpha)


def _levels(buffer: np.ndarray, gammas: list[float]) -> list[list[float]]:
    """Sort each row of ``buffer`` in place; per row, ``np.quantile(row, gammas)`` as Python floats.

    This is numpy's default ``linear`` method, written out: the virtual index
    (draws - 1) * gamma falls between the order statistics at its floor and at
    floor + 1 (both the largest once it reaches draws - 1), and numpy's lerp
    form interpolates them.  The values are ``np.quantile``'s bit for bit.
    """
    buffer.sort(axis=1)
    last = buffer.shape[1] - 1
    weights, columns = [], []
    for gamma in gammas:
        virtual = last * gamma
        below = int(virtual)  # the floor, as virtual >= 0
        weights.append(virtual - below)
        columns += [last, last] if virtual >= last else [below, below + 1]
    return [
        [b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t for t, a, b in zip(weights, row[::2], row[1::2])]
        for row in buffer.take(columns, axis=1).tolist()
    ]


def _min_sides(
    sides: list[tuple[tuple[float, ...], tuple[float, ...], np.ndarray, int]], *, n: int, alpha: float
) -> list[tuple[float, float, SideDiagnostics]]:
    """Endpoint estimates for each ``(est, se, stats, sign)`` side: a min of expressions (sign 1) or a max (-1).

    ``est`` and ``se`` are Python floats and ``stats`` the ``(k, draws)`` studentized
    deviations, whose rows with se at most ``_ZERO_SE_TOL`` are never read.  A
    max is the min of the negated estimates and deviations, negated back; IEEE
    rounding is symmetric in sign, so the mirror is exact, and its row maxima
    are the negated row minima of ``stats``, with no negated copy.  Adjacent rows
    are reduced as a view, since a copy of them costs more than the reduction.
    Each stage writes every side's row maxima into one ``(sides, draws)`` buffer
    that ``_levels`` sorts once: ``np.quantile``'s values exactly.  Only a tie
    between +0.0 and -0.0 could sort into another sign bit, and none arises: a
    side with nothing studentizable has an all +0.0 row, and maxima of Gaussian
    draws do not tie at zero.  The rest is Python float arithmetic on 2-4 floats.
    """
    buffer = np.empty((len(sides), sides[0][2].shape[1]))
    mins = [[sign * e for e in est] for est, _, _, sign in sides]
    studentizable = [[i for i, s in enumerate(se) if s > _ZERO_SE_TOL] for _, se, _, _ in sides]

    def critical(chosen: list[list[int]], gammas: list[float]) -> list[list[float]]:
        for row, (_, _, stats, sign), picks in zip(buffer, sides, chosen):
            if not picks:  # zero maxima, whose quantiles are 0
                row.fill(0.0)
                continue
            block = stats[picks[0] : picks[-1] + 1] if picks[-1] - picks[0] < len(picks) else stats[picks]
            if sign > 0:  # large values overshoot the min in its biased (inward) direction
                np.maximum.reduce(block, axis=0, out=row)
            else:
                np.negative(np.minimum.reduce(block, axis=0, out=row), out=row)
        return _levels(buffer, gammas)

    # _arm_sizes keeps n >= 4, so the level 1 - 1/log n is positive.
    k0s = [k0 for (k0,) in critical(studentizable, [1.0 - 1.0 / float(np.log(n))])]

    # Two-step selection: an expression stays only if it clears the best
    # slack-adjusted expression, where each competitor k is credited its own
    # se_k.  The preliminary k0 can be negative at absurdly small n, which
    # could empty the set, so the argmin expression is always retained.
    selections = []
    for est, (_, se, _, _), k0 in zip(mins, sides, k0s):
        step = _SELECTION_SLACK * k0
        cut = min([e + step * s for e, s in zip(est, se)]) + _TIE_TOL
        selections.append([i for i, e in enumerate(est) if e <= cut] or [est.index(min(est))])
    usable = [[i for i in selected if i in stud] for selected, stud in zip(selections, studentizable)]

    # Endpoint estimators minimize over the surviving set only; dropping a
    # slack expression can only move the estimate away from the biased
    # direction, so the half-median property is preserved.
    results = []
    for est, (_, se, _, sign), stud, selected, k0, (k_half, k_ci) in zip(
        mins, sides, studentizable, selections, k0s, critical(usable, [0.5, 1.0 - alpha / 2.0])
    ):
        hmu, ci = (min([est[i] + k * se[i] for i in selected]) for k in (k_half, k_ci))
        diag = SideDiagnostics(
            selected=tuple(selected),
            k0=k0,
            k_half=k_half,
            k_ci=k_ci,
            zero_variance=tuple(i for i in range(len(est)) if i not in stud),
        )
        results.append((sign * hmu, sign * ci, diag))
    return results


@functools.lru_cache(maxsize=1)
def _simulation(counts: tuple[int, ...], seed: int, draws: int) -> tuple[
    ObservedDistribution, np.ndarray, np.ndarray, tuple[int, ...], np.ndarray, tuple[float, ...], np.ndarray
]:
    """One table's distribution, smoothed cell probabilities, arm sizes and smoothed arms, the standard
    errors of every row of ``_ROWS`` (an array and its Python floats) and the simulated cell deviations.

    A row's se is sqrt(sum_i p_i (r_i - rbar)^2 / n), each sum a cumsum in cell
    order and every step row-wise, so each row has the bits of any slice of
    rows.  The deviations are the C-order (8, draws) array z of standard normals,
    one row per cell, made (z - (z.u) u) * u / sqrt(n), u = sqrt(p), in place by
    block operations on each arm's four rows, with z.u added in cell order.
    Every spec of a table with the same seed and draws shares this seeded
    simulation, so consecutive calls reuse it; the arrays are read-only.
    """
    p, n, smoothed_arms = _cell_probabilities(list(counts), smooth=True)
    dist = from_counts(counts)
    arm_means = np.cumsum((_ROWS * p).reshape(-1, 4), axis=1)[:, -1].reshape(-1, 2)
    se = np.sqrt(np.cumsum(p * (_ROWS - np.repeat(arm_means, 4, axis=1)) ** 2 / n, axis=1)[:, -1])
    u = np.sqrt(p)[:, None]
    scale = u / np.sqrt(n)[:, None]
    z = np.random.default_rng(seed).standard_normal((8, draws))
    prod = np.empty((4, draws))
    for arm in (slice(0, 4), slice(4, 8)):
        np.multiply(z[arm], u[arm], out=prod)
        np.multiply(prod[0] + prod[1] + prod[2] + prod[3], u[arm], out=prod)
        z[arm] -= prod
        z[arm] *= scale[arm]
    for array in (p, n, se, z):
        array.setflags(write=False)
    return dist, p, n, smoothed_arms, se, tuple(se.tolist()), z


def clr_bounds(data, spec: EstimandSpec, config: InferenceConfig = InferenceConfig()) -> IntervalEstimate:
    """Half-median-unbiased bound estimates and a confidence interval for the
    identified set of delta(spec.reference).

    Serves every (assumption set, reference, sign) spec: the intersection is
    over the expressions of ``closed_form.anie_expressions(spec)``.  Their
    estimates are the values the point bounds read, kept on the simulation's
    distribution, and their coefficient rows the same slice of the stacked
    table.  One seeded Gaussian sample drives both sides and every quantile
    level, so critical values are monotone across levels by construction and
    results are bit-reproducible for a fixed config.  Consecutive calls on the
    same counts, seed and draws (every spec of one table) share that sample and
    the rows' standard errors.  Its (k, draws) studentized deviations are formed
    once; each side reads its rows.
    """
    table = _spec_table(spec)
    lowers, uppers, at = table.lowers, table.uppers, slice(table.start, table.stop)
    n_lo = len(lowers)
    counts = tuple(as_cell_counts(data).tolist())
    dist, _, _, smoothed_arms, se_rows, se_floats, cell_devs = _simulation(counts, config.seed, config.draws)

    est, se = _table_values(dist)[at], se_floats[at]
    stats = _ROWS[at] @ cell_devs
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-se rows are never read
        stats /= se_rows[at, None]

    sides = [(est[:n_lo], se[:n_lo], stats[:n_lo], -1), (est[n_lo:], se[n_lo:], stats[n_lo:], 1)]
    (hmu_lo, ci_lo, diag_lo), (hmu_up, ci_up, diag_up) = _min_sides(sides, n=dist.n0 + dist.n1, alpha=config.alpha)
    exprs = [ExpressionEstimate(e.label, v, s) for e, v, s in zip(lowers + uppers, est, se)]

    return IntervalEstimate(
        bound_lower_hmu=hmu_lo,
        bound_upper_hmu=hmu_up,
        ci_lower=ci_lo,
        ci_upper=ci_up,
        lower_expressions=tuple(exprs[:n_lo]),
        upper_expressions=tuple(exprs[n_lo:]),
        lower_diagnostics=diag_lo,
        upper_diagnostics=diag_up,
        smoothed_arms=smoothed_arms,
        crossed=hmu_lo > hmu_up + ORDER_TOL,
        alpha=config.alpha,
    )

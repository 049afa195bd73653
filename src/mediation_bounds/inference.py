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
Each k is ``np.quantile``'s default (linear) value of the studentized row
maxima, read off one sort per selection stage rather than computed by it.

Standard errors come from the exact multinomial covariance of the cell
frequencies within each arm.  The covariance matrix used for simulation and
studentization is smoothed with an add-half adjustment in any arm that has an
empty cell, so degenerate samples still produce usable (if conservative)
intervals; point estimates are never smoothed.

Every function here takes its data as the eight cell counts (shape (8,)) or
as unit records (two-dimensional, (n, 3)); see ``model.as_cell_counts``.
``estimate_distribution``, off the package root, stays only because the
benchmark under ``perfbench/`` calls it by name.
"""

from __future__ import annotations

import functools
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

# The most Gaussian draws one simulation may take: its (draws, 8) float64
# matrix, 64 MB at the limit, is kept until a call with another table, seed
# or draws replaces it.
_MAX_DRAWS = 1_000_000


@dataclass(frozen=True)
class InferenceConfig:
    """Level, Gaussian draws (100 to 1,000,000) and seed of the simulated critical values.

    Alpha must be a real number (not a bool) in (0, 1) and is stored as a
    Python float.  Draws and seed must be integers (not bools) and are stored
    as Python ints.  The selection slack is fixed at 2.
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


def _arm_sizes(counts: np.ndarray) -> tuple[int, int]:
    n0, n1 = int(counts[:4].sum()), int(counts[4:].sum())
    if n0 < 2 or n1 < 2:
        raise InsufficientDataError(f"need at least 2 observations per arm, got n0={n0}, n1={n1}")
    return n0, n1


def _distribution(counts: np.ndarray) -> ObservedDistribution:
    _arm_sizes(counts)
    return from_counts(counts)


def _multinomial_cov(counts: np.ndarray, *, smooth: bool) -> tuple[np.ndarray, tuple[int, ...]]:
    """The 8x8 sampling covariance of the cell frequencies, one multinomial block per arm.

    With ``smooth``, an arm with an empty cell takes add-half probabilities
    (count + 1/2) / (n + 2); the smoothed arms are returned with the matrix.
    """
    cov = np.zeros((8, 8))
    smoothed = []
    for a in (0, 1):
        arm = counts[4 * a : 4 * a + 4]
        n = int(arm.sum())
        if smooth and (arm == 0).any():
            p = (arm + 0.5) / (n + 2.0)
            smoothed.append(a)
        else:
            p = arm / n
        cov[4 * a : 4 * a + 4, 4 * a : 4 * a + 4] = (np.diag(p) - np.outer(p, p)) / n
    return cov, tuple(smoothed)


def estimate_distribution(data) -> tuple[ObservedDistribution, np.ndarray]:
    """Cell-probability estimates and their exact 8x8 sampling covariance.

    Covariance rows/columns follow ``ObservedDistribution.cells`` order
    (arm-0 cells then arm-1 cells); the two arms are independent, so the matrix
    is block diagonal with one multinomial block per arm.
    """
    counts = as_cell_counts(data)
    dist = _distribution(counts)
    return dist, _multinomial_cov(counts, smooth=False)[0]


def _cov_sqrt(cov: np.ndarray) -> np.ndarray:
    root = np.zeros_like(cov)
    for a in (0, 1):
        block = cov[4 * a : 4 * a + 4, 4 * a : 4 * a + 4]
        w, v = np.linalg.eigh(block)
        root[4 * a : 4 * a + 4, 4 * a : 4 * a + 4] = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return root


def _difference_of_means(counts: np.ndarray, ones: list[int], alpha: float) -> WaldResult:
    # ``ones``: the cells (ym order 00, 01, 10, 11) where the variable is 1.
    z = _STD_NORMAL.inv_cdf(1.0 - alpha / 2.0)
    n0, n1 = _arm_sizes(counts)
    k0, k1 = counts.reshape(2, 4)[:, ones].sum(axis=1).tolist()
    p1, p0 = k1 / n1, k0 / n0
    se = float(np.sqrt(p1 * (1 - p1) / n1 + p0 * (1 - p0) / n0))
    est = float(p1 - p0)
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


def _row_max(devs: np.ndarray, se: np.ndarray, usable: np.ndarray) -> np.ndarray:
    """Per draw, the largest studentized deviation over the usable expressions.

    Large values overshoot the min in its biased (inward) direction.  With no
    usable expression the row maxima are zeros, whose quantiles are 0.
    """
    if not usable.any():
        return np.zeros(len(devs))
    return (devs[:, usable] / se[usable]).max(axis=1)


def _quantiles(rows, gammas: list[float]) -> np.ndarray:
    """``np.quantile(rows, gammas, axis=1)``, read off one sort of each row.

    ``rows`` is a 2-D array or a list of equal-length rows.  This is numpy's
    default ``linear`` method, written out: the virtual index (draws - 1) *
    gamma falls between the order statistics at its floor and at floor + 1
    (both the largest once it reaches draws - 1), and numpy's lerp form
    interpolates them.  The values are ``np.quantile``'s bit for bit.
    """
    ordered = np.array(rows)
    ordered.sort(axis=1)
    last = ordered.shape[1] - 1
    virtual = last * np.array(gammas, dtype=float)
    below = np.floor(virtual)
    at_end = virtual >= last
    a = ordered[:, np.where(at_end, last, below).astype(np.intp)]
    b = ordered[:, np.where(at_end, last, below + 1).astype(np.intp)]
    t = virtual - below
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t).T


def _min_sides(
    sides: list[tuple[np.ndarray, np.ndarray, np.ndarray]], *, n: int, alpha: float
) -> list[tuple[float, float, SideDiagnostics]]:
    """Endpoint estimates for a min of expressions, for each ``(est, se, devs)`` side.

    The upper side is a min.  The lower side, a max, is a min of the negated
    estimates and deviations, with its endpoints negated back; IEEE rounding
    is symmetric in sign, so the mirror is exact.  The sides share only their
    sorts: each stage stacks every side's row maxima as one row of
    ``_quantiles``, which sorts each row once and reads all the stage's levels
    off it.  That gives ``np.quantile``'s values exactly.  Only a tie between
    +0.0 and -0.0 could sort into a different sign bit, and none arises: a
    side with no studentizable expression has an all +0.0 row, and row maxima
    of continuous Gaussian draws do not tie at zero.
    """
    studentizable = [se > _ZERO_SE_TOL for _, se, _ in sides]

    def critical(masks: list[np.ndarray], gammas: list[float]) -> list[list[float]]:
        maxima = [_row_max(devs, se, mask) for (_, se, devs), mask in zip(sides, masks)]
        return _quantiles(maxima, gammas).tolist()

    # _arm_sizes keeps n >= 4, so the level 1 - 1/log n is positive.
    (k0s,) = critical(studentizable, [1.0 - 1.0 / np.log(n)])

    # Two-step selection: an expression stays only if it clears the best
    # slack-adjusted expression, where each competitor k is credited its own
    # se_k.  The preliminary k0 can be negative at absurdly small n, which
    # could empty the set, so the argmin expression is always retained.
    selections = []
    for (est, se, _), k0 in zip(sides, k0s):
        selected = est <= float((est + _SELECTION_SLACK * k0 * se).min()) + _TIE_TOL
        if not selected.any():
            selected[int(np.argmin(est))] = True
        selections.append(selected)

    usable = [sel & stud for sel, stud in zip(selections, studentizable)]
    k_halves, k_cis = critical(usable, [0.5, 1.0 - alpha / 2.0])

    # Endpoint estimators minimize over the surviving set only; dropping a
    # slack expression can only move the estimate away from the biased
    # direction, so the half-median property is preserved.
    results = []
    for (est, se, _), stud, selected, k0, k_half, k_ci in zip(
        sides, studentizable, selections, k0s, k_halves, k_cis
    ):
        hmu = float((est + k_half * se)[selected].min())
        ci = float((est + k_ci * se)[selected].min())
        diag = SideDiagnostics(
            selected=tuple(int(i) for i in np.flatnonzero(selected)),
            k0=k0,
            k_half=k_half,
            k_ci=k_ci,
            zero_variance=tuple(int(i) for i in np.flatnonzero(~stud)),
        )
        results.append((hmu, ci, diag))
    return results


@functools.lru_cache(maxsize=1)
def _simulation(
    counts: tuple[int, ...], seed: int, draws: int
) -> tuple[ObservedDistribution, np.ndarray, tuple[int, ...], np.ndarray]:
    """The distribution, smoothed covariance, smoothed arms and simulated cell deviations of one table.

    Every spec of a table with the same seed and draws shares this seeded
    simulation, so consecutive calls reuse it; the arrays are read-only.
    """
    arr = np.array(counts, dtype=np.int64)
    dist = _distribution(arr)
    cov, smoothed_arms = _multinomial_cov(arr, smooth=True)
    cell_devs = np.random.default_rng(seed).standard_normal((draws, 8)) @ _cov_sqrt(cov).T
    cov.setflags(write=False)
    cell_devs.setflags(write=False)
    return dist, cov, smoothed_arms, cell_devs


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
    same counts, seed and draws (every spec of one table) share that sample.
    """
    table = _spec_table(spec)
    lowers, uppers = table.lowers, table.uppers
    n_lo = len(lowers)
    rows = _ROWS[table.start : table.phase1_at]
    counts = as_cell_counts(data)
    dist, cov, smoothed_arms, cell_devs = _simulation(tuple(counts.tolist()), config.seed, config.draws)

    est = np.array(_table_values(dist)[table.start : table.phase1_at])
    se = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", rows, cov, rows), 0.0, None))
    devs = cell_devs @ rows.T

    (hmu_up, ci_up, diag_up), (hmu_lo, ci_lo, diag_lo) = _min_sides(
        [(est[n_lo:], se[n_lo:], devs[:, n_lo:]), (-est[:n_lo], se[:n_lo], -devs[:, :n_lo])],
        n=dist.n0 + dist.n1,
        alpha=config.alpha,
    )
    hmu_lo, ci_lo = -hmu_lo, -ci_lo
    exprs = [ExpressionEstimate(e.label, v, s) for e, v, s in zip(lowers + uppers, est.tolist(), se.tolist())]

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

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
the min side run on negated estimates and deviations.  The theta_j come from
``closed_form``'s one evaluator, so they are bit-equal to the point bounds.

Standard errors come from the exact multinomial covariance of the cell
frequencies within each arm.  The covariance matrix used for simulation and
studentization is smoothed with an add-half adjustment in any arm that has an
empty cell, so degenerate samples still produce usable (if conservative)
intervals; point estimates are never smoothed.

Every function here takes its data as the eight cell counts (shape (8,)) or
as unit records (two-dimensional, (n, 3)); see ``model.as_cell_counts``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .closed_form import _evaluate, _spec_table
from .model import (
    _ZERO_SE_TOL,
    EstimandSpec,
    InsufficientDataError,
    ObservedDistribution,
    ValidationError,
    as_cell_counts,
    from_counts,
)

_STD_NORMAL = NormalDist()


# Scale of the preliminary critical value that discards slack expressions;
# 2 is the conventional choice.
_SELECTION_SLACK = 2.0


@dataclass(frozen=True)
class InferenceConfig:
    """Level, Gaussian draws and seed of the simulated critical values; the selection slack is fixed at 2."""

    alpha: float = 0.05
    draws: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha!r}")
        try:
            draws, seed = operator.index(self.draws), operator.index(self.seed)
        except TypeError:
            raise ValidationError(f"draws and seed must be integers, got {self.draws!r}, {self.seed!r}") from None
        if draws < 100:
            raise ValidationError(f"draws must be at least 100, got {self.draws!r}")
        if not (0 <= seed < 2**64):
            raise ValidationError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")


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
        if self.ci_lower > self.bound_lower_hmu + 1e-9:
            raise ValidationError("lower CI endpoint above the HMU lower estimate")
        if self.ci_upper < self.bound_upper_hmu - 1e-9:
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


def _min_side(
    est: np.ndarray, se: np.ndarray, devs: np.ndarray, *, n: int, alpha: float
) -> tuple[float, float, SideDiagnostics]:
    """Endpoint estimates for a min of expressions: the upper side.

    The lower side, a max, is this routine on the negated estimates and
    deviations, with its endpoints negated back; IEEE rounding is symmetric
    in sign, so the mirror is exact.
    """
    k = est.size
    studentizable = se > _ZERO_SE_TOL
    zero_var = tuple(int(i) for i in np.flatnonzero(~studentizable))

    # Studentized deviations of the simulated expression estimates; large
    # values overshoot the min in its biased (inward) direction.
    stats = np.zeros_like(devs)
    if studentizable.any():
        stats[:, studentizable] = devs[:, studentizable] / se[studentizable]

    gamma0 = max(0.0, 1.0 - 1.0 / np.log(n)) if n > 1 else 0.5

    def critical(idx: np.ndarray, *gammas: float) -> list[float]:
        # One row max over the usable expressions, then every level from one quantile call.
        usable = idx & studentizable
        if not usable.any():
            return [0.0] * len(gammas)
        return np.quantile(stats[:, usable].max(axis=1), gammas).tolist()

    # Two-step selection: an expression stays only if it clears the best
    # slack-adjusted expression, where each competitor k is credited its own
    # se_k.  The preliminary k0 can be negative at absurdly small n, which
    # could empty the set, so the argmin expression is always retained.
    (k0,) = critical(np.ones(k, dtype=bool), gamma0)
    threshold = float((est + _SELECTION_SLACK * k0 * se).min())
    selected = est <= threshold + 1e-12
    if not selected.any():
        selected[int(np.argmin(est))] = True

    k_half, k_ci = critical(selected, 0.5, 1.0 - alpha / 2.0)

    # Endpoint estimators minimize over the surviving set only; dropping a
    # slack expression can only move the estimate away from the biased
    # direction, so the half-median property is preserved.
    hmu = float((est + k_half * se)[selected].min())
    ci = float((est + k_ci * se)[selected].min())
    diag = SideDiagnostics(
        selected=tuple(int(i) for i in np.flatnonzero(selected)),
        k0=k0,
        k_half=k_half,
        k_ci=k_ci,
        zero_variance=zero_var,
    )
    return hmu, ci, diag


def clr_bounds(data, spec: EstimandSpec, config: InferenceConfig = InferenceConfig()) -> IntervalEstimate:
    """Half-median-unbiased bound estimates and a confidence interval for the
    identified set of delta(spec.reference).

    Serves every (assumption set, reference, sign) spec: the intersection is
    over the expressions of ``closed_form.anie_expressions(spec)``, with their
    coefficient rows read from the bound table the point bounds use.  One
    seeded Gaussian sample drives both sides and every quantile level, so
    critical values are monotone across levels by construction and results
    are bit-reproducible for a fixed config.
    """
    table = _spec_table(spec)
    lowers, uppers = table.lowers, table.uppers
    n_lo = len(lowers)
    rows = table.rows[: n_lo + len(uppers)]
    counts = as_cell_counts(data)
    dist = _distribution(counts)
    n = dist.n0 + dist.n1

    cov, smoothed_arms = _multinomial_cov(counts, smooth=True)
    est = _evaluate(rows, dist.cells)
    se = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", rows, cov, rows), 0.0, None))

    root = _cov_sqrt(cov)
    rng = np.random.default_rng(config.seed)
    devs = rng.standard_normal((config.draws, 8)) @ root.T @ rows.T

    hmu_up, ci_up, diag_up = _min_side(est[n_lo:], se[n_lo:], devs[:, n_lo:], n=n, alpha=config.alpha)
    hmu_lo, ci_lo, diag_lo = _min_side(-est[:n_lo], se[:n_lo], -devs[:, :n_lo], n=n, alpha=config.alpha)
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
        crossed=hmu_lo > hmu_up + 1e-9,
        alpha=config.alpha,
    )

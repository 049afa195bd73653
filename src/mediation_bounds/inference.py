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
1 - alpha/2 (confidence interval for the identified set).

Standard errors come from the exact multinomial covariance of the cell
frequencies within each arm.  The covariance matrix used for simulation and
studentization is smoothed with an add-half adjustment in any arm that has an
empty cell, so degenerate samples still produce usable (if conservative)
intervals; point estimates are never smoothed.

Every function here takes its data as the eight cell counts (shape (8,)) or
as unit records (two-dimensional, (n, 3)); see ``model.as_cell_counts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .closed_form import _spec_table
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


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for the simulation-based critical values.

    ``selection_slack`` scales the preliminary critical value when discarding
    clearly-slack expressions; 2 is the conventional choice.
    """

    alpha: float = 0.05
    draws: int = 2000
    seed: int = 0
    selection_slack: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.draws < 100:
            raise ValidationError(f"draws must be at least 100, got {self.draws!r}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError(f"seed must fit in 64 unsigned bits, got {self.seed!r}")
        if self.selection_slack < 0.0:
            raise ValidationError(f"selection_slack must be nonnegative, got {self.selection_slack!r}")


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


def _multinomial_block(p: np.ndarray, n: int) -> np.ndarray:
    return (np.diag(p) - np.outer(p, p)) / n


def _distribution(counts: np.ndarray) -> ObservedDistribution:
    n0, n1 = int(counts[:4].sum()), int(counts[4:].sum())
    if n0 < 2 or n1 < 2:
        raise InsufficientDataError(f"need at least 2 observations per arm, got n0={n0}, n1={n1}")
    return from_counts(counts)


def estimate_distribution(data) -> tuple[ObservedDistribution, np.ndarray]:
    """Cell-probability estimates and their exact 8x8 sampling covariance.

    Covariance rows/columns follow ``ObservedDistribution.cells`` order
    (arm-0 cells then arm-1 cells); the two arms are independent, so the matrix
    is block diagonal with one multinomial block per arm.
    """
    counts = as_cell_counts(data)
    dist = _distribution(counts)
    cov = np.zeros((8, 8))
    cov[:4, :4] = _multinomial_block(counts[:4] / dist.n0, dist.n0)
    cov[4:, 4:] = _multinomial_block(counts[4:] / dist.n1, dist.n1)
    return dist, cov


def _smoothed_cov(counts0: np.ndarray, counts1: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    # Add-half smoothing per arm, applied only when the arm has an empty cell;
    # used for standard errors and simulation, never for point estimates.
    cov = np.zeros((8, 8))
    smoothed = []
    for a, counts in ((0, counts0), (1, counts1)):
        n = int(counts.sum())
        if (counts == 0).any():
            p = (counts + 0.5) / (n + 2.0)
            smoothed.append(a)
        else:
            p = counts / n
        block = _multinomial_block(p, n)
        cov[4 * a : 4 * a + 4, 4 * a : 4 * a + 4] = block
    return cov, tuple(smoothed)


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
    arms = counts.reshape(2, 4)
    n0, n1 = arms.sum(axis=1).tolist()
    if n1 < 2 or n0 < 2:
        raise InsufficientDataError("need at least 2 observations per arm")
    k0, k1 = arms[:, ones].sum(axis=1).tolist()
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


def _one_side(
    est: np.ndarray,
    se: np.ndarray,
    devs: np.ndarray,
    *,
    side: int,
    n: int,
    alpha: float,
    slack: float,
) -> tuple[float, float, SideDiagnostics]:
    """Endpoint estimates for one side; ``side`` +1 for the min/upper, -1 for the max/lower."""
    k = est.size
    studentizable = se > _ZERO_SE_TOL
    zero_var = tuple(int(i) for i in np.flatnonzero(~studentizable))

    # Studentized deviations of the simulated expression estimates.  For the
    # lower (max) side the mirrored statistic enters with a minus sign so that
    # large values correspond to overshooting the max in its biased direction.
    stats = np.zeros_like(devs)
    if studentizable.any():
        stats[:, studentizable] = side * devs[:, studentizable] / se[studentizable]

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
    # could empty the set, so the argbest expression is always retained.
    (k0,) = critical(np.ones(k, dtype=bool), gamma0)
    if side > 0:
        threshold = float((est + slack * k0 * se).min())
        selected = est <= threshold + 1e-12
    else:
        threshold = float((est - slack * k0 * se).max())
        selected = est >= threshold - 1e-12
    if not selected.any():
        selected = np.zeros(k, dtype=bool)
        selected[int(np.argmin(est) if side > 0 else np.argmax(est))] = True

    k_half, k_ci = critical(selected, 0.5, 1.0 - alpha / 2.0)

    # Endpoint estimators extremize over the surviving set only; dropping a
    # slack expression can only move the estimate away from the biased
    # direction, so the half-median property is preserved.
    adjusted_half = est + side * k_half * se
    adjusted_ci = est + side * k_ci * se
    if side > 0:
        hmu = float(adjusted_half[selected].min())
        ci = float(adjusted_ci[selected].min())
    else:
        hmu = float(adjusted_half[selected].max())
        ci = float(adjusted_ci[selected].max())
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
    counts = as_cell_counts(data)
    dist = _distribution(counts)
    n = dist.n0 + dist.n1

    cov, smoothed_arms = _smoothed_cov(counts[:4], counts[4:])
    c_lo = table.rows[: len(lowers)]
    c_hi = table.rows[len(lowers) : len(lowers) + len(uppers)]
    est_lo = c_lo @ dist.cells
    est_hi = c_hi @ dist.cells
    se_lo = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", c_lo, cov, c_lo), 0.0, None))
    se_hi = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", c_hi, cov, c_hi), 0.0, None))

    root = _cov_sqrt(cov)
    rng = np.random.default_rng(config.seed)
    cell_devs = rng.standard_normal((config.draws, 8)) @ root.T
    devs_lo = cell_devs @ c_lo.T
    devs_hi = cell_devs @ c_hi.T

    hmu_up, ci_up, diag_up = _one_side(
        est_hi, se_hi, devs_hi, side=+1, n=n, alpha=config.alpha, slack=config.selection_slack
    )
    hmu_lo, ci_lo, diag_lo = _one_side(
        est_lo, se_lo, devs_lo, side=-1, n=n, alpha=config.alpha, slack=config.selection_slack
    )

    return IntervalEstimate(
        bound_lower_hmu=hmu_lo,
        bound_upper_hmu=hmu_up,
        ci_lower=ci_lo,
        ci_upper=ci_up,
        lower_expressions=tuple(
            ExpressionEstimate(e.label, float(v), float(s)) for e, v, s in zip(lowers, est_lo, se_lo)
        ),
        upper_expressions=tuple(
            ExpressionEstimate(e.label, float(v), float(s)) for e, v, s in zip(uppers, est_hi, se_hi)
        ),
        lower_diagnostics=diag_lo,
        upper_diagnostics=diag_up,
        smoothed_arms=smoothed_arms,
        crossed=hmu_lo > hmu_up + 1e-9,
        alpha=config.alpha,
    )

"""Core types for binary-mediation bound analyses.

Everything downstream works on the observed joint distribution of
(outcome Y, mediator M) within each treatment arm A, written

    p[y][m][a] = P(Y = y, M = m | A = a),

together with the two arm sizes.  Those eight probabilities are the
sufficient statistic for every bound computed by this package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

# The package's tolerances, each with the decision it governs.  Each sits far
# above the roundoff of the arithmetic it guards (sums and dot products of a
# few cells, about 1e-15); none is a tuning knob.
#
# SIMPLEX_TOL: how far each arm's cell probabilities may sum from 1, and an
#   LP equality's right-hand side may lie outside [0, 1].
SIMPLEX_TOL = 1e-12
# ORDER_TOL: how far an endpoint may lie outside [-1, 1], and how far an
#   interval not flagged incompatible may cross (lower above upper) or, with
#   no assumptions, miss zero.  ``closed_form.anie_bounds`` flags every wider
#   crossing, so a valid table never trips the check.
ORDER_TOL = 1e-9
# FEAS_TOL: the largest phase-1 optimum (the total constraint violation) of a
#   stratum program that still counts as feasible, for ``anie_bounds`` and
#   the simplex alike; also the negative mass and sum error a stratum
#   distribution may carry.
FEAS_TOL = 1e-9
# PIVOT_TOL: the simplex treats smaller reduced costs and pivot-column
#   entries as zero.
PIVOT_TOL = 1e-10
# _POP_TOL: how far the 64 masses of an oracle population may sum from 1.
_POP_TOL = 1e-12
# _ZERO_SE_TOL: CLR inference does not studentize an expression whose
#   standard error is at most this; it is sidelined as known exactly.
_ZERO_SE_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when inputs fail structural validation (values outside {0,1}, bad shapes, ...)."""


class EmptyArmError(ValidationError):
    """Raised when a treatment arm contains no observations."""


class InsufficientDataError(ValidationError):
    """Raised when an arm is too small for the requested computation."""


class ConsistencyError(ValueError):
    """Raised when results from different distributions are combined."""


class AssumptionIncompatibilityError(RuntimeError):
    """Raised when the observed distribution is incompatible with the maintained assumptions."""


class Assumptions(enum.Enum):
    """Assumption sets under which indirect-effect bounds are computed."""

    NONE = "none"
    MMR = "mmr"
    MMR_POS_MEDIATOR = "mmr-pos-mediator"


class Method(enum.Enum):
    """Computational route that produced a bound.

    Every bound the package serves is ``CLOSED_FORM``: the max or min of a set
    of expressions derived from the stratum LP's dual vertices.  ``LP`` marks a
    result built directly from an LP optimum, such as a simplex value.
    """

    CLOSED_FORM = "closed-form"
    LP = "lp"


@dataclass(frozen=True)
class UnitRecord:
    """One observation: treatment ``a``, mediator ``m``, outcome ``y``, each in {0, 1}."""

    a: int
    m: int
    y: int

    def __post_init__(self) -> None:
        for name in ("a", "m", "y"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value not in (0, 1):
                raise ValidationError(f"{name} must be 0 or 1, got {value!r}")


def as_record_array(records) -> np.ndarray:
    """Canonicalize a record collection to an (n, 3) uint8 array with columns a, m, y.

    Accepts an iterable of :class:`UnitRecord`, an iterable of (a, m, y) triples,
    or an integer array of shape (n, 3).  Values outside {0, 1} are rejected.
    """
    if isinstance(records, np.ndarray):
        arr = records
    else:
        rows = []
        for rec in records:
            if isinstance(rec, UnitRecord):
                rows.append((rec.a, rec.m, rec.y))
            else:
                rows.append(tuple(rec))
        arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"record array must have shape (n, 3), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.isin(arr, (0, 1))):
            raise ValidationError("record values must be 0 or 1")
        arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        bad = arr[(arr < 0) | (arr > 1)][0]
        raise ValidationError(f"record values must be 0 or 1, got {bad}")
    return np.ascontiguousarray(arr, dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class ObservedDistribution:
    """Joint law of (Y, M) within each arm plus the arm sizes.

    ``p`` has shape (2, 2, 2), indexed ``p[y, m, a]``.  ``n1`` and ``n0`` are the
    numbers of treated and control observations; both are 0 for analytically
    constructed distributions that have no sampling interpretation.  The cell
    vector and the fingerprint are computed once, at construction.
    """

    p: np.ndarray
    n1: int = 0
    n0: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (2, 2, 2):
            raise ValidationError(f"p must have shape (2, 2, 2), got {arr.shape}")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValidationError("cell probabilities must lie in [0, 1]")
        for a in (0, 1):
            total = float(arr[:, :, a].sum())
            if abs(total - 1.0) > SIMPLEX_TOL:
                raise ValidationError(
                    f"arm {a} cell probabilities sum to {total!r}, expected 1 within {SIMPLEX_TOL}"
                )
        if self.n1 < 0 or self.n0 < 0:
            raise ValidationError("arm sizes must be nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)
        cells = arr.transpose(2, 0, 1).reshape(8)  # a copy: arm 0 cells (ym order), then arm 1
        cells.flags.writeable = False
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_fingerprint", tuple(cells.tolist()) + (self.n1, self.n0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservedDistribution):
            return NotImplemented
        return (
            self.n1 == other.n1
            and self.n0 == other.n0
            and bool(np.array_equal(self.p, other.p))
        )

    def prob(self, y: int, m: int, a: int) -> float:
        return float(self.p[y, m, a])

    def arm(self, a: int) -> np.ndarray:
        """Cell probabilities (p00, p01, p10, p11) for arm ``a``, ym-major order; read-only."""
        return self._cells[4 * a : 4 * a + 4]

    def cell_vector(self) -> np.ndarray:
        """All eight cells as one read-only vector: arm 0 cells (ym = 00,01,10,11) then arm 1."""
        return self._cells

    def mediator_margin(self, a: int) -> float:
        """P(M = 1 | A = a)."""
        return float(self.p[0, 1, a] + self.p[1, 1, a])

    def outcome_mean(self, a: int) -> float:
        """E[Y | A = a]."""
        return float(self.p[1, 0, a] + self.p[1, 1, a])

    def fingerprint(self) -> tuple:
        """Hashable identity used to guard against mixing results across distributions."""
        return self._fingerprint


def from_counts(counts) -> ObservedDistribution:
    """Build an :class:`ObservedDistribution` from eight cell counts.

    Parameters
    ----------
    counts : sequence of int
        ``(n00a0, n01a0, n10a0, n11a0, n00a1, n01a1, n10a1, n11a1)`` where
        ``n{ym}a{a}`` counts units with Y = y, M = m in arm a.

    Notes
    -----
    Cell probabilities are the exact ratios ``count / arm size``; no smoothing
    is applied here or anywhere else that point estimates are formed.
    """
    vals = list(counts)
    if len(vals) != 8:
        raise ValidationError(f"expected 8 counts, got {len(vals)}")
    out = []
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValidationError(f"counts must be integers, got {v!r}")
        if v < 0:
            raise ValidationError(f"counts must be nonnegative, got {v}")
        out.append(int(v))
    n0 = sum(out[:4])
    n1 = sum(out[4:])
    if n0 == 0 or n1 == 0:
        raise EmptyArmError(f"empty treatment arm (n0={n0}, n1={n1})")
    p = np.empty((2, 2, 2))
    for y in (0, 1):
        for m in (0, 1):
            p[y, m, 0] = out[2 * y + m] / n0
            p[y, m, 1] = out[4 + 2 * y + m] / n1
    return ObservedDistribution(p=p, n1=n1, n0=n0)


def cell_counts(a: np.ndarray, m, y: np.ndarray) -> np.ndarray:
    """Eight cell counts, in :func:`from_counts` order, of 0/1 columns ``a``, ``m`` (or 0), ``y``."""
    return np.bincount(a.astype(np.int64) * 4 + y.astype(np.int64) * 2 + m, minlength=8)


def as_cell_counts(data) -> np.ndarray:
    """The eight cell counts of ``data`` as int64, in :func:`from_counts` order.

    An integer ndarray of shape (8,) is the counts; anything else is records (:func:`as_record_array`).
    """
    if isinstance(data, np.ndarray) and data.shape == (8,) and np.issubdtype(data.dtype, np.integer):
        counts = data.astype(np.int64)
        if (counts < 0).any():
            raise ValidationError(f"counts must be nonnegative, got {data.tolist()}")
        return counts
    arr = as_record_array(data)
    return cell_counts(arr[:, 0], arr[:, 1], arr[:, 2])


def from_units(records) -> ObservedDistribution:
    """Cross-tabulate unit records and delegate to :func:`from_counts`."""
    arr = as_record_array(records)
    if arr.shape[0] == 0:
        raise EmptyArmError("no records supplied")
    return from_counts(cell_counts(arr[:, 0], arr[:, 1], arr[:, 2]).tolist())


def from_probabilities(arm0, arm1, *, n0: int = 0, n1: int = 0) -> ObservedDistribution:
    """Build a distribution directly from per-arm cell probabilities.

    ``arm0`` and ``arm1`` are length-4 sequences in ym-major order
    (p00, p01, p10, p11); each must sum to 1 within 1e-12.
    """
    p = np.empty((2, 2, 2))
    for a, cells in ((0, arm0), (1, arm1)):
        cells = np.asarray(cells, dtype=float)
        if cells.shape != (4,):
            raise ValidationError(f"arm {a} must have 4 cell probabilities, got shape {cells.shape}")
        p[:, :, a] = cells.reshape(2, 2)
    return ObservedDistribution(p=p, n1=n1, n0=n0)


def ate(dist: ObservedDistribution) -> float:
    """Average treatment effect on the outcome, E[Y | A=1] - E[Y | A=0]."""
    return dist.outcome_mean(1) - dist.outcome_mean(0)


def atm(dist: ObservedDistribution) -> float:
    """Average treatment effect on the mediator, P(M=1 | A=1) - P(M=1 | A=0).

    Under randomized treatment this identifies E[M(1) - M(0)], the difference
    between the population shares of mediator compliers and defiers.
    """
    return dist.mediator_margin(1) - dist.mediator_margin(0)


@dataclass(frozen=True)
class EstimandSpec:
    """Which indirect effect is bounded, and under what assumptions.

    ``reference`` is the arm at which the outcome is evaluated: the target is
    delta(reference) = E[Y(reference, M(1)) - Y(reference, M(0))].
    ``mediator_effect_sign`` is consulted only under
    :attr:`Assumptions.MMR_POS_MEDIATOR`; +1 maintains that the mediator does
    not decrease the reference-arm outcome, -1 that it does not increase it.
    """

    reference: int
    assumptions: Assumptions = Assumptions.NONE
    mediator_effect_sign: int = 1

    def __post_init__(self) -> None:
        if self.reference not in (0, 1):
            raise ValidationError(f"reference must be 0 or 1, got {self.reference!r}")
        if not isinstance(self.assumptions, Assumptions):
            raise ValidationError(f"assumptions must be an Assumptions member, got {self.assumptions!r}")
        if self.mediator_effect_sign not in (1, -1):
            raise ValidationError(f"mediator_effect_sign must be +1 or -1, got {self.mediator_effect_sign!r}")


@dataclass(frozen=True)
class BoundsResult:
    """A sharp identification interval for one estimand.

    ``binding_lower`` / ``binding_upper`` index into the expression lists of
    ``closed_form.anie_expressions(spec)`` (first attaining expression wins);
    they are ``None`` only for results built from a bare LP optimum
    (:attr:`Method.LP`), where no single expression is active.
    ``incompatible`` marks intervals computed from data that contradict the
    maintained assumptions; such intervals may be empty (lower > upper) and are
    reported as-is rather than repaired.
    """

    lower: float
    upper: float
    binding_lower: int | None
    binding_upper: int | None
    spec: EstimandSpec
    method: Method
    estimand: str = "anie"
    incompatible: bool = False
    diagnostics: tuple[str, ...] = ()
    fingerprint: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.estimand not in ("anie", "ande"):
            raise ValidationError(f"estimand must be 'anie' or 'ande', got {self.estimand!r}")
        for name in ("lower", "upper"):
            v = getattr(self, name)
            if not (-1.0 - ORDER_TOL <= v <= 1.0 + ORDER_TOL):
                raise ValidationError(f"{name}={v!r} outside [-1, 1]")
        if not self.incompatible:
            if self.lower > self.upper + ORDER_TOL:
                raise ValidationError(
                    f"crossed interval [{self.lower!r}, {self.upper!r}] without incompatibility flag"
                )
            # With no assumptions the indirect effect of doing nothing is always feasible,
            # so a valid no-assumption interval must cover zero.
            if self.estimand == "anie" and self.spec.assumptions is Assumptions.NONE:
                if self.lower > ORDER_TOL or self.upper < -ORDER_TOL:
                    raise ValidationError(
                        f"no-assumption interval [{self.lower!r}, {self.upper!r}] excludes zero"
                    )

    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float, tol: float = ORDER_TOL) -> bool:
        return self.lower - tol <= value <= self.upper + tol

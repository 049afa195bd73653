"""Core types for binary-mediation bound analyses.

Everything downstream works on the observed joint distribution of
(outcome Y, mediator M) within each treatment arm A, held as one 8-vector

    cells[4a + 2y + m] = P(Y = y, M = m | A = a),

together with the two arm sizes.  Those eight probabilities, or the eight
cell counts they are formed from, are the sufficient statistic for every
bound computed by this package.  Every count intake runs one check: shape
(8,), integer entries (an integer dtype, or Python ints of any size; never
bools or floats), no negative entry and a total of at most :data:`MAX_TOTAL`.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

import numpy as np

# The package's tolerances, each with the decision it governs.  Each sits far
# above the roundoff of the arithmetic it guards (sums and dot products of a
# few cells, about 1e-15); none is a tuning knob.
#
# SIMPLEX_TOL: how far a mass vector may sum from 1 (each arm's cell
#   probabilities, and the 64 masses of an oracle population), and an LP
#   equality's right-hand side may lie outside [0, 1].
SIMPLEX_TOL = 1e-12
# ORDER_TOL: how far an endpoint may lie outside [-1, 1], and how far an
#   interval not flagged incompatible may cross (lower above upper) or, with
#   no assumptions, miss zero.  ``closed_form.anie_bounds`` flags every wider
#   crossing, and on counts every crossing, so a valid table never trips it.
ORDER_TOL = 1e-9
# FEAS_TOL: the largest phase-1 optimum (the total constraint violation) of a
#   stratum program that the simplex still counts as feasible, and the
#   negative mass and sum error a stratum distribution may carry.  The bounds
#   do not read it: a shortfall s crosses their interval by at least 2 s.
FEAS_TOL = 1e-9
# PIVOT_TOL: the simplex treats smaller reduced costs and pivot-column
#   entries as zero, and pivots an artificial still basic after phase 1 out
#   only on a larger structural entry of its row.
PIVOT_TOL = 1e-10
# _ZERO_SE_TOL: CLR inference does not studentize an expression whose
#   standard error is at most this; it is sidelined as known exactly.
_ZERO_SE_TOL = 1e-12
# _TIE_TOL: values this close above a minimum tie with it: the simplex's ratio
#   test (Bland's rule then takes the lowest basic index) and CLR's selection
#   of the expressions that clear the best one.
_TIE_TOL = 1e-12

# The largest total of eight cell counts: arm sizes stay exact floats, and
# int64 sums of the counts cannot overflow.
MAX_TOTAL = 2**53


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


def _rectangular(data) -> np.ndarray:
    """``np.asarray(data)``, with a ragged sequence reported as a :class:`ValidationError`."""
    try:
        return np.asarray(data)
    except ValueError as exc:
        raise ValidationError(f"ragged input: {exc}") from None


@dataclass(frozen=True, eq=False)
class ObservedDistribution:
    """Joint law of (Y, M) within each arm plus the arm sizes.

    ``cells`` is the read-only 8-vector in :func:`from_counts` order: index
    ``4a + 2y + m`` holds P(Y = y, M = m | A = a).  ``n1`` and ``n0`` are the
    numbers of treated and control observations, nonnegative integers stored
    as Python ints; both are 0 for analytically constructed distributions
    that have no sampling interpretation.  ``counts`` holds the eight cell
    counts, as Python ints, of a distribution built by :func:`from_counts`,
    and is None otherwise; it is not part of equality or the fingerprint,
    which is computed once, at construction.
    """

    cells: np.ndarray
    n1: int = 0
    n0: int = 0
    counts: tuple[int, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        cells = _checked_masses(self.cells, (8,), "cell probabilities", 0.0, 1.0, 2, SIMPLEX_TOL)
        n1, n0 = _checked_ints("arm sizes n1 and n0 must be integers", self.n1, self.n0)
        if n1 < 0 or n0 < 0:
            raise ValidationError(f"arm sizes must be nonnegative, got n1={n1}, n0={n0}")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "_fingerprint", tuple(cells.tolist()) + (n1, n0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservedDistribution):
            return NotImplemented
        return (
            self.n1 == other.n1
            and self.n0 == other.n0
            and bool(np.array_equal(self.cells, other.cells))
        )

    def prob(self, y: int, m: int, a: int) -> float:
        return float(self.cells[4 * a + 2 * y + m])

    def arm(self, a: int) -> np.ndarray:
        """Cell probabilities (p00, p01, p10, p11) for arm ``a``, ym-major order; read-only."""
        return self.cells[4 * a : 4 * a + 4]

    def mediator_margin(self, a: int) -> float:
        """P(M = 1 | A = a)."""
        return float(self.cells[4 * a + 1] + self.cells[4 * a + 3])

    def outcome_mean(self, a: int) -> float:
        """E[Y | A = a]."""
        return float(self.cells[4 * a + 2] + self.cells[4 * a + 3])

    def fingerprint(self) -> tuple:
        """Hashable identity used to guard against mixing results across distributions."""
        return self._fingerprint


def _checked_ints(message: str, *values) -> tuple[int, ...]:
    """``values`` as Python ints, numpy integers included: the package's one integer check.

    A bool or a non-integer such as 1.0 (which equals 1) raises ``message``.
    """
    # Plain ints, the common case, return at once: every bound call builds a spec.
    for v in values:
        if type(v) is not int:
            break
    else:
        return values
    if bool not in map(type, values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    raise ValidationError(f"{message}, got {values[0] if len(values) == 1 else values!r}")


def _checked_masses(values, shape, name, floor, ceiling, parts, tol) -> np.ndarray:
    """``values`` as a new float array of ``shape``: the one check of every probability vector.

    Entries lie in [``floor``, ``ceiling``] and each of ``parts`` equal slices sums to 1 within ``tol``; NaN fails.
    """
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not (arr.min() >= floor and arr.max() <= ceiling):
        raise ValidationError(f"{name} must lie in [{floor}, {ceiling}], got {arr.min()} to {arr.max()}")
    sums = arr.reshape(parts, -1).sum(axis=1)
    if not np.all(np.abs(sums - 1.0) <= tol):
        raise ValidationError(f"{name} must sum to 1 within {tol}, got sums {sums.tolist()}")
    return arr


def _checked_counts(counts) -> list[int]:
    """Eight validated cell counts as Python ints: the one check every count intake runs."""
    arr = _rectangular(counts)
    if arr.shape != (8,):
        raise ValidationError(f"counts must have exactly 8 integers, got {arr.size} in shape {arr.shape}")
    # A sequence's entries are checked as given: numpy reads (1, True) as ints
    # and (2**63, 1) as floats.
    vals = list(_checked_ints("counts must be integers", *(arr.tolist() if isinstance(counts, np.ndarray) else counts)))
    if min(vals) < 0:
        raise ValidationError(f"counts must be nonnegative, got {vals}")
    if sum(vals) > MAX_TOTAL:
        raise ValidationError(f"counts total must be at most 2**53 = {MAX_TOTAL}, got {sum(vals)}")
    return vals


def from_counts(counts) -> ObservedDistribution:
    """Build an :class:`ObservedDistribution` from eight cell counts.

    Parameters
    ----------
    counts : sequence or array of int, shape (8,)
        ``(n00a0, n01a0, n10a0, n11a0, n00a1, n01a1, n10a1, n11a1)`` where
        ``n{ym}a{a}`` counts units with Y = y, M = m in arm a.  The entries
        must be integers (not bools) and the total at most :data:`MAX_TOTAL`.

    Notes
    -----
    Cell probabilities are the exact ratios ``count / arm size``; no smoothing
    is applied here or anywhere else that point estimates are formed.
    """
    vals = _checked_counts(counts)
    n0 = sum(vals[:4])
    n1 = sum(vals[4:])
    if n0 == 0 or n1 == 0:
        raise EmptyArmError(f"empty treatment arm (n0={n0}, n1={n1})")
    cells = [v / n0 for v in vals[:4]] + [v / n1 for v in vals[4:]]
    dist = ObservedDistribution(cells, n1=n1, n0=n0)
    object.__setattr__(dist, "counts", tuple(vals))
    return dist


def cell_counts(a: np.ndarray, m, y: np.ndarray) -> np.ndarray:
    """Eight cell counts, in :func:`from_counts` order, of code columns ``a``, ``m`` (or 0), ``y``.

    A code is 0 or 1, or 8 for a missing value: a row with an 8 in any of
    its three columns lands in a bin past the eighth and is not counted, so
    this is where listwise deletion happens.
    """
    return np.bincount(4 * a + 2 * y + m, minlength=8)[:8]


def _record_counts(records) -> np.ndarray:
    """The eight cell counts of unit records: the one check every records intake runs.

    Records are an (n, 3) array or a sequence of (a, m, y) triples, every
    value 0 or 1.
    """
    arr = _rectangular(records)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"record array must have shape (n, 3), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.isin(arr, (0, 1))):
            raise ValidationError("record values must be 0 or 1")
        arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        bad = arr[(arr < 0) | (arr > 1)][0]
        raise ValidationError(f"record values must be 0 or 1, got {bad}")
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    return cell_counts(arr[:, 0], arr[:, 1], arr[:, 2])


def as_cell_counts(data) -> np.ndarray:
    """The eight cell counts of ``data`` as int64, in :func:`from_counts` order.

    Two-dimensional input is records (:func:`_record_counts`); anything else
    is the eight counts.
    """
    arr = _rectangular(data)
    if arr.ndim == 2:
        arr = _record_counts(arr)
    return np.array(_checked_counts(arr), dtype=np.int64)


def from_units(records) -> ObservedDistribution:
    """Cross-tabulate unit records and delegate to :func:`from_counts`."""
    arr = _rectangular(records)
    if arr.ndim and len(arr) == 0:
        raise EmptyArmError("no records supplied")
    return from_counts(_record_counts(arr))


def from_probabilities(arm0, arm1) -> ObservedDistribution:
    """Build a distribution directly from per-arm cell probabilities.

    ``arm0`` and ``arm1`` are length-4 sequences in ym-major order
    (p00, p01, p10, p11); each must sum to 1 within :data:`SIMPLEX_TOL`.
    The result has no sampling interpretation, so both arm sizes are 0.
    """
    arms = _rectangular((arm0, arm1))
    if arms.shape != (2, 4):
        raise ValidationError(f"arm0 and arm1 must each have 4 cell probabilities, got shape {arms.shape}")
    return ObservedDistribution(arms.reshape(8))


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
    Both must be integers (not 1.0 or True) and are stored as Python ints.
    """

    reference: int
    assumptions: Assumptions = Assumptions.NONE
    mediator_effect_sign: int = 1

    def __post_init__(self) -> None:
        reference, sign = _checked_ints(
            "reference and mediator_effect_sign must be integers", self.reference, self.mediator_effect_sign
        )
        if reference not in (0, 1):
            raise ValidationError(f"reference must be 0 or 1, got {self.reference!r}")
        if not isinstance(self.assumptions, Assumptions):
            raise ValidationError(f"assumptions must be an Assumptions member, got {self.assumptions!r}")
        if sign not in (1, -1):
            raise ValidationError(f"mediator_effect_sign must be +1 or -1, got {self.mediator_effect_sign!r}")
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "mediator_effect_sign", sign)


@dataclass(frozen=True)
class BoundsResult:
    """A sharp identification interval for one estimand.

    ``binding_lower`` / ``binding_upper`` index into the expression lists of
    ``closed_form.anie_expressions(spec)`` (the first expression whose value
    attains the bound wins: on counts, the first exact optimizer when n0 n1 < 2**52);
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

    def contains(self, value: float) -> bool:
        return self.lower - ORDER_TOL <= value <= self.upper + ORDER_TOL

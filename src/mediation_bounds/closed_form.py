"""Closed-form sharp bounds on average natural indirect effects.

The target is delta(a) = E[Y(a, M(1)) - Y(a, M(0))] with everything binary and
treatment randomized.  Each bound below is the max (lower) or min (upper) of a
small set of linear expressions in the eight observed cell probabilities
p_{ym.a} = P(Y=y, M=m | A=a); the expression sets depend on the assumption set:

* ``NONE``: no assumptions beyond randomization.  Three expressions per side,
  valid and jointly sharp at either reference level.
* ``MMR``: monotonicity of the mediator response, M(1) >= M(0) for everyone
  (no mediator defiers).  Two expressions per side; the interval collapses to
  [0, 0] when the mediator ATE is zero.
* ``MMR_POS_MEDIATOR``: MMR plus a nonnegative average effect of the mediator
  on the treated-arm outcome, E[Y(1,1) - Y(1,0)] >= 0.  Four expressions per
  side, reference level 1 only.  This set is evaluated exactly as printed in
  its source derivation and cross-checked on every call against the sharp
  optima of ``lp_engine.anie_bounds_lp`` (read from its dual-vertex table, no
  simplex), which are authoritative whenever the two disagree; see
  ``bounds_mmr_pos_mediator``.

Expressions are exposed through :func:`anie_expressions` so that the
intersection-bounds inference code can reuse them verbatim.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import lp_engine
from .model import (
    Assumptions,
    BoundsResult,
    ClosedFormUnavailableError,
    ConsistencyError,
    EstimandSpec,
    Method,
    ObservedDistribution,
    SIMPLEX_TOL,
    ate,
    atm,
)

# Closed form and LP agree to machine precision in exact arithmetic; anything
# beyond this is a real disagreement, not roundoff.
CROSS_CHECK_TOL = 1e-9


class Expression(NamedTuple):
    """One linear bounding expression: label plus coefficients on the cell vector.

    Coefficients follow ``ObservedDistribution.cell_vector`` order: arm-0 cells
    (ym = 00, 01, 10, 11) then arm-1 cells.
    """

    label: str
    coeffs: tuple[float, ...]

    def value(self, cells: np.ndarray) -> float:
        return float(np.dot(self.coeffs, cells))


def _expr(label: str, *terms: tuple[float, int, int, int]) -> Expression:
    # term = (coefficient, a, y, m)
    vec = np.zeros(8)
    for coef, a, y, m in terms:
        vec[4 * a + 2 * y + m] += coef
    return Expression(label, tuple(float(v) for v in vec))


_ATM_TERMS = ((1.0, 1, 0, 1), (1.0, 1, 1, 1), (-1.0, 0, 0, 1), (-1.0, 0, 1, 1))
_NEG_ATM_TERMS = tuple((-c, a, y, m) for c, a, y, m in _ATM_TERMS)

# No-assumption expression sets.  delta(1) compares Y(1, M(1)) to Y(1, M(0));
# the cross-world term is only partially identified, and these are the extreme
# couplings of the treated-arm joint law with the control-arm mediator margin.
_NONE_REF1_LOWER = (
    _expr("-p00.1 - p01.1", (-1, 1, 0, 0), (-1, 1, 0, 1)),
    _expr("-p01.1 - p01.0 - p11.0", (-1, 1, 0, 1), (-1, 0, 0, 1), (-1, 0, 1, 1)),
    _expr("-p00.1 - p00.0 - p10.0", (-1, 1, 0, 0), (-1, 0, 0, 0), (-1, 0, 1, 0)),
)
_NONE_REF1_UPPER = (
    _expr("p10.1 + p11.1", (1, 1, 1, 0), (1, 1, 1, 1)),
    _expr("p11.1 + p01.0 + p11.0", (1, 1, 1, 1), (1, 0, 0, 1), (1, 0, 1, 1)),
    _expr("p10.1 + p00.0 + p10.0", (1, 1, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0)),
)
_NONE_REF0_LOWER = (
    _expr("-p10.0 - p11.0", (-1, 0, 1, 0), (-1, 0, 1, 1)),
    _expr("-p11.0 - p01.1 - p11.1", (-1, 0, 1, 1), (-1, 1, 0, 1), (-1, 1, 1, 1)),
    _expr("-p10.0 - p00.1 - p10.1", (-1, 0, 1, 0), (-1, 1, 0, 0), (-1, 1, 1, 0)),
)
_NONE_REF0_UPPER = (
    _expr("p00.0 + p01.0", (1, 0, 0, 0), (1, 0, 0, 1)),
    _expr("p01.0 + p01.1 + p11.1", (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 1, 1)),
    _expr("p00.0 + p00.1 + p10.1", (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)),
)

# Mediator-monotonicity sets: without defiers the indirect effect moves only
# through compliers, so its magnitude is capped by the mediator ATE and by the
# reference-arm cell a complier can vacate.
_MMR_REF1_LOWER = (_expr("-atm", *_NEG_ATM_TERMS), _expr("-p01.1", (-1, 1, 0, 1)))
_MMR_REF1_UPPER = (_expr("atm", *_ATM_TERMS), _expr("p11.1", (1, 1, 1, 1)))
_MMR_REF0_LOWER = (_expr("-atm", *_NEG_ATM_TERMS), _expr("-p10.0", (-1, 0, 1, 0)))
_MMR_REF0_UPPER = (_expr("atm", *_ATM_TERMS), _expr("p00.0", (1, 0, 0, 0)))

# Monotone-mediator plus nonnegative mediator-on-outcome effect, reference 1,
# exactly as printed in the source derivation.  The third upper expression
# carries a repeated p00.1 term in the original; it is reproduced verbatim
# (probing shows it never binds, so the duplication is value-harmless, and the
# LP cross-check below would catch it if it ever mattered).
_POS_REF1_LOWER = (
    _expr("-atm", *_NEG_ATM_TERMS),
    _expr("p10.1 - p10.0 - p00.0", (1, 1, 1, 0), (-1, 0, 1, 0), (-1, 0, 0, 0)),
    _expr("-p11.1 - p00.1 - p10.0", (-1, 1, 1, 1), (-1, 1, 0, 0), (-1, 0, 1, 0)),
    _expr("-p01.1", (-1, 1, 0, 1)),
)
_POS_REF1_UPPER = (
    _expr("atm", *_ATM_TERMS),
    _expr("p11.1 + p10.0 + p00.0", (1, 1, 1, 1), (1, 0, 1, 0), (1, 0, 0, 0)),
    _expr("2 p11.1 + p00.1 + p00.1", (2, 1, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0)),
    _expr("p11.1", (1, 1, 1, 1)),
)

_REGISTRY = {
    (Assumptions.NONE, 0): (_NONE_REF0_LOWER, _NONE_REF0_UPPER),
    (Assumptions.NONE, 1): (_NONE_REF1_LOWER, _NONE_REF1_UPPER),
    (Assumptions.MMR, 0): (_MMR_REF0_LOWER, _MMR_REF0_UPPER),
    (Assumptions.MMR, 1): (_MMR_REF1_LOWER, _MMR_REF1_UPPER),
    (Assumptions.MMR_POS_MEDIATOR, 1): (_POS_REF1_LOWER, _POS_REF1_UPPER),
}


def anie_expressions(spec: EstimandSpec) -> tuple[tuple[Expression, ...], tuple[Expression, ...]]:
    """Return (lower, upper) bounding-expression tuples for ``spec``.

    Raises
    ------
    ClosedFormUnavailableError
        For the signed-mediator assumption set at reference 0 or with a
        negative maintained sign; only the LP route serves those estimands.
    """
    if spec.assumptions is Assumptions.MMR_POS_MEDIATOR and (
        spec.reference != 1 or spec.mediator_effect_sign != 1
    ):
        raise ClosedFormUnavailableError(
            "no closed-form expressions for the signed-mediator assumption set at "
            f"reference={spec.reference}, sign={spec.mediator_effect_sign:+d}; "
            "use lp_engine.anie_bounds_lp"
        )
    return _REGISTRY[(spec.assumptions, spec.reference)]


def _clamp(v: float) -> float:
    return min(1.0, max(-1.0, v))


def _evaluate(dist: ObservedDistribution, spec: EstimandSpec) -> tuple[float, float, int, int]:
    lowers, uppers = anie_expressions(spec)
    cells = dist.cell_vector()
    lo_vals = [e.value(cells) for e in lowers]
    hi_vals = [e.value(cells) for e in uppers]
    bl = int(np.argmax(lo_vals))
    bu = int(np.argmin(hi_vals))
    return lo_vals[bl], hi_vals[bu], bl, bu


def bounds_no_assumption(dist: ObservedDistribution, reference: int) -> BoundsResult:
    """Sharp bounds on delta(reference) using randomization alone.

    The interval always contains zero and is typically wide; it is the honest
    baseline against which the assumption-driven intervals should be read.
    """
    spec = EstimandSpec(reference=reference, assumptions=Assumptions.NONE)
    lo, hi, bl, bu = _evaluate(dist, spec)
    return BoundsResult(
        lower=_clamp(lo),
        upper=_clamp(hi),
        binding_lower=bl,
        binding_upper=bu,
        spec=spec,
        method=Method.CLOSED_FORM,
        fingerprint=dist.fingerprint(),
    )


def bounds_mmr(dist: ObservedDistribution, reference: int) -> BoundsResult:
    """Sharp bounds on delta(reference) under mediator monotonicity (no defiers).

    MMR implies the mediator ATE is the complier share, so a negative sample
    ATM contradicts the assumption: the result is then flagged ``incompatible``
    and the (possibly crossed) interval is reported as computed.  A zero ATM
    point-identifies delta(reference) = 0.
    """
    spec = EstimandSpec(reference=reference, assumptions=Assumptions.MMR)
    lo, hi, bl, bu = _evaluate(dist, spec)
    alpha = atm(dist)
    incompatible = alpha < -SIMPLEX_TOL
    diagnostics: tuple[str, ...] = ()
    if incompatible:
        diagnostics = (
            f"sample ATM = {alpha:.6g} < 0 contradicts mediator monotonicity; "
            "interval reported as computed and may be empty",
        )
    return BoundsResult(
        lower=_clamp(lo),
        upper=_clamp(hi),
        binding_lower=bl,
        binding_upper=bu,
        spec=spec,
        method=Method.CLOSED_FORM,
        incompatible=incompatible,
        diagnostics=diagnostics,
        fingerprint=dist.fingerprint(),
    )


def bounds_mmr_pos_mediator(dist: ObservedDistribution, reference: int = 1) -> BoundsResult:
    """Bounds on delta(1) under MMR plus E[Y(1,1) - Y(1,0)] >= 0.

    Evaluates the printed four-expression closed form exactly, then
    cross-validates both endpoints against the sharp LP optima.
    When they differ by more than ``CROSS_CHECK_TOL`` the LP values are
    returned, the method flips to :attr:`Method.LP`, and the printed interval
    is preserved in ``diagnostics``.  Probing shows the printed lower bound is
    valid but not always sharp, so this override path is exercised on a
    non-trivial fraction of inputs; the printed upper bound has never been
    observed to disagree.
    """
    if reference != 1:
        raise ClosedFormUnavailableError(
            "the signed-mediator closed form exists only at reference 1; "
            "use lp_engine.anie_bounds_lp for reference 0"
        )
    spec = EstimandSpec(reference=1, assumptions=Assumptions.MMR_POS_MEDIATOR, mediator_effect_sign=1)
    lo, hi, bl, bu = _evaluate(dist, spec)
    alpha = atm(dist)
    if alpha < -SIMPLEX_TOL:
        return BoundsResult(
            lower=_clamp(lo),
            upper=_clamp(hi),
            binding_lower=bl,
            binding_upper=bu,
            spec=spec,
            method=Method.CLOSED_FORM,
            incompatible=True,
            diagnostics=(
                f"sample ATM = {alpha:.6g} < 0 contradicts mediator monotonicity; "
                "LP cross-check skipped (program infeasible)",
            ),
            fingerprint=dist.fingerprint(),
        )
    lo, hi = _clamp(lo), _clamp(hi)
    lp_result = lp_engine.anie_bounds_lp(dist, spec)
    d_lo = abs(lo - lp_result.lower)
    d_hi = abs(hi - lp_result.upper)
    if max(d_lo, d_hi) > CROSS_CHECK_TOL:
        return BoundsResult(
            lower=lp_result.lower,
            upper=lp_result.upper,
            binding_lower=None,
            binding_upper=None,
            spec=spec,
            method=Method.LP,
            diagnostics=(
                f"printed closed form [{lo:.12g}, {hi:.12g}] is not sharp here "
                f"(LP gives [{lp_result.lower:.12g}, {lp_result.upper:.12g}], "
                f"gaps lower={d_lo:.3g} upper={d_hi:.3g}); LP values returned",
            ),
            fingerprint=dist.fingerprint(),
        )
    return BoundsResult(
        lower=lo,
        upper=hi,
        binding_lower=bl,
        binding_upper=bu,
        spec=spec,
        method=Method.CLOSED_FORM,
        fingerprint=dist.fingerprint(),
    )


def ande_bounds(dist: ObservedDistribution, reference: int, anie: BoundsResult) -> BoundsResult:
    """Bounds on the natural direct effect zeta(reference) = ATE - delta(1 - reference).

    ``anie`` must be an indirect-effect result for the complementary reference
    level computed from the same distribution; both conditions are enforced via
    the stored fingerprint so intervals from different datasets cannot be mixed.
    """
    if reference not in (0, 1):
        raise ConsistencyError(f"reference must be 0 or 1, got {reference!r}")
    if anie.estimand != "anie":
        raise ConsistencyError(f"expected an ANIE result, got estimand={anie.estimand!r}")
    if anie.spec.reference != 1 - reference:
        raise ConsistencyError(
            f"zeta({reference}) needs delta({1 - reference}) bounds, got delta({anie.spec.reference})"
        )
    if anie.fingerprint is None or anie.fingerprint != dist.fingerprint():
        raise ConsistencyError("ANIE result was computed from a different distribution")
    tau = ate(dist)
    spec = EstimandSpec(
        reference=reference,
        assumptions=anie.spec.assumptions,
        mediator_effect_sign=anie.spec.mediator_effect_sign,
    )
    return BoundsResult(
        lower=_clamp(tau - anie.upper),
        upper=_clamp(tau - anie.lower),
        binding_lower=anie.binding_upper,
        binding_upper=anie.binding_lower,
        spec=spec,
        method=anie.method,
        estimand="ande",
        incompatible=anie.incompatible,
        diagnostics=anie.diagnostics,
        fingerprint=dist.fingerprint(),
    )

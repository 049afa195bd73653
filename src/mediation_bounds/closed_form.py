"""Sharp bounds on average natural indirect effects: one bound table, one evaluator.

The target is delta(a) = E[Y(a, M(1)) - Y(a, M(0))] with everything binary and
treatment randomized.  Each bound is the max (lower) or min (upper) of a small
set of linear expressions in the eight observed cell probabilities
p_{ym.a} = P(Y=y, M=m | A=a); the sets depend on the assumption set:

* ``NONE``: no assumptions beyond randomization.  Three expressions per side
  at either reference level; the interval always contains zero.
* ``MMR``: monotonicity of the mediator response, M(1) >= M(0) for everyone
  (no mediator defiers).  Two expressions per side; the interval collapses to
  [0, 0] when the mediator ATE is zero.
* ``MMR_POS_MEDIATOR``: MMR plus a signed average effect of the mediator on
  the reference-arm outcome, sign * E[Y(ref, 1) - Y(ref, 0)] >= 0.  Two to
  four expressions per side, at either reference level and either sign.

No expression is typed by hand.  Every set is derived at import from
``_DUAL_VERTICES``, the integer vertices of the dual of
``lp_engine.build_lp``'s program: the symbolic bounds of Balke and Pearl
(1997), automated by Sachs et al. (2023).  Only that program's right-hand side
b depends on the data, so each extreme of the cross-world mean
E[Y(ref, M(1-ref))] is a max or min of b . v over a fixed vertex list, and with
delta(1) = E[Y|A=1] - cross-world mean and delta(0) = cross-world mean - E[Y|A=0]
each vertex is one bounding expression.  The program is infeasible exactly
when its phase-1 optimum is positive; for a restricted spec that optimum is
the mediator ATE's shortfall, max(0, -ATM), since data contradict
``mmr`` exactly when P(M=1|A=1) < P(M=1|A=0) and the sign row of
``mmr-pos-mediator`` adds nothing, Y(ref, 1-M(ref)) being never observed.
Each restricted set's first expressions are ``-atm`` and ``atm``, so that
shortfall crosses the interval: incompatible means crossed.  ``tests/conftest.py``
re-derives the table by brute force, every phase-1 vertex included, and
``tests/test_dual_vertices.py`` checks it and proves that optimum in integers.

Each arm's cells sum to 1, so an expression is fixed only up to adding a
constant to one arm's coefficients and taking it from the other's.  The
canonical form has no constant term and the fewest nonzero coefficients, the
mediator-ATE form (``atm``) winning a tie.  A set lists ``atm`` or ``-atm``
first, then by support size, then by the weight on the opposite arm's M=1
cells, largest first; labels name the reference-arm cells first.  For
``NONE`` and ``MMR`` this reproduces the printed sets of the source
derivation, which ``tests/test_closed_form.py`` keeps and compares.

All eight (assumption set, reference, sign) specs' lower and upper rows are
stacked once, at import, into one matrix, ``_ROWS``; each spec's
table holds only its offsets into it.  The whole stack is evaluated once per
``ObservedDistribution``, on first use, and kept on that instance: exactly
on counts, where each row is an integer over n0 n1 (so a zero ATM gives
[0, 0] under ``mmr``), and else by ``_evaluate``, an index-order sum.
:func:`anie_bounds` reads its spec's slice of the values, and
``inference.clr_bounds`` reads its estimates from the same kept values, so
the point bounds and CLR report the same bits.
:func:`anie_expressions` exposes the sets.

``bounds_no_assumption``, ``bounds_mmr`` and ``bounds_mmr_pos_mediator`` only
pick a spec and call :func:`anie_bounds`; they stay here, off the package
root, only because the benchmark under ``perfbench/`` calls them by name.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import (
    ORDER_TOL,
    Assumptions,
    BoundsResult,
    ConsistencyError,
    EstimandSpec,
    Method,
    ObservedDistribution,
    ate,
)

# Integer dual vertices of ``build_lp``'s program, keyed by (assumptions,
# reference, mediator_effect_sign); the sign is 1 for the sets that ignore it.
# Each vertex v is read against the right-hand sides
#
#     b = (p00.ref, p01.ref, p10.ref, p11.ref, P(M = 1 | A = 1 - ref))
#
# of the four reference-arm joint cells and the opposite-arm margin; the defier
# and sign rows have right-hand side 0.  The two parts are the vertices for the
# MIN side (min = max of b . v) and for the MAX side (max = min of b . v).  The
# defier strata and their rows are eliminated first.  Derived by
# tests/conftest.py and checked against it by tests/test_dual_vertices.py.
_DUAL_VERTICES = {
    (Assumptions.NONE, 0, 1): (
        ((-1, -1, -1, 0, 1), (0, 0, 0, 0, 0), (0, 0, 1, 0, -1)),
        ((0, 1, 1, 1, 1), (1, 1, 1, 1, 0), (2, 1, 2, 2, -1)),
    ),
    (Assumptions.NONE, 1, 1): (
        ((-1, -1, -1, 0, 1), (0, 0, 0, 0, 0), (0, 0, 1, 0, -1)),
        ((0, 1, 1, 1, 1), (1, 1, 1, 1, 0), (2, 1, 2, 2, -1)),
    ),
    (Assumptions.MMR, 0, 1): (
        ((0, 0, 0, 1, 0), (0, 1, 1, 2, -1)),
        ((0, -1, 1, 0, 1), (1, 0, 1, 1, 0)),
    ),
    (Assumptions.MMR, 1, 1): (
        ((0, -1, 1, 0, 1), (0, 0, 1, 0, 0)),
        ((0, 1, 1, 1, 0), (0, 1, 1, 2, -1)),
    ),
    (Assumptions.MMR_POS_MEDIATOR, 0, 1): (
        ((-1, -1, 0, -1, 1), (-1, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 1, 1, 2, -1)),
        ((0, -1, 1, 0, 1), (1, 0, 1, 1, 0)),
    ),
    (Assumptions.MMR_POS_MEDIATOR, 0, -1): (
        ((0, 0, 0, 1, 0), (0, 1, 1, 2, -1)),
        ((0, -1, 1, 0, 1), (0, 1, 2, 1, 0), (1, 0, 1, 1, 0), (1, 2, 2, 2, -1)),
    ),
    (Assumptions.MMR_POS_MEDIATOR, 1, 1): (
        ((0, -1, 1, 0, 1), (0, 0, 1, 0, 0)),
        ((0, 1, 1, 1, 0), (0, 1, 1, 2, -1), (1, 0, 1, 1, 1), (1, 0, 1, 2, 0)),
    ),
    (Assumptions.MMR_POS_MEDIATOR, 1, -1): (
        ((0, -1, 0, 1, 0), (0, -1, 1, 0, 1), (0, 0, 0, 1, -1), (0, 0, 1, 0, 0)),
        ((0, 1, 1, 1, 0), (0, 1, 1, 2, -1)),
    ),
}


# The mediator ATE P(M=1|A=1) - P(M=1|A=0) on the cell vector, whose M=1
# cells have odd indices, and its negative.
_ATM = tuple((i & 1) * (1 if i >= 4 else -1) for i in range(8))
_ATM_FORMS = (_ATM, tuple(-x for x in _ATM))


class Expression(NamedTuple):
    """One linear bounding expression: label plus coefficients on the cell vector.

    Coefficients follow ``ObservedDistribution.cells`` order: arm-0 cells
    (ym = 00, 01, 10, 11) then arm-1 cells.
    """

    label: str
    coeffs: tuple[float, ...]


class _SpecTable(NamedTuple):
    lowers: tuple[Expression, ...]
    uppers: tuple[Expression, ...]
    # Offsets into ``_ROWS``: the lower rows start at ``start``, the upper
    # rows at ``uppers_at``, and ``stop`` ends them.
    start: int
    uppers_at: int
    stop: int


def _support(form: tuple[int, ...]) -> int:
    return len(form) - form.count(0)


def _canonical(w: list[int]) -> tuple[int, ...]:
    """The form equal to ``w . cells`` with the fewest nonzero coefficients.

    Adding t to every arm-0 coefficient and taking it from every arm-1
    coefficient keeps the value; only a t that zeroes some coefficient can be sparsest.
    """
    shifts = sorted({*(-x for x in w[:4]), *w[4:]})
    forms = [tuple(x + t for x in w[:4]) + tuple(x - t for x in w[4:]) for t in shifts]
    return min(forms, key=lambda f: (_support(f), f not in _ATM_FORMS))


def _label(form: tuple[int, ...], ref: int) -> str:
    if form in _ATM_FORMS:
        return "atm" if form[5] > 0 else "-atm"
    text = ""
    for i in (*range(4 * ref, 4 * ref + 4), *range(4 - 4 * ref, 8 - 4 * ref)):
        c = form[i]
        if c:
            term = ("" if abs(c) == 1 else f"{abs(c)} ") + f"p{i >> 1 & 1}{i & 1}.{i >> 2}"
            text += (("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")) + term
    return text


def _derive(ref: int, min_side, max_side):
    """One spec's lower and upper expressions from its dual vertices."""
    opp_m1 = (5 - 4 * ref, 7 - 4 * ref)  # the opposite arm's M=1 cells

    def side(vertices) -> tuple[Expression, ...]:
        # delta(1) = E[Y|A=1] - b . v and delta(0) = b . v - E[Y|A=0].
        s = 1 if ref == 1 else -1
        forms = []
        for v in vertices:
            w = [0] * 8
            w[4 * ref : 4 * ref + 4] = [-s * x for x in v[:4]]
            w[opp_m1[0]] = w[opp_m1[1]] = -s * v[4]
            w[4 * ref + 2] += s
            w[4 * ref + 3] += s
            forms.append(_canonical(w))
        forms.sort(key=lambda f: (f not in _ATM_FORMS, _support(f), -sum(abs(f[i]) for i in opp_m1)))
        return tuple(Expression(_label(f, ref), tuple(float(x) for x in f)) for f in forms)

    return (side(max_side), side(min_side)) if ref == 1 else (side(min_side), side(max_side))


def _slot(spec: EstimandSpec) -> int:
    """The spec's position in ``_TABLES``, found by identity tests: no enum is hashed."""
    if spec.assumptions is Assumptions.MMR_POS_MEDIATOR:
        return 4 + 2 * spec.reference + (spec.mediator_effect_sign < 0)
    return 2 * (spec.assumptions is Assumptions.MMR) + spec.reference


def _stack() -> tuple[tuple[_SpecTable, ...], np.ndarray]:
    """Every spec's table, by ``_slot``, and the read-only matrix of all their rows, spec after spec."""
    tables, rows = [None] * len(_DUAL_VERTICES), []
    for (assumptions, ref, sign), parts in _DUAL_VERTICES.items():
        lowers, uppers = _derive(ref, *parts)
        start = len(rows)
        rows += [e.coeffs for e in lowers + uppers]
        table = _SpecTable(lowers, uppers, start, start + len(lowers), len(rows))
        tables[_slot(EstimandSpec(ref, assumptions, sign))] = table
    stack = np.array(rows, dtype=float)
    stack.flags.writeable = False
    return tuple(tables), stack


_TABLES, _ROWS = _stack()
# The rows' arm-0 parts and their arm-1 parts, as integers, for exact values on counts.
_ARM_PARTS = np.stack([_ROWS * (np.arange(8) < 4), _ROWS * (np.arange(8) >= 4)]).astype(np.int64)


def _spec_table(spec: EstimandSpec) -> _SpecTable:
    return _TABLES[_slot(spec)]


def anie_expressions(spec: EstimandSpec) -> tuple[tuple[Expression, ...], tuple[Expression, ...]]:
    """Return (lower, upper) bounding-expression tuples for ``spec``; every spec has them."""
    table = _spec_table(spec)
    return table.lowers, table.uppers


def _evaluate(rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """``rows @ cells``, each row's products added in index order.

    cumsum fixes the order, so no value depends on the BLAS build or on which
    rows are stacked.  The bounds of a distribution without counts evaluate
    all of ``_ROWS`` at once, through :func:`_table_values`.
    """
    return np.cumsum(rows * cells, axis=1)[:, -1]


def _table_values(dist: ObservedDistribution) -> tuple[float, ...]:
    """``_ROWS`` evaluated on ``dist``, once: kept on ``dist`` from its first use.

    On counts each row is N / (n0 n1), N = n1 (C0 . k0) + n0 (C1 . k1), with
    int64 dot products (|C . k| <= 2**53) and a correctly rounding Python int
    true division; else :func:`_evaluate`.  The values live and die with the
    instance; a memo keyed by the cells would outlive every distribution.
    """
    try:
        return dist._table_values
    except AttributeError:
        if (k := dist.counts) is None:
            values = tuple(_evaluate(_ROWS, dist.cells).tolist())
        else:
            n0, n1, d = dist.n0, dist.n1, dist.n0 * dist.n1
            values = tuple((n1 * c0 + n0 * c1) / d for c0, c1 in zip(*(_ARM_PARTS @ k).tolist()))
        object.__setattr__(dist, "_table_values", values)
        return values


def _clamp(v: float) -> float:
    return min(1.0, max(-1.0, v))


def anie_bounds(dist: ObservedDistribution, spec: EstimandSpec) -> BoundsResult:
    """Sharp bounds on delta(spec.reference) for any assumption set, reference and sign.

    The lower bound is the max of the lower expressions of :func:`anie_expressions`
    and the upper the min of the upper ones; on feasible data they are the
    optima of ``lp_engine.build_lp``'s program.  The result is flagged
    ``incompatible`` when the interval crosses: at all on counts, whose values
    are correctly rounded, so exactly when a restricted set meets ATM < 0, and
    by more than ``ORDER_TOL`` otherwise.  The diagnostic prints max(0, -ATM),
    the first lower expression (``-atm`` when restricted, never positive for
    ``NONE``).  A flagged interval is reported as computed and may be empty.
    """
    table = _spec_table(spec)
    values = _table_values(dist)
    lo_vals, hi_vals = values[table.start : table.uppers_at], values[table.uppers_at : table.stop]
    lower, upper = max(lo_vals), min(hi_vals)
    binding_lower, binding_upper = lo_vals.index(lower), hi_vals.index(upper)
    # _clamp, inlined: min(1.0, max(-1.0, v)) keeps v itself inside [-1, 1].
    lower = 1.0 if lower > 1.0 else -1.0 if lower < -1.0 else lower
    upper = 1.0 if upper > 1.0 else -1.0 if upper < -1.0 else upper
    incompatible = lower > upper + (ORDER_TOL if dist.counts is None else 0.0)
    diagnostics: tuple[str, ...] = ()
    if incompatible:
        diagnostics = (
            f"observed distribution contradicts {spec.assumptions.value!r}: constraints are "
            f"inconsistent (phase-1 residual {max(0.0, lo_vals[0]):.6g}); "
            "interval reported as computed and may be empty",
        )
    return BoundsResult(
        lower, upper, binding_lower, binding_upper, spec, Method.CLOSED_FORM, "anie", incompatible, diagnostics,
        dist._fingerprint,
    )


# The front doors' specs at reference 0 and 1, built once.
_NONE_SPECS = (EstimandSpec(0, Assumptions.NONE), EstimandSpec(1, Assumptions.NONE))
_MMR_SPECS = (EstimandSpec(0, Assumptions.MMR), EstimandSpec(1, Assumptions.MMR))
_POS_MEDIATOR_SPECS = (EstimandSpec(0, Assumptions.MMR_POS_MEDIATOR), EstimandSpec(1, Assumptions.MMR_POS_MEDIATOR))


def _prebuilt(specs: tuple[EstimandSpec, EstimandSpec], reference) -> EstimandSpec:
    """``specs[reference]`` for a plain int 0 or 1; ``EstimandSpec`` checks any other reference."""
    if type(reference) is int and reference in (0, 1):
        return specs[reference]
    return EstimandSpec(reference, specs[0].assumptions, specs[0].mediator_effect_sign)


def bounds_no_assumption(dist: ObservedDistribution, reference: int) -> BoundsResult:
    """Sharp bounds on delta(reference) using randomization alone.

    The interval always contains zero and is typically wide; it is the honest
    baseline against which the assumption-driven intervals should be read.
    """
    return anie_bounds(dist, _prebuilt(_NONE_SPECS, reference))


def bounds_mmr(dist: ObservedDistribution, reference: int) -> BoundsResult:
    """Sharp bounds on delta(reference) under mediator monotonicity (no defiers).

    MMR implies the mediator ATE is the complier share, so a negative sample
    ATM contradicts the assumption and flags the result ``incompatible``.  A
    zero ATM point-identifies delta(reference) = 0.
    """
    return anie_bounds(dist, _prebuilt(_MMR_SPECS, reference))


def bounds_mmr_pos_mediator(dist: ObservedDistribution, reference: int = 1) -> BoundsResult:
    """Sharp bounds on delta(reference) under MMR plus E[Y(reference,1) - Y(reference,0)] >= 0.

    The opposite sign of the mediator's effect is served by :func:`anie_bounds`
    with ``mediator_effect_sign=-1``.
    """
    return anie_bounds(dist, _prebuilt(_POS_MEDIATOR_SPECS, reference))


# ``ande_bounds``' spec for every (reference, assumptions, sign), each sign kept even where it is not read.
_ANDE_SPECS = {(r, a, s): EstimandSpec(r, a, s) for r in (0, 1) for a in Assumptions for s in (1, -1)}


def ande_bounds(dist: ObservedDistribution, reference: int, anie: BoundsResult) -> BoundsResult:
    """Bounds on the natural direct effect zeta(reference) = ATE - delta(1 - reference).

    ``anie`` must be an indirect-effect result for the complementary reference
    level computed from the same distribution; both conditions are enforced via
    the stored fingerprint so intervals from different datasets cannot be mixed.
    """
    if anie.estimand != "anie":
        raise ConsistencyError(f"expected an ANIE result, got estimand={anie.estimand!r}")
    if anie.spec.reference != 1 - reference:
        raise ConsistencyError(
            f"zeta({reference}) needs delta({1 - reference}) bounds, got delta({anie.spec.reference})"
        )
    fingerprint = dist._fingerprint
    if anie.fingerprint is None or anie.fingerprint != fingerprint:
        raise ConsistencyError("ANIE result was computed from a different distribution")
    tau = ate(dist)
    key = (reference, anie.spec.assumptions, anie.spec.mediator_effect_sign)
    # A plain int reference is 0 or 1 here; any other type goes through ``EstimandSpec``'s check.
    spec = _ANDE_SPECS[key] if type(reference) is int else EstimandSpec(*key)
    return BoundsResult(
        _clamp(tau - anie.upper), _clamp(tau - anie.lower), anie.binding_upper, anie.binding_lower, spec,
        anie.method, "ande", anie.incompatible, anie.diagnostics, fingerprint,
    )

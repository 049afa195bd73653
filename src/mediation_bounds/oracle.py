"""Ground-truth machinery for validating bounds against full potential-outcome laws.

A :class:`FullPopulation64` specifies the joint law of the six binary potential
variables

    (Y(1,1), Y(1,0), Y(0,1), Y(0,0), M(1), M(0)),

which is everything there is to know about a binary mediation population.  The
observables and the true effects are two fixed linear maps of the law, built
from the same six-axis grids that give ``lp_engine``'s program its rows, and
marginalizing yields the sixteen-stratum distributions that program works with.
Tests use this module in two directions:

* soundness: for populations satisfying an assumption set, the true effect must
  land inside the interval computed from the induced observables;
* sharpness: each LP endpoint must be attained by some full population that is
  observationally indistinguishable from the input, obtained by extending the
  LP witness with the opposite arm's outcomes drawn from the input's outcome
  rates given the mediator, which must also satisfy the assumption set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_form, lp_engine
from .closed_form import _evaluate
from .lp_engine import _CROSS, _DEFIER, _FACTUAL, _M, _Y
from .model import (
    ORDER_TOL,
    SIMPLEX_TOL,
    Assumptions,
    EstimandSpec,
    ObservedDistribution,
    ValidationError,
    _checked_ints,
    _checked_masses,
)


def _linear_map(grids: list[np.ndarray]) -> np.ndarray:
    """Six-axis grids as the rows of a fixed linear map of the flattened law q, for ``_evaluate``."""
    return np.array(grids, dtype=float).reshape(len(grids), 64)


# One row per observed cell (arm 0's four, then arm 1's, in (y, m) order), and one per
# TrueEstimands field (tau, alpha, delta0, delta1, zeta0, zeta1).
_OBSERVED = _linear_map([(_FACTUAL[a] == y) & (_M[a] == m) for a in (0, 1) for y in (0, 1) for m in (0, 1)])
_ESTIMANDS = _linear_map(
    [_FACTUAL[1] - _FACTUAL[0], _M[1] - _M[0], _CROSS[0] - _FACTUAL[0],
     _FACTUAL[1] - _CROSS[1], _CROSS[1] - _FACTUAL[0], _FACTUAL[1] - _CROSS[0]]
)


@dataclass(frozen=True, eq=False)
class FullPopulation64:
    """Joint law over the 64 potential-variable combinations.

    ``q`` has shape (2, 2, 2, 2, 2, 2) with axes (y11, y10, y01, y00, m1, m0),
    where ``y{a}{m}`` is the value of Y(a, m) and ``m{a}`` the value of M(a).
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        arr, _ = _checked_masses(self.q, (2,) * 6, "population masses", 0.0, np.inf, 1, SIMPLEX_TOL)
        arr.flags.writeable = False
        object.__setattr__(self, "q", arr)


@dataclass(frozen=True)
class TrueEstimands:
    """Exact effects computed from a full population."""

    tau: float
    alpha: float
    delta0: float
    delta1: float
    zeta0: float
    zeta1: float

    def delta(self, reference: int) -> float:
        return self.delta1 if reference == 1 else self.delta0

    def zeta(self, reference: int) -> float:
        return self.zeta1 if reference == 1 else self.zeta0


def true_estimands(pop: FullPopulation64) -> TrueEstimands:
    """Treatment, mediator, indirect, and direct effects, one fixed linear map of the law."""
    return TrueEstimands(*_evaluate(_ESTIMANDS, pop.q.reshape(64)).tolist())


def strata_proportions(pop: FullPopulation64) -> np.ndarray:
    """Principal-stratum shares rho[s, t] = P(M(1)=s, M(0)=t)."""
    return pop.q.sum(axis=(0, 1, 2, 3))


def observed_from_population(pop: FullPopulation64) -> ObservedDistribution:
    """Observable cell probabilities induced by randomized treatment (analytic, n = 0)."""
    return ObservedDistribution(_evaluate(_OBSERVED, pop.q.reshape(64)))


def strata16_from_population(pop: FullPopulation64, reference: int) -> lp_engine.StrataDistribution16:
    """Marginalize the full law onto the sixteen strata used by the LP at ``reference``."""
    if reference == 1:
        marg = pop.q.sum(axis=(2, 3))  # keeps (y11, y10, m1, m0)
    else:
        marg = pop.q.sum(axis=(0, 1))  # keeps (y01, y00, m1, m0)
    return lp_engine.StrataDistribution16(psi=marg.reshape(16), reference=reference)


def extend_witness(witness: lp_engine.StrataDistribution16, dist: ObservedDistribution) -> FullPopulation64:
    """Lift a sixteen-stratum witness for ``dist`` to a full population that reproduces its eight cells.

    The witness pins the reference-arm potential outcomes and both mediator
    values.  Each opposite-arm potential outcome Y(1-ref, m) is not in the
    program; it is filled in independently of everything else, equal to 1
    with probability P(Y=1 | M=m, A=1-ref) in ``dist``, or a fair coin where
    that arm has no units with M=m.  The opposite arm's cells are then the
    witness's mediator margin times those rates, which are ``dist``'s cells
    when the witness reproduces that margin.  delta(ref), the defier mass and
    the sign row read no opposite-arm outcome, so they stay the witness's.
    """
    cells = dist.arm(1 - witness.reference).reshape(2, 2)  # [y, m]
    with_m = cells.sum(axis=0)
    rate = np.divide(cells[1], with_m, out=np.full(2, 0.5), where=with_m > 0)
    fill = np.stack([1.0 - rate, rate])  # [Y(1-ref, m), m]
    opposite = fill[:, None, 1] * fill[None, :, 0]  # [Y(1-ref, 1), Y(1-ref, 0)]
    psi = witness.psi.reshape(2, 2, 2, 2)
    if witness.reference == 1:
        q = psi[:, :, None, None, :, :] * opposite[None, None, :, :, None, None]
    else:
        q = opposite[:, :, None, None, None, None] * psi[None, None, :, :, :, :]
    return FullPopulation64(q=q)


def random_population(
    rng: np.random.Generator,
    assumptions: Assumptions = Assumptions.NONE,
    mediator_effect_sign: int = 1,
    reference: int = 1,
) -> FullPopulation64:
    """Draw a population satisfying ``assumptions``, Dirichlet-uniform on its support.

    ``MMR`` zeroes the mediator-defier cells; ``MMR_POS_MEDIATOR`` additionally
    enforces the signed mediator effect on the reference-arm outcome,
    sign * E[Y(reference, 1) - Y(reference, 0)] >= 0, by rejection (acceptance
    is about one half, so this terminates quickly).  The arguments are checked
    as :class:`EstimandSpec` checks them.
    """
    spec = EstimandSpec(reference, assumptions, mediator_effect_sign)
    support = np.full((2,) * 6, True) if spec.assumptions is Assumptions.NONE else ~_DEFIER
    alpha = np.ones(int(support.sum()))
    signed = spec.assumptions is Assumptions.MMR_POS_MEDIATOR
    gap = _Y[spec.reference][1] - _Y[spec.reference][0]
    while True:
        q = np.zeros((2,) * 6)
        q[support] = rng.dirichlet(alpha)
        if not signed or spec.mediator_effect_sign * float((q * gap).sum()) >= 0.0:
            return FullPopulation64(q=q)


def sample_records(pop: FullPopulation64, n_per_arm: int, seed: int) -> np.ndarray:
    """Simulate a balanced randomized study; returns an (2 * n_per_arm, 3) record array.

    Treated units report (1, M(1), Y(1, M(1))), controls (0, M(0), Y(0, M(0))).
    Deterministic in ``seed``; ``n_per_arm`` and ``seed`` must be integers (not bools),
    and ``seed`` nonnegative, of any size.
    """
    n_per_arm, seed = _checked_ints("n_per_arm and seed must be integers", n_per_arm, seed)
    if n_per_arm <= 0:
        raise ValidationError(f"n_per_arm must be positive, got {n_per_arm}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    flat = pop.q.reshape(64)
    flat = flat / flat.sum()  # exact renormalization for the sampler
    out = np.empty((2 * n_per_arm, 3), dtype=np.uint8)
    for a, sl in ((1, slice(0, n_per_arm)), (0, slice(n_per_arm, 2 * n_per_arm))):
        draws = rng.choice(64, size=n_per_arm, p=flat)  # flat indices into the six axes
        out[sl, 0] = a
        out[sl, 1] = _M[a].reshape(64)[draws]
        out[sl, 2] = _FACTUAL[a].reshape(64)[draws]
    return out


def soundness_check(pop: FullPopulation64, spec: EstimandSpec) -> bool:
    """True when the population's actual delta lies inside (within ``ORDER_TOL``) the interval
    computed from its induced observables.  The population must satisfy the
    assumption set being tested; violations make the claim vacuous, not false.
    """
    dist = observed_from_population(pop)
    bounds = closed_form.anie_bounds(dist, spec)
    return bounds.contains(true_estimands(pop).delta(spec.reference))


def sharpness_check(dist: ObservedDistribution, spec: EstimandSpec) -> bool:
    """True when both LP endpoints are attained by witness populations.

    For each endpoint the LP witness is extended to a full population, which
    must (a) reproduce all eight cells of ``dist``, (b) have a true delta equal
    to the endpoint and (c) satisfy the assumption set: no defier mass under
    ``mmr`` and ``mmr-pos-mediator``, and sign * E[Y(ref, 1) - Y(ref, 0)] >= 0
    under ``mmr-pos-mediator``; all within ``ORDER_TOL``.  Check (c) fails a
    program that lost a constraint row, whose witnesses still pass (a) and
    (b).  An infeasible program raises ``lp_engine.InfeasibleError``; that is
    an incompatibility report, not a sharpness failure.
    """
    cross_min, cross_max, wit_min, wit_max = lp_engine.cross_world_range(dist, spec)
    ref = spec.reference
    restricted = spec.assumptions is not Assumptions.NONE
    signed = spec.assumptions is Assumptions.MMR_POS_MEDIATOR
    assumption_rows = _linear_map([_DEFIER, spec.mediator_effect_sign * (_Y[ref][1] - _Y[ref][0])])
    if ref == 1:
        endpoints = (dist.outcome_mean(1) - cross_max, dist.outcome_mean(1) - cross_min)
        witnesses = (wit_max, wit_min)
    else:
        endpoints = (cross_min - dist.outcome_mean(0), cross_max - dist.outcome_mean(0))
        witnesses = (wit_min, wit_max)
    for endpoint, witness in zip(endpoints, witnesses):
        pop = extend_witness(witness, dist)
        if np.abs(observed_from_population(pop).cells - dist.cells).max() > ORDER_TOL:
            return False
        if abs(true_estimands(pop).delta(ref) - endpoint) > ORDER_TOL:
            return False
        defiers, signed_gap = _evaluate(assumption_rows, pop.q.reshape(64))
        if (restricted and defiers > ORDER_TOL) or (signed and signed_gap < -ORDER_TOL):
            return False
    return True


def iot_blindspot_population() -> FullPopulation64:
    """A population with a zero mediator ATE but a large indirect effect.

    Thirty percent mediator compliers whose treated-arm outcome responds
    positively to the mediator, thirty percent defiers whose outcome responds
    negatively, twenty percent always-takers, twenty percent never-takers:
    alpha = 0 exactly while delta(1) = 0.6, so any test built on the mediator
    ATE (the usual first step of indirect-effect testing) has zero power here
    even though the indirect effect is substantial.
    """
    q = np.zeros((2,) * 6)
    q[1, 0, 0, 0, 1, 0] = 0.3  # complier, Y(1,1)=1 > Y(1,0)=0
    q[0, 1, 0, 0, 0, 1] = 0.3  # defier, Y(1,1)=0 < Y(1,0)=1
    q[0, 0, 0, 0, 1, 1] = 0.2  # always-taker
    q[0, 0, 0, 0, 0, 0] = 0.2  # never-taker
    return FullPopulation64(q=q)

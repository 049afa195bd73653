"""Ground-truth machinery for validating bounds against full potential-outcome laws.

A :class:`FullPopulation64` specifies the joint law of the six binary potential
variables

    (Y(1,1), Y(1,0), Y(0,1), Y(0,0), M(1), M(0)),

which is everything there is to know about a binary mediation population.  All
estimands have exact summation formulas here, and marginalizing yields both the
observable distribution and the sixteen-stratum distributions the LP engine
works with.  Tests use this module in two directions:

* soundness: for populations satisfying an assumption set, the true effect must
  land inside the interval computed from the induced observables;
* sharpness: each LP endpoint must be attained by some full population that is
  observationally indistinguishable from the input, obtained by extending the
  LP witness with an independent fill of the unconstrained potential outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_form, lp_engine
from .model import (
    _POP_TOL,
    ORDER_TOL,
    Assumptions,
    EstimandSpec,
    ObservedDistribution,
    ValidationError,
    _checked_ints,
    _checked_masses,
    from_probabilities,
)

# Index grids over the six potential-variable axes, in the canonical axis order
# (y11, y10, y01, y00, m1, m0).
_Y11, _Y10, _Y01, _Y00, _M1, _M0 = np.indices((2,) * 6)
_Y_TREATED = np.where(_M1 == 1, _Y11, _Y10)  # Y(1, M(1)): factual under treatment
_Y_CONTROL = np.where(_M0 == 1, _Y01, _Y00)  # Y(0, M(0)): factual under control
_Y_CROSS_1 = np.where(_M0 == 1, _Y11, _Y10)  # Y(1, M(0)): cross-world, reference 1
_Y_CROSS_0 = np.where(_M1 == 1, _Y01, _Y00)  # Y(0, M(1)): cross-world, reference 0


@dataclass(frozen=True, eq=False)
class FullPopulation64:
    """Joint law over the 64 potential-variable combinations.

    ``q`` has shape (2, 2, 2, 2, 2, 2) with axes (y11, y10, y01, y00, m1, m0),
    where ``y{a}{m}`` is the value of Y(a, m) and ``m{a}`` the value of M(a).
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        arr = _checked_masses(self.q, (2,) * 6, "population masses", 0.0, np.inf, 1, _POP_TOL)
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
    """Treatment, mediator, indirect, and direct effects by direct summation."""
    q = pop.q
    tau = float((q * (_Y_TREATED - _Y_CONTROL)).sum())
    alpha = float((q * (_M1 - _M0)).sum())
    delta1 = float((q * (_Y_TREATED - _Y_CROSS_1)).sum())
    delta0 = float((q * (_Y_CROSS_0 - _Y_CONTROL)).sum())
    zeta1 = float((q * (_Y_TREATED - _Y_CROSS_0)).sum())
    zeta0 = float((q * (_Y_CROSS_1 - _Y_CONTROL)).sum())
    return TrueEstimands(tau=tau, alpha=alpha, delta0=delta0, delta1=delta1, zeta0=zeta0, zeta1=zeta1)


def strata_proportions(pop: FullPopulation64) -> np.ndarray:
    """Principal-stratum shares rho[s, t] = P(M(1)=s, M(0)=t)."""
    return pop.q.sum(axis=(0, 1, 2, 3))


def observed_from_population(pop: FullPopulation64) -> ObservedDistribution:
    """Observable cell probabilities induced by randomized treatment (analytic, n = 0)."""
    q = pop.q
    arm1 = [float(q[(_Y_TREATED == y) & (_M1 == m)].sum()) for y in (0, 1) for m in (0, 1)]
    arm0 = [float(q[(_Y_CONTROL == y) & (_M0 == m)].sum()) for y in (0, 1) for m in (0, 1)]
    return from_probabilities(arm0, arm1)


def strata16_from_population(pop: FullPopulation64, reference: int) -> lp_engine.StrataDistribution16:
    """Marginalize the full law onto the sixteen strata used by the LP at ``reference``."""
    if reference == 1:
        marg = pop.q.sum(axis=(2, 3))  # keeps (y11, y10, m1, m0)
    else:
        marg = pop.q.sum(axis=(0, 1))  # keeps (y01, y00, m1, m0)
    return lp_engine.StrataDistribution16(psi=marg.reshape(16), reference=reference)


def extend_witness(witness: lp_engine.StrataDistribution16) -> FullPopulation64:
    """Lift a sixteen-stratum witness to a full population.

    The witness pins the reference-arm potential outcomes and both mediator
    values; the two opposite-arm potential outcomes are unconstrained by the
    LP, so they are filled in as independent fair coins.  Any fill works for
    sharpness: the observables and the target effect depend only on the
    witness margin.
    """
    psi = witness.psi.reshape(2, 2, 2, 2)
    if witness.reference == 1:
        q = 0.25 * psi[:, :, None, None, :, :] * np.ones((2,) * 6)
    else:
        q = 0.25 * psi[None, None, :, :, :, :] * np.ones((2,) * 6)
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
    defier = (_M1 == 0) & (_M0 == 1)
    while True:
        q = np.zeros((2,) * 6)
        if spec.assumptions is Assumptions.NONE:
            q = rng.dirichlet(np.ones(64)).reshape((2,) * 6)
        else:
            support = ~defier
            q[support] = rng.dirichlet(np.ones(int(support.sum())))
        pop = FullPopulation64(q=q)
        if spec.assumptions is not Assumptions.MMR_POS_MEDIATOR:
            return pop
        gap = _Y11 - _Y10 if spec.reference == 1 else _Y01 - _Y00
        if spec.mediator_effect_sign * float((q * gap).sum()) >= 0.0:
            return pop


def sample_records(pop: FullPopulation64, n_per_arm: int, seed: int) -> np.ndarray:
    """Simulate a balanced randomized study; returns an (2 * n_per_arm, 3) record array.

    Treated units report (1, M(1), Y(1, M(1))), controls (0, M(0), Y(0, M(0))).
    Deterministic in ``seed``; ``n_per_arm`` and ``seed`` must be integers (not bools).
    """
    n_per_arm, seed = _checked_ints("n_per_arm and seed must be integers", n_per_arm, seed)
    if n_per_arm <= 0:
        raise ValidationError(f"n_per_arm must be positive, got {n_per_arm}")
    rng = np.random.default_rng(seed)
    flat = pop.q.reshape(64)
    flat = flat / flat.sum()  # exact renormalization for the sampler
    out = np.empty((2 * n_per_arm, 3), dtype=np.uint8)
    arms = ((1, slice(0, n_per_arm), _M1, _Y_TREATED), (0, slice(n_per_arm, 2 * n_per_arm), _M0, _Y_CONTROL))
    for a, sl, m, y in arms:
        draws = rng.choice(64, size=n_per_arm, p=flat)  # flat indices into the six axes
        out[sl, 0] = a
        out[sl, 1] = m.reshape(64)[draws]
        out[sl, 2] = y.reshape(64)[draws]
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
    must (a) reproduce the reference-arm cells and the opposite-arm mediator
    margin of ``dist`` and (b) have a true delta equal to the endpoint, all within
    ``ORDER_TOL``.  An infeasible program raises ``lp_engine.InfeasibleError``;
    that is an incompatibility report, not a sharpness failure.
    """
    cross_min, cross_max, wit_min, wit_max = lp_engine.cross_world_range(dist, spec)
    ref = spec.reference
    if ref == 1:
        endpoints = (dist.outcome_mean(1) - cross_max, dist.outcome_mean(1) - cross_min)
        witnesses = (wit_max, wit_min)
    else:
        endpoints = (cross_min - dist.outcome_mean(0), cross_max - dist.outcome_mean(0))
        witnesses = (wit_min, wit_max)
    for endpoint, witness in zip(endpoints, witnesses):
        pop = extend_witness(witness)
        induced = observed_from_population(pop)
        if np.abs(induced.arm(ref) - dist.arm(ref)).max() > ORDER_TOL:
            return False
        if abs(induced.mediator_margin(1 - ref) - dist.mediator_margin(1 - ref)) > ORDER_TOL:
            return False
        if abs(true_estimands(pop).delta(ref) - endpoint) > ORDER_TOL:
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

"""Walk one 2x2x2 study from raw counts to indirect-effect bounds.

The running example is a balanced trial with 100 units per arm whose
cell counts were chosen so every headline number is a round figure.
Run from the repository root:

    python3 demos/bounds_walkthrough.py
"""

from mediation_bounds import (
    Assumptions,
    EstimandSpec,
    ande_bounds,
    anie_expressions,
    ate,
    atm,
    bounds_mmr,
    bounds_mmr_pos_mediator,
    bounds_no_assumption,
    cross_world_range,
    from_counts,
)

# Counts in the order (y=0,m=0), (y=0,m=1), (y=1,m=0), (y=1,m=1),
# control arm first.
dist = from_counts([40, 30, 20, 10, 10, 20, 30, 40])

print("observed cell probabilities")
print("  control arm:", dist.arm(0))
print("  treated arm:", dist.arm(1))
print(f"  ATE  (treatment effect on the outcome) : {ate(dist):+.3f}")
print(f"  ATM  (treatment effect on the mediator): {atm(dist):+.3f}")
print()

# With no assumptions at all, the data still pin the indirect effect
# delta(1) = E[Y(1, M(1))] - E[Y(1, M(0))] to an interval.
none = bounds_no_assumption(dist, reference=1)
lowers, uppers = anie_expressions(EstimandSpec(reference=1))
print(f"no assumptions      : delta(1) in [{none.lower:+.3f}, {none.upper:+.3f}]")
print(f"  binding lower expression: {lowers[none.binding_lower].label}")
print(f"  binding upper expression: {uppers[none.binding_upper].label}")

# Ruling out mediator defiers (units treatment pushes out of the
# mediator) tightens the interval to +-ATM at most.
mmr = bounds_mmr(dist, reference=1)
print(f"no mediator defiers : delta(1) in [{mmr.lower:+.3f}, {mmr.upper:+.3f}]")

# Additionally signing the mediator's effect on the treated-arm outcome
# keeps zero inside but can shave the ends; here it changes nothing.
pos = bounds_mmr_pos_mediator(dist)
print(f"... and signed link : delta(1) in [{pos.lower:+.3f}, {pos.upper:+.3f}]")
print()

# The same intervals fall out of an explicit linear program over the
# sixteen response strata, solved here by the simplex: the closed forms are
# its dual vertices.  The program's objective is the cross-world mean
# E[Y(1, M(0))], and delta(1) = E[Y | A=1] - that mean.
for assumptions in (Assumptions.NONE, Assumptions.MMR, Assumptions.MMR_POS_MEDIATOR):
    spec = EstimandSpec(reference=1, assumptions=assumptions)
    cross_min, cross_max, _, _ = cross_world_range(dist, spec)
    mean = dist.outcome_mean(1)
    print(f"LP check ({assumptions.value:>16}): [{mean - cross_max:+.3f}, {mean - cross_min:+.3f}]")
print()

# Direct-effect bounds come from the decomposition ATE = delta(1) + zeta(0):
# subtracting the indirect interval from the point-identified ATE.
zeta = ande_bounds(dist, reference=0, anie=mmr)
print(f"direct effect       : zeta(0) in [{zeta.lower:+.3f}, {zeta.upper:+.3f}]")
print()
print("Note the mediator ATE is +0.2 while the indirect effect may still be")
print("anywhere in the printed intervals: a nonzero ATM does not point-identify")
print("the indirect effect, it only caps its magnitude under the defier-free")
print("assumption.")

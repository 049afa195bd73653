"""Why testing the mediator ATE is not a test of mediation.

The oracle module builds full potential-outcome populations where every
estimand is known exactly. The shipped blindspot population has a
mediator ATE of exactly zero, so the usual screening step ("does
treatment move the mediator?") has zero power, yet its indirect effect
is 0.6. The bounds see what the screen cannot.

    python3 demos/oracle_blindspot.py
"""

from mediation_bounds import (
    EstimandSpec,
    anie_bounds,
    ate,
    atm,
)
from mediation_bounds.oracle import (
    iot_blindspot_population,
    observed_from_population,
    soundness_check,
    strata_proportions,
    true_estimands,
)

pop = iot_blindspot_population()
truth = true_estimands(pop)
rho = strata_proportions(pop)

print("principal strata (shares of the population)")
print(f"  mediator compliers   rho[1,0] = {rho[1, 0]:.2f}  (outcome helped by mediator)")
print(f"  mediator defiers     rho[0,1] = {rho[0, 1]:.2f}  (outcome hurt by mediator)")
print(f"  always-takers        rho[1,1] = {rho[1, 1]:.2f}")
print(f"  never-takers         rho[0,0] = {rho[0, 0]:.2f}")
print()
print(f"true mediator ATE   alpha    = {truth.alpha:+.2f}   (compliers and defiers cancel)")
print(f"true indirect effect delta(1) = {truth.delta1:+.2f}   (both strata push the same way)")
print(f"true total effect    tau      = {truth.tau:+.2f}")
print()

# What a study of this population would record, with infinite data:
dist = observed_from_population(pop)
print("induced observables")
print(f"  observed ATE: {ate(dist):+.2f}   observed ATM: {atm(dist):+.2f}")
print()

# An ATM-based screen concludes "no mediation path". The bounds instead
# report an interval whose upper end reaches the true 0.6.
bounds = anie_bounds(dist, EstimandSpec(reference=1))
print(f"no-assumption bounds: delta(1) in [{bounds.lower:+.2f}, {bounds.upper:+.2f}]")
print(f"truth inside bounds : {soundness_check(pop, EstimandSpec(reference=1))}")
print()
print("The interval cannot exclude zero here (no-assumption bounds never do),")
print("but its width warns that a 0.6 indirect effect is fully consistent with")
print("these observables, where the zero ATM alone would have ended the analysis.")

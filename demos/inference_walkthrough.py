"""Interval inference on a finite sample, judged against the known truth.

A population satisfying the defier-free assumption is drawn once, a
balanced study of 1,000 units per arm is simulated from it, and the
interval estimator is run on the records. Because the population is an
oracle object, the printed estimates can be compared with the true
indirect effect and the true (infinite-data) bounds.

    python3 demos/inference_walkthrough.py
"""

import numpy as np

from mediation_bounds import (
    Assumptions,
    EstimandSpec,
    InferenceConfig,
    anie_bounds,
    clr_bounds,
    iot_test,
)
from mediation_bounds.oracle import (
    observed_from_population,
    random_population,
    sample_records,
    true_estimands,
)

rng = np.random.default_rng(7)
pop = random_population(rng, Assumptions.MMR)
truth = true_estimands(pop)
analytic = anie_bounds(observed_from_population(pop), EstimandSpec(reference=1, assumptions=Assumptions.MMR))

print(f"true indirect effect delta(1) : {truth.delta1:+.4f}")
print(f"infinite-data bounds          : [{analytic.lower:+.4f}, {analytic.upper:+.4f}]")
print()

records = sample_records(pop, n_per_arm=1000, seed=20260819)
spec = EstimandSpec(reference=1, assumptions=Assumptions.MMR)
config = InferenceConfig(alpha=0.05, draws=5000, seed=1)

# The Wald test on the mediator margin is the conventional first step.
iot = iot_test(records, config)
print(f"mediator ATE estimate         : {iot.estimate:+.4f} (se {iot.se:.4f})")
print(f"  95% CI                      : [{iot.ci[0]:+.4f}, {iot.ci[1]:+.4f}]")
print()

# The interval estimator: half-median-unbiased endpoint estimates plus a
# confidence interval for the identified set. Each endpoint is a min/max
# of several sample expressions, so naive plug-in bounds are biased
# inward; the simulated critical values correct for that and for which
# expressions the data happened to select.
interval = clr_bounds(records, spec, config)
print(f"endpoint estimates            : [{interval.bound_lower_hmu:+.4f}, {interval.bound_upper_hmu:+.4f}]")
print(f"95% confidence interval       : [{interval.ci_lower:+.4f}, {interval.ci_upper:+.4f}]")
print(f"truth covered                 : {interval.ci_lower <= truth.delta1 <= interval.ci_upper}")
print()

for side, estimates, diag in (
    ("lower", interval.lower_expressions, interval.lower_diagnostics),
    ("upper", interval.upper_expressions, interval.upper_diagnostics),
):
    kept = ", ".join(estimates[j].label for j in diag.selected)
    print(f"{side} endpoint: kept {{{kept}}} of {len(estimates)} expressions, "
          f"critical value {diag.k_ci:.3f}")
print()
print("Rerunning with a different seed moves the printed values only through")
print("the simulation draws; the records and every plug-in quantity are fixed")
print("by the data.")

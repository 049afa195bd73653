"""Sharp nonparametric bounds for natural indirect effects in binary mediation designs.

The package answers one question honestly: given a randomized binary treatment,
a binary mediator, and a binary outcome, what does the data alone (plus any
explicitly maintained assumption) say about the average natural indirect
effect?  The answer is an identification interval, never a point, and every
interval carries the assumption set that produced it.

Layout:

* :mod:`mediation_bounds.model` observed-data types, estimand specs, results
* :mod:`mediation_bounds.closed_form` the bound table: expressions derived from the
  stratum LP's dual vertices, and the one evaluator :func:`anie_bounds`
* :mod:`mediation_bounds.inference` intersection-bounds estimation and CIs
* :mod:`mediation_bounds.cli` the ``mediation-bounds`` command

The package root exports the public names of the first three.  Data enter
through one of three intakes, :func:`from_counts`, :func:`from_units` (unit
records) or :func:`from_probabilities`, and every interval comes from one
evaluator, :func:`anie_bounds`, given an :class:`EstimandSpec`.  Two more
modules validate the intervals rather than serve them; their names are
imported from the modules themselves:

* :mod:`mediation_bounds.lp_engine` the stratum LP and a witness simplex
* :mod:`mediation_bounds.oracle` full potential-outcome populations
"""

__version__ = "0.3.0"

from .model import (
    Assumptions,
    AssumptionIncompatibilityError,
    BoundsResult,
    ConsistencyError,
    EmptyArmError,
    EstimandSpec,
    InsufficientDataError,
    Method,
    ObservedDistribution,
    ValidationError,
    ate,
    atm,
    from_counts,
    from_probabilities,
    from_units,
)
from .closed_form import (
    anie_bounds,
    anie_expressions,
    ande_bounds,
)
from .inference import (
    InferenceConfig,
    IntervalEstimate,
    WaldResult,
    ate_test,
    clr_bounds,
    iot_test,
)

__all__ = [
    "Assumptions",
    "AssumptionIncompatibilityError",
    "BoundsResult",
    "ConsistencyError",
    "EmptyArmError",
    "EstimandSpec",
    "InsufficientDataError",
    "Method",
    "ObservedDistribution",
    "ValidationError",
    "ate",
    "atm",
    "from_counts",
    "from_probabilities",
    "from_units",
    "anie_bounds",
    "anie_expressions",
    "ande_bounds",
    "InferenceConfig",
    "IntervalEstimate",
    "WaldResult",
    "ate_test",
    "clr_bounds",
    "iot_test",
    "__version__",
]

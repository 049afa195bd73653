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
* :mod:`mediation_bounds.lp_engine` the stratum LP and a witness simplex
* :mod:`mediation_bounds.inference` intersection-bounds estimation and CIs
* :mod:`mediation_bounds.oracle` full potential-outcome populations for validation
* :mod:`mediation_bounds.cli` the ``mediation-bounds`` command
"""

__version__ = "0.1.0"

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
    as_record_array,
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
    bounds_mmr,
    bounds_mmr_pos_mediator,
    bounds_no_assumption,
)
from .inference import (
    InferenceConfig,
    IntervalEstimate,
    WaldResult,
    ate_test,
    clr_bounds,
    estimate_distribution,
    iot_test,
)

# The stratum LP and the oracle serve validation and the tests; the command
# line needs neither, so they load on first use.  Their names are looked up
# on each access and never stored here, so a function rebound in its own
# module (as tracing does) is what the package serves too.
_LAZY = {
    "lp_engine": (
        "InfeasibleError",
        "LinearProgram",
        "Sense",
        "StrataDistribution16",
        "UnboundedError",
        "build_lp",
        "cross_world_range",
        "format_lp",
        "solve",
    ),
    "oracle": (
        "FullPopulation64",
        "TrueEstimands",
        "extend_witness",
        "iot_blindspot_population",
        "observed_from_population",
        "random_population",
        "sample_records",
        "sharpness_check",
        "soundness_check",
        "strata16_from_population",
        "strata_proportions",
        "true_estimands",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    import importlib

    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_HOME:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})


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
    "as_record_array",
    "ate",
    "atm",
    "from_counts",
    "from_probabilities",
    "from_units",
    "anie_bounds",
    "anie_expressions",
    "ande_bounds",
    "bounds_mmr",
    "bounds_mmr_pos_mediator",
    "bounds_no_assumption",
    "InfeasibleError",
    "LinearProgram",
    "Sense",
    "StrataDistribution16",
    "UnboundedError",
    "build_lp",
    "cross_world_range",
    "format_lp",
    "solve",
    "InferenceConfig",
    "IntervalEstimate",
    "WaldResult",
    "ate_test",
    "clr_bounds",
    "estimate_distribution",
    "iot_test",
    "FullPopulation64",
    "TrueEstimands",
    "extend_witness",
    "iot_blindspot_population",
    "observed_from_population",
    "random_population",
    "sample_records",
    "sharpness_check",
    "soundness_check",
    "strata16_from_population",
    "strata_proportions",
    "true_estimands",
    "__version__",
]

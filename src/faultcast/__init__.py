"""Fault predictability analysis for partially observable discrete event systems.

The package answers four related questions about a finite-state model
with observable and unobservable events and a set of faulty states:

* how many observations separate each state from the fault set
  (`compute_distances`),
* whether a monitor seeing only observable events can always raise an
  alarm i observations early with a promise of at most j more
  (`analyze`, `is_ij_predictable`),
* for each lead time i, the tightest such promise (`compute_frontier`),
* and what the best honest prediction is while observations stream in
  (`PredictionSession`, `compile_predictor`).

Models are built with `make_model`, read and written with `parse_model`
and `serialize_model`, and checked with `validate`.  `faultcast.oracle`
holds slow, independent reference answers to the same questions.
"""

from .belief import (
    BeliefAutomaton,
    BeliefState,
    DEFAULT_NODE_CAP,
    PredictionSession,
    compile_predictor,
)
from .desfile import ModelDocument, parse_model, serialize_model
from .distances import (
    DistanceTable,
    compute_avoid_set,
    compute_distances,
    compute_dmax,
    compute_dmin,
)
from .errors import (
    CapExceededError,
    FaultcastError,
    ImpossibleObservationError,
    InitialFaultyError,
    InvalidIntervalError,
    InvalidModelError,
    ModelSyntaxError,
    NoWitnessError,
)
from .families import drifting_plant, fan_system
from .intervals import INF, ExtNat, Interval, format_extnat, parse_extnat
from .model import (
    DesModel,
    Event,
    Finding,
    check_valid,
    fault_closure,
    make_model,
    unobservable_closure,
    validate,
)
from .predictability import (
    Analysis,
    HullEntry,
    PredictabilityFrontier,
    QueryVerdict,
    analyze,
    best_horizon,
    compute_frontier,
    is_i_predictable,
    is_ij_predictable,
)
from .twin import (
    TwinReachability,
    build_twin,
    reachable_edges,
    witness_observations,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "BeliefAutomaton",
    "BeliefState",
    "CapExceededError",
    "DEFAULT_NODE_CAP",
    "DesModel",
    "DistanceTable",
    "Event",
    "ExtNat",
    "FaultcastError",
    "Finding",
    "HullEntry",
    "INF",
    "ImpossibleObservationError",
    "InitialFaultyError",
    "Interval",
    "InvalidIntervalError",
    "InvalidModelError",
    "ModelDocument",
    "ModelSyntaxError",
    "NoWitnessError",
    "PredictabilityFrontier",
    "PredictionSession",
    "QueryVerdict",
    "TwinReachability",
    "analyze",
    "best_horizon",
    "build_twin",
    "check_valid",
    "compile_predictor",
    "compute_avoid_set",
    "compute_distances",
    "compute_dmax",
    "compute_dmin",
    "compute_frontier",
    "drifting_plant",
    "fan_system",
    "fault_closure",
    "format_extnat",
    "is_i_predictable",
    "is_ij_predictable",
    "make_model",
    "parse_extnat",
    "parse_model",
    "reachable_edges",
    "serialize_model",
    "unobservable_closure",
    "validate",
    "witness_observations",
]

"""Differentially private counter vectors under continual observation, plus a
simulation laboratory that plays sequential games (resource sharing, cut,
scheduling, cost sharing, market sharing) against perfect, private, and empty
counters and measures welfare against exactly computed optima."""

from . import scenarios  # registers the reproduce scenarios with the harness
from .counters import (
    AccuracyEnvelope,
    EmptyCounter,
    FTSum,
    MonotoneWrapper,
    PerfectCounter,
    PrivacyBudget,
    TreeSum,
    UnderestimatorWrapper,
    ZeroFailureWrapper,
    envelope_check,
)
from .errors import (
    ContcountError,
    ParameterError,
    SizeError,
    StateError,
    ValidationError,
)
from .games import (
    COST_SHARING,
    CUT,
    FUTURE_DEPENDENT,
    RESOURCE,
    SCHEDULING,
    CostSharingInstance,
    CutInstance,
    GameRule,
    PlayTrace,
    ResourceSharingInstance,
    SchedulingInstance,
    ValueCurve,
    play,
    verify_trace,
)
from .harness import (
    ExperimentConfig,
    MechanismSpec,
    list_scenarios,
    reproduce,
    run_experiment,
)
from .noise import RandomSource, laplace
from .optimal import (
    OptResult,
    opt_cost_sharing,
    opt_cut,
    opt_future_dependent,
    opt_resource_sharing,
    opt_scheduling,
)
from .strategies import BeliefGreedy, Greedy, is_undominated, scripted

__version__ = "0.1.0"

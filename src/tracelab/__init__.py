"""tracelab: a desk-scale laboratory for stagewise trace and cost-function
constructions, with exact rational accounting and combinatorial audits."""

__version__ = "0.1.0"

from .approximations import (
    ChangeSet,
    WordApproximation,
    change_set,
    decode,
    obedience_speedup,
    readable_depth,
)
from .costs import (
    CostTable,
    PartialCostTable,
    marker_sequence,
    obedience_sum,
    sum_benign,
    totalize,
)
from .errors import HorizonExhausted, InvariantViolation, ScenarioError
from .promotion import PromotionEngine
from .synthesis import Requirement, SynthesisRun, audit_requirement
from .tracer import BoxLayout, Environment, HonestPolicy, RandomPolicy, ScriptedPolicy
from .words import comparable, restrict

__all__ = [
    "BoxLayout",
    "ChangeSet",
    "CostTable",
    "Environment",
    "HonestPolicy",
    "HorizonExhausted",
    "InvariantViolation",
    "PartialCostTable",
    "PromotionEngine",
    "RandomPolicy",
    "Requirement",
    "ScenarioError",
    "ScriptedPolicy",
    "SynthesisRun",
    "WordApproximation",
    "__version__",
    "audit_requirement",
    "change_set",
    "comparable",
    "decode",
    "marker_sequence",
    "obedience_speedup",
    "obedience_sum",
    "readable_depth",
    "restrict",
    "sum_benign",
    "totalize",
]

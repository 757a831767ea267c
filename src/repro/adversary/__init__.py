"""Adversaries and adversary schemas (Definitions 2.2, 2.6, 3.3).

Deterministic adversaries resolve the nondeterminism of a probabilistic
automaton; schemas are named subsets of them, and the Unit-Time schema
of Section 6.2 is realised by round-based schedulers.
"""

from repro.adversary.base import (
    Adversary,
    AdversarySchema,
    FunctionAdversary,
    ShiftedAdversary,
    all_adversaries_schema,
    shift,
)
from repro.adversary.deterministic import (
    FirstEnabledAdversary,
    RoundRobinAdversary,
    SequenceAdversary,
    StatePolicyAdversary,
    StoppingAdversary,
)
from repro.adversary.deadline import (
    StaggeredDeadlineAdversary,
    evenly_staggered,
)
from repro.adversary.greedy import GreedyMinimizerPolicy
from repro.adversary.search import (
    HashedRandomRoundPolicy,
    fragment_digest,
)
from repro.adversary.unit_time import (
    ADVANCE_TIME,
    HALT,
    FifoRoundPolicy,
    ProcessView,
    ReversedRoundPolicy,
    RotatingRoundPolicy,
    RoundBasedAdversary,
    RoundPolicy,
    steps_of_process,
    unit_time_schema,
)

__all__ = [
    "ADVANCE_TIME",
    "Adversary",
    "AdversarySchema",
    "FifoRoundPolicy",
    "FirstEnabledAdversary",
    "FunctionAdversary",
    "GreedyMinimizerPolicy",
    "HALT",
    "HashedRandomRoundPolicy",
    "ProcessView",
    "ReversedRoundPolicy",
    "RotatingRoundPolicy",
    "RoundBasedAdversary",
    "RoundPolicy",
    "RoundRobinAdversary",
    "SequenceAdversary",
    "ShiftedAdversary",
    "StaggeredDeadlineAdversary",
    "StatePolicyAdversary",
    "StoppingAdversary",
    "evenly_staggered",
    "all_adversaries_schema",
    "fragment_digest",
    "shift",
    "steps_of_process",
    "unit_time_schema",
]

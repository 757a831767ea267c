"""Herman's probabilistic self-stabilizing token ring (new case study).

The canonical next randomized-ring protocol after Lehmann-Rabin: an odd
ring of bit-holding processes where token holders flip a (possibly
biased) coin each round and everyone else copies left, merging tokens
until the legal single-token configuration is reached.  Packaged for
the paper's framework — Unit-Time process view, arrow-statement claims
and the retry-recursion expected-time bound — and registered as the
``herman`` model in :mod:`repro.models`.
"""

from repro.algorithms.herman.automaton import (
    COPY,
    FAIR_COIN,
    FLIP,
    HermanProcessView,
    herman_automaton,
    herman_initial_state,
    herman_signature,
    herman_time_of,
    herman_transitions,
    token_at,
    token_count,
)
from repro.algorithms.herman.claims import (
    HERMAN_SCHEMA,
    REDUCED_CLASS,
    STABLE_CLASS,
    TOP_CLASS,
    at_top,
    collapse_probability,
    herman_expected_time_bound,
    herman_progress_statement,
    in_reduced,
    stabilized,
)
from repro.algorithms.herman.state import HermanState, herman_fresh_state

__all__ = [
    "COPY",
    "FAIR_COIN",
    "FLIP",
    "HERMAN_SCHEMA",
    "HermanProcessView",
    "HermanState",
    "REDUCED_CLASS",
    "STABLE_CLASS",
    "TOP_CLASS",
    "at_top",
    "collapse_probability",
    "herman_automaton",
    "herman_expected_time_bound",
    "herman_fresh_state",
    "herman_initial_state",
    "herman_progress_statement",
    "herman_signature",
    "herman_time_of",
    "herman_transitions",
    "in_reduced",
    "stabilized",
    "token_at",
    "token_count",
]

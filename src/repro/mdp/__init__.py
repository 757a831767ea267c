"""Exact extremal-probability checking (MDP view of the automaton)."""

from repro.mdp.bounded import min_reach_over_starts, min_reach_probability_rounds
from repro.mdp.expected_time import extremal_expected_time_rounds
from repro.mdp.value_iteration import bounded_reachability, unbounded_reachability

__all__ = [
    "bounded_reachability",
    "extremal_expected_time_rounds",
    "min_reach_over_starts",
    "min_reach_probability_rounds",
    "unbounded_reachability",
]

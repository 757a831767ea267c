"""Execution automata, the cone measure, and Monte-Carlo sampling."""

from repro.execution.automaton import ExecutionAutomaton
from repro.execution.measure import (
    EventBounds,
    event_probability_bounds,
    exact_event_probability,
    rectangle_probability,
)
from repro.execution.sampler import (
    SampleResult,
    sample_event,
    sample_time_until,
)

__all__ = [
    "EventBounds",
    "ExecutionAutomaton",
    "SampleResult",
    "event_probability_bounds",
    "exact_event_probability",
    "rectangle_probability",
    "sample_event",
    "sample_time_until",
]

"""Experiment harness: Monte-Carlo runners, sweeps, and reporting."""

from repro.analysis.experiments import (
    AdversaryPowerRow,
    HorizonRow,
    ScalingRow,
    adversary_power_comparison,
    horizon_sweep,
    ring_size_sweep,
)
from repro.analysis.montecarlo import (
    check_all_leaves,
    check_statement,
    measure_expected_time,
    start_states_for,
)
from repro.analysis.reporting import banner, format_table

# The Lehmann-Rabin phase decomposition moved to
# repro.algorithms.lehmann_rabin.phases with the model front-end split:
# it is algorithm-specific analysis, not generic machinery.

__all__ = [
    "AdversaryPowerRow",
    "HorizonRow",
    "ScalingRow",
    "adversary_power_comparison",
    "banner",
    "check_all_leaves",
    "check_statement",
    "format_table",
    "horizon_sweep",
    "measure_expected_time",
    "ring_size_sweep",
    "start_states_for",
]

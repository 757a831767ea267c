"""Model-contract guard layer (Definitions 2.1 / 2.2 / 3.3).

The rest of the library trusts model code: an automaton whose target
distribution sums to 0.99, an adversary scheduling a disabled step, or
a schema falsely declared execution closed would silently corrupt every
probability estimate downstream.  This package makes those violations
*observable*:

* :mod:`~repro.contracts.config` — the three enforcement modes
  (``off`` no-op / ``warn`` count + once-per-site warning / ``strict``
  raise) and per-execution fuel budgets, as a picklable
  :class:`GuardConfig` threaded through the hot paths and across the
  fork boundary.
* :mod:`~repro.contracts.guards` — the runtime checks themselves.
* :mod:`~repro.contracts.fuel` — step/wall-clock budgets per execution.
* :mod:`~repro.contracts.audit` — a static well-formedness pass over an
  automaton (``repro audit``).
* :mod:`~repro.contracts.quarantine` — records of per-(adversary,
  start) tasks a strict run skipped instead of aborting.

Violations are the :class:`~repro.errors.ContractViolation` taxonomy;
warn-mode occurrences are counted on ``contracts.*`` obs counters.
See ``docs/contracts.md``.
"""

from repro.contracts.audit import AuditFinding, AuditReport, audit_automaton
from repro.contracts.config import (
    MODES,
    OFF,
    OFF_CONFIG,
    STRICT,
    WARN,
    GuardConfig,
)
from repro.contracts.fuel import Fuel, fuel_for
from repro.contracts.guards import (
    check_chosen_step,
    check_schema_membership,
    check_transition_distribution,
    describe_violation,
    report_violation,
    reset_warnings,
    spot_check_closure,
)
from repro.contracts.quarantine import QuarantinedPair

__all__ = [
    "AuditFinding",
    "AuditReport",
    "audit_automaton",
    "MODES",
    "OFF",
    "OFF_CONFIG",
    "STRICT",
    "WARN",
    "GuardConfig",
    "Fuel",
    "fuel_for",
    "check_chosen_step",
    "check_schema_membership",
    "check_transition_distribution",
    "describe_violation",
    "report_violation",
    "reset_warnings",
    "spot_check_closure",
    "QuarantinedPair",
]

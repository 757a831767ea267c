"""Shared report plumbing for every verifier report type.

Two fragments of plumbing used to be duplicated (or nearly so) across
the sampling, exact, and time-to-target report paths in
:mod:`repro.proofs.verifier`: the checkpoint-scope marker for
outcome-affecting guard settings, and the ``to_dict`` row shaping for
per-pair entries and quarantine records.
Centralising them here means a report produced by the batched
state-space engine cannot drift from the tree engine's byte-for-byte —
both go through the same helpers.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.contracts import GuardConfig, QuarantinedPair


def guard_scope_suffix(config: GuardConfig) -> str:
    """The checkpoint-scope marker for outcome-affecting guard settings.

    Off and warn (without fuel) produce identical outcomes, so they
    share the unmarked scope; strict mode can quarantine pairs and fuel
    budgets can truncate samples, so either segregates its checkpoints.
    The engine choice is deliberately *not* part of the scope: tree and
    batched evaluation produce byte-identical outcomes, so checkpoints
    written under one engine resume cleanly under the other.
    """
    if not config.strict and not config.fuelled:
        return ""
    return (
        f"|guards={config.mode}"
        f"|fuel={config.fuel_steps},{config.fuel_seconds}"
    )


def pair_row(adversary_name: str, start_state: object, **fields) -> dict:
    """One JSON-ready per-pair row: identity first, then the payload.

    Every report's ``checks`` rows lead with the same two identity keys
    so sinks and diff tools line pairs up across report kinds.
    """
    row = {"adversary": adversary_name, "start_state": repr(start_state)}
    row.update(fields)
    return row


def quarantined_rows(quarantined: Sequence[QuarantinedPair]) -> List[dict]:
    """The JSON-ready quarantine section shared by all report kinds."""
    return [entry.to_dict() for entry in quarantined]


def quarantine_from_violation(
    adversary_name: str, start_state: object, violation: Tuple[str, str]
) -> QuarantinedPair:
    """A quarantine record from a task outcome's ``(kind, message)``."""
    kind, message = violation
    return QuarantinedPair(
        adversary_name=adversary_name,
        start_state=repr(start_state),
        kind=kind,
        message=message,
    )

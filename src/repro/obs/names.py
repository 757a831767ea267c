"""The canonical catalog of observability metric names.

Every metric the library records is declared here, once, with its kind
and a one-line description.  Three consumers rely on that:

* ``tools/lint.py`` rejects ``obs.incr``/``obs.gauge``/``obs.observe``
  call sites under ``src/`` whose literal name is not declared here —
  a typo'd metric name would otherwise record into a dead counter that
  no table, manifest, or dashboard ever reads;
* ``docs/observability.md`` carries the catalog rendered as a table
  (``python -m repro.obs.names`` prints it; a test pins the doc and
  this module against each other);
* ``repro runs diff`` and the manifest layer treat any name declared
  here as comparable across runs.

A handful of metric *families* are named dynamically (one counter per
ledger rule, one per contract-violation kind).  Those are declared by
prefix in :data:`DYNAMIC_PREFIXES`; the lint pass accepts any literal
that extends a declared prefix, and the docs list the family once.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> (kind, description).  Kinds: ``counter`` | ``gauge`` |
#: ``histogram``.  Keep the table sorted by name.
METRICS: Dict[str, Tuple[str, str]] = {
    "adversary.decisions": (
        "counter", "scheduling decisions an adversary made"),
    "adversary.halts": (
        "counter", "decisions where the adversary halted the execution"),
    "checkpoint.records_dropped": (
        "counter", "undecodable checkpoint lines skipped on load"),
    "checkpoint.tasks_recorded": (
        "counter", "completed task results appended to a checkpoint"),
    "checkpoint.tasks_skipped": (
        "counter", "tasks satisfied from a checkpoint on --resume"),
    "contracts.quarantined": (
        "counter", "(adversary, start) pairs a strict run skipped"),
    "contracts.violations": (
        "counter", "every contract violation detected (any kind)"),
    "corpus.cells": (
        "counter", "matrix cells (mode x engine x workers) classified"),
    "corpus.entries": (
        "counter", "defect-corpus entries replayed"),
    "corpus.mismatches": (
        "counter", "corpus problems: divergent or unexpected cells"),
    "execution.automata_built": (
        "counter", "execution automata constructed"),
    "execution.step_cache_hits": (
        "counter", "execution-automaton step-cache hits"),
    "execution.step_cache_misses": (
        "counter", "execution-automaton step-cache misses"),
    "fragment.extensions": (
        "counter",
        "execution-fragment extension steps; under the batched engine, "
        "the history-walk tree nodes created, not the steps walked"),
    "fuzz.cases": (
        "counter", "differential fuzz cases generated and diffed"),
    "fuzz.divergences": (
        "counter", "fuzz cases on which engines disagreed"),
    "fuzz.shrink_steps": (
        "counter", "simplifying rewrites adopted while shrinking"),
    "ledger.applications": (
        "counter", "proof-rule applications recorded in the ledger"),
    "measure.evaluations": (
        "counter", "exact event-probability evaluations"),
    "measure.tree_nodes": (
        "counter", "nodes expanded by exact tree evaluation"),
    "mdp.bounded.calls": (
        "counter", "bounded-reachability evaluations"),
    "mdp.bounded.states_evaluated": (
        "counter", "memoised states touched by bounded reachability"),
    "mdp.bounded_rounds.calls": (
        "counter", "round-bounded reachability evaluations"),
    "mdp.bounded_rounds.states_evaluated": (
        "counter", "memo entries added by round-bounded reachability"),
    "mdp.expected_time.nodes": (
        "gauge", "nodes in the expected-time MDP"),
    "mdp.expected_time.residual": (
        "histogram", "per-sweep residual of expected-time iteration"),
    "mdp.expected_time.states_touched": (
        "counter", "state updates across expected-time sweeps"),
    "mdp.expected_time.sweeps": (
        "counter", "expected-time value-iteration sweeps"),
    "mdp.value_iteration.residual": (
        "histogram", "per-sweep residual of value iteration"),
    "mdp.value_iteration.states": (
        "gauge", "states in the value-iteration space"),
    "mdp.value_iteration.states_touched": (
        "counter", "state updates across value-iteration sweeps"),
    "mdp.value_iteration.sweeps": (
        "counter", "value-iteration sweeps"),
    "pool.corrupted": (
        "counter", "pooled results rejected by the integrity digest"),
    "pool.crashes": (
        "counter", "worker processes that died without delivering"),
    "pool.degraded": (
        "gauge", "1 when the pool degraded to inline execution"),
    "pool.retries": (
        "counter", "pooled task attempts retried after a worker loss"),
    "pool.timeouts": (
        "counter", "pooled tasks that exceeded their wall-clock timeout"),
    "sampler.accepted": (
        "counter", "samples that satisfied the target event"),
    "sampler.rejected": (
        "counter", "samples that completed without satisfying the event"),
    "sampler.samples": (
        "counter", "execution samples drawn"),
    "sampler.steps": (
        "counter", "execution steps simulated"),
    "sampler.steps_per_sample": (
        "histogram", "steps taken by each execution sample"),
    "sampler.time_samples": (
        "counter", "time-to-target samples drawn"),
    "sampler.time_to_target": (
        "histogram", "observed time until the target region"),
    "sampler.truncated": (
        "counter", "samples cut off by the step budget"),
    "sampler.unreached": (
        "counter", "time samples that never reached the target"),
    "service.cache.corrupt": (
        "counter", "cache entries that failed sha256 verification"),
    "service.cache.hits": (
        "counter", "jobs served from the content-addressed result cache"),
    "service.cache.misses": (
        "counter", "cache lookups that found no verified entry"),
    "service.jobs.cancelled": (
        "counter", "jobs cancelled before completion"),
    "service.jobs.completed": (
        "counter", "jobs completed by a serve run"),
    "service.jobs.failed": (
        "counter", "job attempts recorded as failures"),
    "service.jobs.submitted": (
        "counter", "jobs appended to the durable queue"),
    "service.leases.expired": (
        "counter", "operations rejected because the lease was lost"),
    "service.leases.reclaimed": (
        "counter", "expired running leases returned to pending"),
    "service.store.records_dropped": (
        "counter", "undecodable job-store lines skipped on load"),
    "service.workers.restarted": (
        "counter", "supervised workers restarted after unclean exits"),
    "statespace.compile_ms": (
        "histogram", "wall-clock milliseconds per state-space compile"),
    "statespace.states": (
        "gauge", "start-state classes a batched check interned"),
    "verifier.exact_pairs": (
        "counter", "(adversary, start) pairs checked exactly"),
    "verifier.pair_estimate": (
        "histogram", "per-pair success-probability estimates"),
    "verifier.pairs": (
        "counter", "(adversary, start) pairs sampled"),
    "verifier.samples": (
        "counter", "Monte-Carlo samples drawn across all pairs"),
    "verifier.successes": (
        "counter", "samples that satisfied the checked statement"),
    "verifier.truncated": (
        "counter", "verifier samples cut off by the step budget"),
}

#: Dynamically named metric families, declared by prefix.  A literal
#: call-site name extending one of these prefixes is considered
#: declared; the family is documented once.
DYNAMIC_PREFIXES: Dict[str, Tuple[str, str]] = {
    "contracts.": (
        "counter",
        "per-kind violation counters: contracts.distribution, "
        "contracts.adversary, contracts.closure, contracts.fuel"),
    "ledger.rule.": (
        "counter",
        "per-rule application counters: ledger.rule.assume, "
        "ledger.rule.compose, ..."),
}


def catalog_markdown() -> str:
    """The full metric catalog as a markdown table (for the docs)."""
    lines = ["| name | kind | description |", "| --- | --- | --- |"]
    for name, (kind, description) in sorted(METRICS.items()):
        lines.append(f"| `{name}` | {kind} | {description} |")
    for prefix, (kind, description) in sorted(DYNAMIC_PREFIXES.items()):
        lines.append(f"| `{prefix}*` | {kind} | {description} |")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - doc helper
    print(catalog_markdown())

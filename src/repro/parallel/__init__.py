"""Parallel Monte-Carlo verification backend.

The paper's arrow statements quantify over every adversary and start
state, so sampling checks factor into independent pair tasks.  This
package fans those tasks out across a fork-based worker pool while
keeping results *bit-identical* to a sequential run:

* :mod:`repro.parallel.seeds`      — stable per-task seed derivation;
* :mod:`repro.parallel.backend`    — pair / time-to-target task
  definitions, chunked sampling, Clopper-Pearson early stop, and the
  checkpoint codecs;
* :mod:`repro.parallel.pool`       — the fault-tolerant fork pool:
  crash detection, per-task timeouts, retries with backoff, and
  graceful degradation to inline execution;
* :mod:`repro.parallel.checkpoint` — crash-safe JSONL checkpoints and
  ``--resume`` support;
* :mod:`repro.parallel.faults`     — deterministic fault injection
  (crashes, hangs, corrupted results) for testing the recovery paths;
* :mod:`repro.parallel.merge`      — worker metrics back into the
  parent registry.

See ``docs/parallel.md`` for the seed-derivation scheme and worker
model, and ``docs/robustness.md`` for the failure model, checkpoint
format, and fault-injection spec grammar.
"""

from __future__ import annotations

from repro.parallel.backend import (
    DEFAULT_CHUNK_SIZE,
    ArrowPairContext,
    PairOutcome,
    PairTask,
    TimeStartContext,
    TimeStartOutcome,
    decode_pair_outcome,
    decode_time_outcome,
    encode_pair_outcome,
    encode_time_outcome,
    execute_pair,
    execute_time_start,
    occurrence_indices,
    pair_decided,
)
from repro.parallel.checkpoint import Checkpoint
from repro.parallel.faults import FaultPlan
from repro.parallel.merge import merge_metrics_snapshot, metrics_snapshot
from repro.parallel.pool import (
    RunPolicy,
    available_cpus,
    fork_available,
    resolve_workers,
    run_tasks,
)
from repro.parallel.seeds import derive_rng, derive_seed

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ArrowPairContext",
    "Checkpoint",
    "FaultPlan",
    "PairOutcome",
    "PairTask",
    "RunPolicy",
    "TimeStartContext",
    "TimeStartOutcome",
    "available_cpus",
    "decode_pair_outcome",
    "decode_time_outcome",
    "derive_rng",
    "derive_seed",
    "encode_pair_outcome",
    "encode_time_outcome",
    "execute_pair",
    "execute_time_start",
    "fork_available",
    "merge_metrics_snapshot",
    "metrics_snapshot",
    "occurrence_indices",
    "pair_decided",
    "resolve_workers",
    "run_tasks",
]

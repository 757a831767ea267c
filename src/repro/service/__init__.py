"""Durable verification job service: queue, workers, result cache.

The paper's quantifier — *for all* Unit-Time adversaries — makes real
assurance a matter of long campaigns: multi-seed sweeps, n=5 exact
reachability, fuzz runs that outlive any single process.  This package
is the substrate that lets such campaigns survive the process dying:

* :mod:`repro.service.jobs` — a job is any ordinary verification CLI
  invocation (``check``/``chain``/``verify``/``expected-time``/
  ``stats``/``sweep``/``corpus run``), validated against the real
  parser and identified by the run-manifest *scope fingerprint* of its
  result-affecting configuration.
* :mod:`repro.service.store` — a WAL-style JSONL event log
  (submit/claim/heartbeat/done/fail/cancel/reclaim) with atomic
  fsynced appends and torn-tail tolerance; the queue state is a pure
  fold over the log, and claims are lock-free: append a claim event,
  re-read, first valid claim wins.
* :mod:`repro.service.cache` — a content-addressed result cache keyed
  by the scope fingerprint, sha256-verified on read (corruption is a
  miss that re-runs, never a crash), so identical work is never redone
  across jobs or restarts.
* :mod:`repro.service.worker` — claims jobs under a heartbeat-extended
  lease, runs them in-process through :func:`repro.cli.main`, and
  abandons (never records) work whose lease it lost.
* :mod:`repro.service.supervisor` — forks and restarts workers with
  exponential backoff, detects crash loops, reclaims expired leases,
  and drains gracefully on SIGTERM.

Because every report is a pure function of its root seed and scope,
any interleaving of crashes, restarts, and retries converges to the
same bytes a single undisturbed run produces — ``tests/test_service.py``
kills the runtime mid-campaign and pins exactly that.

See ``docs/service.md`` for the lifecycle, lease protocol, cache
keying, and failure matrix.
"""

from __future__ import annotations

import os

from repro.service.cache import ResultCache, cache_dir
from repro.service.jobs import ALLOWED_COMMANDS, JobSpec
from repro.service.store import JobStore, JobView
from repro.service.supervisor import CrashLoopDetector, Supervisor
from repro.service.worker import run_job_argv, worker_loop

#: Environment variable overriding the default job-store location.
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"

#: Default job-store directory, relative to the current directory.
DEFAULT_SERVICE_DIR = os.path.join(".repro", "service")


def resolve_store_dir(flag: object = None) -> str:
    """The job-store directory: flag > $REPRO_SERVICE_DIR > default."""
    if flag:
        return str(flag)
    env = os.environ.get(SERVICE_DIR_ENV)
    if env:
        return env
    return DEFAULT_SERVICE_DIR


__all__ = [
    "ALLOWED_COMMANDS",
    "CrashLoopDetector",
    "DEFAULT_SERVICE_DIR",
    "JobSpec",
    "JobStore",
    "JobView",
    "ResultCache",
    "SERVICE_DIR_ENV",
    "Supervisor",
    "cache_dir",
    "resolve_store_dir",
    "run_job_argv",
    "worker_loop",
]

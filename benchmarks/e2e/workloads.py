"""The benchmark's workloads: what each one runs.

Three workloads are single ``repro`` commands, run exactly as a user
types them, with ``--seed`` appended.  The fourth, ``service-campaign``,
submits a seeded job mix into a fresh job store and drains it with
``repro serve``.  README.md says which layer each one stresses and
which it bypasses.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: The model and size a set-up run builds (``get_model(M).build(N)``).
    model: str
    n: int
    #: The user's command, without ``--seed``; ``None`` for the service.
    argv: Optional[Tuple[str, ...]]


# The commands are sized as users run them, so each layer's share of
# the time is the share a user pays; a run then holds one or two
# repeats of each.
WORKLOADS = (
    # ROADMAP's reference run.  Compiles the same n=3 space once per
    # statement (6x) and sends the coin-peeking adversaries to the tree
    # walk; the pool runs inline.
    Workload("lr-verify", "lr", 3, (
        "verify", "--model", "lr", "--n", "3", "--engine", "batched",
        "--samples", "120", "--workers", "1",
    )),
    # Markov adversaries only, so every walk is batched; Clopper-Pearson
    # and the 2-worker fork pool dominate.
    Workload("herman-verify", "herman", 5, (
        "verify", "--model", "herman", "--n", "5", "--engine", "batched",
        "--samples", "2000", "--workers", "2",
    )),
    # One compile of 71,524 states, 16x the n=3 working set; a
    # cross-statement compile cache has nothing to reuse here.
    Workload("lr4-check", "lr", 4, (
        "check", "--model", "lr", "--n", "4", "--prop", "composed",
        "--engine", "batched", "--samples", "40",
    )),
    # The only workload in which the job store, result cache and
    # durable appends do work.
    Workload("service-campaign", "lr", 3, None),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: The serve command a service-campaign run times (CLI defaults
#: otherwise); ``--store`` is appended per run.
SERVE_ARGV = ("serve", "--drain", "--workers", "2")

#: The service grid: seven job kinds, each at ``--seed`` 0..GRID_SEEDS-1,
#: roughly longest first (0.32, 0.48, 0.26, 0.11, 0.10, 0.09 and 0.04 s
#: each, run in-process on a 2-CPU x86-64 host).
SERVICE_KINDS = (
    ("check", "--prop", "A.14", "--samples", "16"),
    ("check", "--prop", "A.11", "--samples", "16"),
    ("check", "--model", "herman", "--n", "5", "--samples", "100"),
    ("check", "--prop", "A.3", "--samples", "16"),
    ("expected-time", "--model", "herman", "--n", "5", "--samples", "300"),
    ("check", "--prop", "A.1", "--samples", "16"),
    ("check", "--prop", "A.15", "--samples", "16"),
)
GRID_SEEDS = 4
#: Specs submitted twice back to back at the head of the queue: both
#: workers claim the two copies at once, so each pair costs exactly one
#: wasted execution.
RACING_PAIRS = 2
#: Jobs per campaign; the surplus over the distinct specs are duplicate
#: submissions, each spec submitted at most MAX_COPIES times.
CAMPAIGN_JOBS = 70
MAX_COPIES = 4


def job_mix(seed: int) -> List[Tuple[str, ...]]:
    """The service campaign's job argvs, in submission order.

    Every mix holds the same distinct specs, so the verification work
    does not depend on ``seed``; a run-to-run spread then measures the
    service, not the draw.  The seed picks which specs race, the order
    within each kind and how many copies each spec gets.  After the
    racing pairs comes every other spec once, longest kind first, so
    the drain does not end on one long job; then the remaining copies,
    earliest spec first, so each copy is claimed long after its
    original finished and is served from the cache.
    """
    rng = random.Random(f"service-campaign:{seed}")
    first = []
    for kind in SERVICE_KINDS:
        grid = list(range(GRID_SEEDS))
        rng.shuffle(grid)
        first += [kind + ("--seed", str(grid_seed)) for grid_seed in grid]
    racing = [first.pop(0) for _ in range(RACING_PAIRS)]
    copies = [0] * len(first)
    for _ in range(CAMPAIGN_JOBS - 2 * RACING_PAIRS - len(first)):
        open_slots = [
            i for i, count in enumerate(copies) if count < MAX_COPIES - 1
        ]
        copies[rng.choice(open_slots)] += 1
    later = [argv for argv, count in zip(first, copies) for _ in range(count)]
    return [argv for argv in racing for _ in range(2)] + first + later


def submit_jobs(store_dir: str, seed: int) -> int:
    """Submit the seed's job mix into the store; returns the job count."""
    from repro.service import JobSpec, JobStore

    jobs = job_mix(seed)
    with JobStore(store_dir) as store:
        for argv in jobs:
            store.submit(JobSpec.parse(argv))
    return len(jobs)


def golden_digests() -> dict:
    """Seed-0 output digests, keyed by workload name (see README.md)."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        return json.load(handle)

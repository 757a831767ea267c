"""Deterministic fault injection for the worker pool.

The recovery paths in :mod:`repro.parallel.pool` — crash detection,
timeouts, retries, checkpoint/resume — are themselves code, and code
that only runs when hardware misbehaves is code that never runs in CI.
This module makes failures a *scheduled, reproducible* part of a run: a
:class:`FaultPlan` injects worker crashes, hangs, and corrupted results
at configurable rates, with every injection decision a pure function of
the plan's seed, the task's derived seed, and the attempt number.

That purity matters twice over.  First, an injected run is replayable:
the same spec and root seed produce the same failures, so a chaos
regression is debuggable.  Second, retries converge: attempt 2 of a
task draws a *fresh* injection decision (the attempt number is part of
the identity), so a task crashed by a ``crash=0.3`` plan is not doomed
to crash forever — exactly like a real transient fault.  Because the
task's own RNG stream is untouched by any of this, a run that survives
injected faults produces a report bit-identical to an undisturbed run
(``tests/test_faults.py`` pins this).

Spec grammar (the ``--inject-faults`` flag)::

    SPEC  := FIELD ("," FIELD)*
    FIELD := POOL "=" RATE | SERVICE "=" RATE | "seed" "=" INT
    POOL  := "crash" | "hang" | "corrupt"
    SERVICE := "kill" | "steal" | "torn" | "cache"
    RATE  := float in [0, 1]

e.g. ``crash=0.1,hang=0.05,corrupt=0.02,seed=7``.  The pool rates must
sum to at most 1: one uniform draw per (task, attempt) is partitioned
into crash / hang / corrupt / healthy bands, so the three pool faults
are mutually exclusive per attempt.

The service fields target the job runtime in :mod:`repro.service`
instead of the pool, and fire at unrelated sites — a worker killing
itself after claiming a job (``kill``), a simulated lease takeover
(``steal``), a WAL append torn mid-line by a process death (``torn``),
a result-cache entry corrupted after write (``cache``) — so each is an
independent per-site draw (:meth:`FaultPlan.decide_service`) rather
than a band of the shared pool draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import VerificationError
from repro.parallel.seeds import derive_rng

# Injection kinds, as the pool's worker entry point receives them.
CRASH = "crash"
HANG = "hang"
CORRUPT = "corrupt"

# Service-level injection kinds, as repro.service receives them.
KILL = "kill"
STEAL = "steal"
TORN = "torn"
CACHE = "cache"

_RATE_FIELDS = (CRASH, HANG, CORRUPT)
_SERVICE_FIELDS = (KILL, STEAL, TORN, CACHE)


@dataclass(frozen=True)
class FaultPlan:
    """A seed-driven schedule of injected worker failures.

    ``crash`` kills the worker process with a nonzero exit before it
    runs its task; ``hang`` makes the worker sleep past any plausible
    timeout (the parent must reclaim it, so a plan with ``hang > 0``
    requires a per-task timeout); ``corrupt`` lets the task complete
    but mangles the result payload after its integrity digest is
    computed, so the parent's digest check must catch it.
    """

    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    kill: float = 0.0
    steal: float = 0.0
    torn: float = 0.0
    cache: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (*_RATE_FIELDS, *_SERVICE_FIELDS):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise VerificationError(
                    f"fault rate {name}={rate} must lie in [0, 1]"
                )
        if self.crash + self.hang + self.corrupt > 1.0:
            raise VerificationError(
                "fault rates must sum to at most 1 "
                f"(got {self.crash + self.hang + self.corrupt})"
            )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse an ``--inject-faults`` spec string.

        Raises :class:`~repro.errors.VerificationError` on unknown
        fields, malformed numbers, duplicate fields, or rates outside
        [0, 1].
        """
        values: dict = {}
        for field in spec.split(","):
            field = field.strip()
            if not field:
                continue
            name, separator, raw = field.partition("=")
            name = name.strip()
            if not separator:
                raise VerificationError(
                    f"fault spec field {field!r} is not NAME=VALUE"
                )
            if name not in (*_RATE_FIELDS, *_SERVICE_FIELDS, "seed"):
                raise VerificationError(
                    f"unknown fault spec field {name!r} (choices: "
                    f"crash, hang, corrupt, kill, steal, torn, cache, "
                    f"seed)"
                )
            if name in values:
                raise VerificationError(
                    f"duplicate fault spec field {name!r}"
                )
            try:
                values[name] = int(raw) if name == "seed" else float(raw)
            except ValueError:
                raise VerificationError(
                    f"fault spec field {name!r} has a malformed value "
                    f"{raw.strip()!r}"
                ) from None
        if not any(
            name in values for name in (*_RATE_FIELDS, *_SERVICE_FIELDS)
        ):
            raise VerificationError(
                f"fault spec {spec!r} injects nothing "
                "(set crash=, hang=, corrupt=, kill=, steal=, torn=, "
                "or cache=)"
            )
        return cls(**values)

    @property
    def active(self) -> bool:
        """True when the plan can inject at least one fault."""
        return (self.crash + self.hang + self.corrupt) > 0.0

    def decide(self, task_seed: int, attempt: int) -> Optional[str]:
        """The fault (if any) to inject into one attempt of one task.

        A pure function of ``(plan seed, task seed, attempt)`` — never
        of scheduling, worker count, or how many other tasks exist — so
        injected runs replay exactly and a retried attempt redraws its
        fate independently.  Returns :data:`CRASH`, :data:`HANG`,
        :data:`CORRUPT`, or ``None`` (healthy).
        """
        if not self.active:
            return None
        draw = derive_rng(self.seed, "fault", task_seed, attempt).random()
        if draw < self.crash:
            return CRASH
        if draw < self.crash + self.hang:
            return HANG
        if draw < self.crash + self.hang + self.corrupt:
            return CORRUPT
        return None

    def decide_service(self, kind: str, *identity: object) -> bool:
        """Whether the service fault ``kind`` fires at one site.

        Unlike the pool faults, the service faults strike unrelated
        sites (a claim, a WAL append, a cache write), so each kind
        draws independently.  The draw is a pure function of
        ``(plan seed, kind, identity)``; callers pass an identity that
        names the site stably across restarts — e.g. ``(job_id,
        attempt)`` for a worker kill, or ``(event_kind, job_id,
        attempt_index)`` for a torn WAL append — so a resumed
        campaign replays the same fault schedule and a retried site
        redraws its fate.  The identity must advance on every retry
        even when the fault destroys the evidence of the attempt: a
        torn append leaves no landed event, so its index counts crash
        scars (dropped half-lines), not landed occurrences —
        otherwise a respawned worker redraws the identical tear
        forever.
        """
        if kind not in _SERVICE_FIELDS:
            raise VerificationError(f"unknown service fault kind {kind!r}")
        rate = getattr(self, kind)
        if rate <= 0.0:
            return False
        draw = derive_rng(self.seed, "service-fault", kind, *identity)
        return draw.random() < rate

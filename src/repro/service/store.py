"""The WAL-style job store: an append-only event log, folded on read.

The store is one JSONL file, ``jobs.jsonl``, holding seven event
kinds::

    submit    {job, argv, scope, seq, max_attempts, at}
    claim     {job, worker, at, lease_until}
    heartbeat {job, worker, at, lease_until}
    done      {job, worker, at, exit_status, cached}
    fail      {job, worker, at, error}
    cancel    {job, at}
    reclaim   {job, at}

Every append goes through :class:`repro.durable_io.DurableAppender` —
one fsynced write of one terminated line — so a ``kill -9`` tears at
most the final line, which the appender seals on reopen and the loader
drops.  Queue state is never stored: :meth:`JobStore.jobs` is a pure
fold over the event sequence, so any process (worker, supervisor, CLI)
reconstructs the identical state from the same log.

**Lock-free claims.**  There is no file lock.  A claimer appends a
claim event, re-reads the log, and re-folds: the fold grants a claim
to the *first* claim event that arrives while the job is pending, or
whose own timestamp shows the previous lease already expired (a
takeover).  POSIX ``O_APPEND`` keeps concurrent appends whole-line
atomic, so racers observe the same order and agree on the winner;
losers simply move on.  The same rule makes expired-lease recovery
automatic — a takeover claim is valid with or without an explicit
supervisor ``reclaim`` event (which exists to make the state visible
in ``repro jobs list`` promptly).

A torn tail is crash damage and tolerated; anything else — an
unreadable file, a record of the wrong shape, an unknown event — is
:class:`~repro.errors.JobStoreCorruptionError`: no crash of a correct
writer produces it, and guessing could hand one job to two workers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import durable_io, obs
from repro.errors import (
    JobStoreCorruptionError,
    LeaseExpiredError,
    VerificationError,
)
from repro.service.jobs import JobSpec

#: The WAL file name inside a store root.
STORE_FILE = "jobs.jsonl"

#: Exit status of a worker process killed by torn-WAL fault injection.
TORN_EXIT = 81

_SETTLED = ("completed", "failed", "cancelled")

#: Required fields (and accepted types) per event kind.  ``float``
#: accepts ints too — JSON round-trips whole-number floats as ints.
_EVENT_FIELDS: Dict[str, Dict[str, tuple]] = {
    "submit": {
        "job": (str,), "argv": (list,), "scope": (str,), "seq": (int,),
        "max_attempts": (int,), "at": (int, float),
    },
    "claim": {
        "job": (str,), "worker": (str,), "at": (int, float),
        "lease_until": (int, float),
    },
    "heartbeat": {
        "job": (str,), "worker": (str,), "at": (int, float),
        "lease_until": (int, float),
    },
    "done": {
        "job": (str,), "worker": (str,), "at": (int, float),
        "exit_status": (int,), "cached": (bool,),
    },
    "fail": {
        "job": (str,), "worker": (str,), "at": (int, float),
        "error": (str,),
    },
    "cancel": {"job": (str,), "at": (int, float)},
    "reclaim": {"job": (str,), "at": (int, float)},
}


@dataclass
class JobView:
    """The folded state of one job (a pure function of the log)."""

    job_id: str
    argv: Tuple[str, ...]
    scope: str
    seq: int
    max_attempts: int
    submitted_at: float
    state: str = "pending"  # pending|running|completed|failed|cancelled
    worker: Optional[str] = None
    lease_until: float = 0.0
    claims: int = 0
    failures: int = 0
    exit_status: Optional[int] = None
    cached: bool = False
    error: str = ""
    finished_at: Optional[float] = None

    @property
    def settled(self) -> bool:
        return self.state in _SETTLED

    def to_dict(self) -> dict:
        return {
            "job": self.job_id,
            "argv": list(self.argv),
            "scope": self.scope,
            "seq": self.seq,
            "max_attempts": self.max_attempts,
            "state": self.state,
            "worker": self.worker,
            "lease_until": self.lease_until,
            "claims": self.claims,
            "failures": self.failures,
            "exit_status": self.exit_status,
            "cached": self.cached,
            "error": self.error,
        }


def fold_events(events: List[dict]) -> Dict[str, JobView]:
    """Replay an event sequence into per-job state.

    Events referencing unknown jobs and stale events (a claim on a
    live lease, a done for an already-settled job) are ignored — they
    are what losing a claim race or acting on a stolen lease looks
    like in the log, and the fold's job is to pick the winner the same
    way in every process.
    """
    jobs: Dict[str, JobView] = {}
    for event in events:
        kind = event["event"]
        if kind == "submit":
            if event["job"] in jobs:
                continue
            jobs[event["job"]] = JobView(
                job_id=event["job"],
                argv=tuple(str(part) for part in event["argv"]),
                scope=event["scope"],
                seq=event["seq"],
                max_attempts=event["max_attempts"],
                submitted_at=event["at"],
            )
            continue
        view = jobs.get(event["job"])
        if view is None:
            continue
        if kind == "claim":
            grantable = view.state == "pending" or (
                view.state == "running"
                and event["at"] >= view.lease_until
            )
            if grantable:
                view.state = "running"
                view.worker = event["worker"]
                view.lease_until = event["lease_until"]
                view.claims += 1
        elif kind == "heartbeat":
            if view.state == "running" and view.worker == event["worker"]:
                view.lease_until = max(
                    view.lease_until, event["lease_until"]
                )
        elif kind == "done":
            if view.state not in ("completed", "cancelled"):
                view.state = "completed"
                view.worker = event["worker"]
                view.exit_status = event["exit_status"]
                view.cached = event["cached"]
                view.finished_at = event["at"]
        elif kind == "fail":
            if view.state not in _SETTLED:
                view.failures += 1
                view.error = event["error"]
                view.worker = None
                view.lease_until = 0.0
                if view.failures >= view.max_attempts:
                    view.state = "failed"
                    view.finished_at = event["at"]
                else:
                    view.state = "pending"
        elif kind == "cancel":
            if view.state not in ("completed", "failed"):
                view.state = "cancelled"
                view.finished_at = event["at"]
        elif kind == "reclaim":
            if view.state == "running" and event["at"] >= view.lease_until:
                view.state = "pending"
                view.worker = None
                view.lease_until = 0.0
    return jobs


class JobStore:
    """One process's handle on a shared WAL job store.

    ``clock`` is injectable for deterministic lease tests; ``faults``
    (a :class:`~repro.parallel.faults.FaultPlan`) arms the ``torn``
    WAL-write injection, which writes half a line and kills the
    process — exactly the damage the appender and loader must absorb.
    Thread-safe: a worker's heartbeat thread and its main loop share
    one instance.
    """

    def __init__(
        self,
        root: str,
        *,
        clock: Callable[[], float] = time.time,
        faults: object = None,
    ):
        self.root = str(root)
        self.path = os.path.join(self.root, STORE_FILE)
        self.clock = clock
        self.faults = faults
        self._lock = threading.RLock()
        self._appender: Optional[durable_io.DurableAppender] = None
        self._dropped_seen = 0
        self._torn_counts: Optional[Counter] = None
        self._parse_cache: Optional[tuple] = None

    # -- log access ----------------------------------------------------

    def event_log(self) -> List[dict]:
        """Every validated event, in append order."""
        with self._lock:
            return self._events()

    def _events(self) -> List[dict]:
        # The WAL is append-only, so (size, mtime) is a sound
        # freshness key: an unchanged file never needs re-parsing.
        # Pollers (the supervisor folds the queue dozens of times a
        # second) must not steal the CPU from the verification work
        # they are supervising.
        try:
            stat = os.stat(self.path)
            stamp = (stat.st_size, stat.st_mtime_ns)
        except OSError:
            stamp = None
        if (
            self._parse_cache is not None
            and self._parse_cache[0] == stamp
        ):
            return list(self._parse_cache[1])
        try:
            records, dropped = durable_io.load_jsonl(
                self.path, tolerate="all"
            )
        except OSError as error:
            raise JobStoreCorruptionError(
                f"cannot read job store {self.path}: {error}"
            ) from error
        if dropped > self._dropped_seen:
            obs.incr(
                "service.store.records_dropped",
                dropped - self._dropped_seen,
            )
            self._dropped_seen = dropped
        events = []
        for lineno, record in records:
            events.append(self._validated(record, lineno))
        self._parse_cache = (stamp, events)
        return list(events)

    def _validated(self, record: object, lineno: int) -> dict:
        if not isinstance(record, dict):
            raise JobStoreCorruptionError(
                f"job store {self.path}:{lineno}: record is not an object"
            )
        kind = record.get("event")
        fields = _EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise JobStoreCorruptionError(
                f"job store {self.path}:{lineno}: unknown event "
                f"{kind!r}"
            )
        for name, types in fields.items():
            value = record.get(name)
            if not isinstance(value, types) or (
                bool not in types and isinstance(value, bool)
            ):
                raise JobStoreCorruptionError(
                    f"job store {self.path}:{lineno}: event {kind!r} "
                    f"field {name!r} has invalid value {value!r}"
                )
        return record

    def _append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True)
        faults = self.faults
        if faults is not None and getattr(faults, "torn", 0.0) > 0.0:
            key = (record["event"], record.get("job", ""))
            if self._torn_counts is None:
                self._torn_counts = Counter(
                    (event["event"], event.get("job", ""))
                    for event in self._events()
                )
            # Index by *attempts*, not landed events: a torn append
            # never lands, so counting only landed occurrences would
            # hand every respawned worker the same draw — tearing the
            # same write forever.  Each tear leaves one sealed,
            # dropped half-line, so the loader's drop count is the
            # monotonic scar tally that advances the draw (and a
            # resumed run re-reads the same scars, so decisions
            # replay deterministically).
            occurrence = self._torn_counts[key] + self._dropped_seen
            self._torn_counts[key] += 1
            if faults.decide_service(
                "torn", record["event"], record.get("job", ""), occurrence
            ):
                self._torn_write_and_die(line)
        if self._appender is None:
            os.makedirs(self.root, exist_ok=True)
            self._appender = durable_io.DurableAppender(self.path)
        self._appender.append_line(line)

    def _torn_write_and_die(self, line: str) -> None:
        """Injected fault: persist half a record, then die like a crash.

        Uses a raw ``os.open`` append (not the durable appender — the
        whole point is to bypass its whole-line discipline) so the log
        ends in exactly the torn tail a power cut leaves.  A real
        writer opens its appender (sealing any predecessor's torn
        tail) before its own write can be torn in turn, so tears from
        successive crashed workers must land as separate scars — open
        the appender first, or consecutive half-lines would merge
        into one and the scar tally would stop advancing.
        """
        if self._appender is None:
            os.makedirs(self.root, exist_ok=True)
            self._appender = durable_io.DurableAppender(self.path)
        self._appender.open()
        data = (line + "\n").encode("utf-8")
        cut = max(1, len(data) // 2)
        fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666
        )
        try:
            os.write(fd, data[:cut])
            os.fsync(fd)
        finally:
            os.close(fd)
        os._exit(TORN_EXIT)

    # -- queries -------------------------------------------------------

    def jobs(self) -> Dict[str, JobView]:
        """The folded state of every job, keyed by job id."""
        with self._lock:
            return fold_events(self._events())

    def find(self, job_id: str) -> JobView:
        """The job whose id starts with ``job_id`` (unique prefix)."""
        jobs = self.jobs()
        if job_id in jobs:
            return jobs[job_id]
        matches = [
            view for key, view in sorted(jobs.items())
            if key.startswith(job_id)
        ]
        if not matches:
            raise VerificationError(f"no job matches {job_id!r}")
        if len(matches) > 1:
            ids = ", ".join(view.job_id for view in matches)
            raise VerificationError(
                f"job id {job_id!r} is ambiguous ({ids})"
            )
        return matches[0]

    def all_settled(self) -> bool:
        """True when every submitted job is completed/failed/cancelled.

        An empty store is settled: it has no job left to wait for.
        """
        return all(view.settled for view in self.jobs().values())

    def counts(self) -> Dict[str, int]:
        """How many jobs are in each state."""
        counts: Dict[str, int] = {}
        for view in self.jobs().values():
            counts[view.state] = counts.get(view.state, 0) + 1
        return counts

    # -- transitions ---------------------------------------------------

    def submit(
        self, spec: JobSpec, *, max_attempts: int = 3
    ) -> JobView:
        """Append a new job; returns its folded view."""
        if max_attempts < 1:
            raise VerificationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        with self._lock:
            events = self._events()
            seq = 1 + max(
                (
                    event["seq"]
                    for event in events
                    if event["event"] == "submit"
                ),
                default=0,
            )
            job_id = f"{seq:04d}-{spec.scope[:12]}"
            self._append({
                "event": "submit",
                "job": job_id,
                "argv": list(spec.argv),
                "scope": spec.scope,
                "seq": seq,
                "max_attempts": int(max_attempts),
                "at": float(self.clock()),
            })
            obs.incr("service.jobs.submitted")
            return self.jobs()[job_id]

    def claim(
        self, worker: str, lease_seconds: float
    ) -> Optional[JobView]:
        """Try to claim the oldest claimable job; ``None`` when beaten.

        Claimable: pending, or running with an expired lease (the
        claim event doubles as the takeover).  The claim is confirmed
        by re-folding the log after the append — if a racer's claim
        landed first, this returns ``None`` and the caller just polls
        again.
        """
        with self._lock:
            now = float(self.clock())
            jobs = fold_events(self._events())
            candidates = sorted(
                (
                    view for view in jobs.values()
                    if view.state == "pending"
                    or (
                        view.state == "running"
                        and now >= view.lease_until
                    )
                ),
                key=lambda view: view.seq,
            )
            if not candidates:
                return None
            target = candidates[0]
            self._append({
                "event": "claim",
                "job": target.job_id,
                "worker": worker,
                "at": now,
                "lease_until": now + float(lease_seconds),
            })
            view = self.jobs()[target.job_id]
            if view.state == "running" and view.worker == worker:
                return view
            return None

    def _holding(self, job_id: str, worker: str) -> JobView:
        view = self.jobs().get(job_id)
        if view is None:
            raise JobStoreCorruptionError(
                f"job {job_id} vanished from the store {self.path}"
            )
        if view.state != "running" or view.worker != worker:
            obs.incr("service.leases.expired")
            holder = view.worker if view.state == "running" else None
            raise LeaseExpiredError(
                f"worker {worker!r} no longer holds job {job_id} "
                f"(state={view.state}, holder={holder!r}) — abandoning "
                "its result; the re-run reproduces identical bytes"
            )
        return view

    def heartbeat(
        self, job_id: str, worker: str, lease_seconds: float
    ) -> None:
        """Extend a held lease; raises LeaseExpiredError when lost."""
        with self._lock:
            self._holding(job_id, worker)
            now = float(self.clock())
            self._append({
                "event": "heartbeat",
                "job": job_id,
                "worker": worker,
                "at": now,
                "lease_until": now + float(lease_seconds),
            })

    def complete(
        self, job_id: str, worker: str, exit_status: int, *,
        cached: bool = False,
    ) -> None:
        """Record a result — only if ``worker`` still holds the lease."""
        with self._lock:
            self._holding(job_id, worker)
            self._append({
                "event": "done",
                "job": job_id,
                "worker": worker,
                "at": float(self.clock()),
                "exit_status": int(exit_status),
                "cached": bool(cached),
            })

    def fail(self, job_id: str, worker: str, message: str) -> None:
        """Record an execution failure (consumes one attempt)."""
        with self._lock:
            self._holding(job_id, worker)
            self._append({
                "event": "fail",
                "job": job_id,
                "worker": worker,
                "at": float(self.clock()),
                "error": str(message),
            })

    def cancel(self, job_id: str) -> JobView:
        """Cancel a job that has not already completed or failed."""
        with self._lock:
            view = self.find(job_id)
            if view.state in ("completed", "failed"):
                raise VerificationError(
                    f"job {view.job_id} already {view.state}; nothing "
                    "to cancel"
                )
            self._append({
                "event": "cancel",
                "job": view.job_id,
                "at": float(self.clock()),
            })
            obs.incr("service.jobs.cancelled")
            return self.jobs()[view.job_id]

    def steal(self, job_id: str, thief: str) -> None:
        """Injected fault: a takeover the instant the lease lapses.

        Appends a competing claim timestamped at the current holder's
        ``lease_until`` — the earliest moment a real takeover could
        happen — with a short lease of its own.  The holder's next
        heartbeat or completion then fails exactly as it would against
        a genuine competitor, and the phantom's lease expires quickly
        so the job is re-run.
        """
        with self._lock:
            view = self.jobs().get(job_id)
            if view is None or view.state != "running":
                return
            at = view.lease_until
            self._append({
                "event": "claim",
                "job": job_id,
                "worker": thief,
                "at": at,
                "lease_until": at + 1.0,
            })

    def reclaim_expired(self) -> int:
        """Mark every expired running lease pending; returns the count."""
        with self._lock:
            now = float(self.clock())
            reclaimed = 0
            for view in self.jobs().values():
                if view.state == "running" and now >= view.lease_until:
                    self._append({
                        "event": "reclaim",
                        "job": view.job_id,
                        "at": now,
                    })
                    reclaimed += 1
            if reclaimed:
                obs.incr("service.leases.reclaimed", reclaimed)
            return reclaimed

    def close(self) -> None:
        with self._lock:
            if self._appender is not None:
                self._appender.close()
                self._appender = None

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

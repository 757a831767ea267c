"""The supervisor: spawn workers, restart crashes, reclaim leases.

``repro serve`` runs one supervisor over N worker slots.  Each slot
holds a forked worker process running
:func:`repro.service.worker.worker_process_main`; the supervisor's
loop restarts slots whose process died (with exponential backoff),
reclaims expired leases so stalled jobs become visible as pending,
and — in ``--drain`` mode — exits once every job is settled and every
worker has wound down.

Crash-loop detection is per slot and lifetime-based: a worker that
exits cleanly, or lives at least ``healthy_seconds``, resets its
slot's streak; a young unclean death increments it; a streak past
``max_restarts`` raises
:class:`~repro.errors.SupervisorCrashLoopError` — restarting forever
against a poisoned job or broken environment burns the machine
without progress.  The WAL keeps everything already completed, so a
fixed campaign resumes with ``repro serve`` and loses nothing.

SIGTERM drains gracefully: workers get SIGTERM (they finish and
record their current job — see the worker's handler), then the
supervisor waits ``grace_seconds`` before escalating to hard kills.
SIGKILL, of the supervisor or any worker, is the chaos case the WAL
design absorbs: restart the serve and the fold reconstructs the queue,
expired leases are taken over, and the final reports are
byte-identical to an undisturbed run (``tests/test_service.py``).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.errors import SupervisorCrashLoopError, VerificationError
from repro.parallel.pool import fork_available
from repro.service import worker as worker_mod
from repro.service.store import JobStore


class CrashLoopDetector:
    """Per-slot streaks of young, unclean worker deaths.

    Pure policy — no clocks, no processes — so the corpus can replay
    it deterministically: feed exit records, get the streak back, and
    the ``max_restarts + 1``-th young crash in a row raises.
    """

    def __init__(
        self, *, max_restarts: int = 5, healthy_seconds: float = 5.0
    ):
        if max_restarts < 0:
            raise VerificationError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        self.max_restarts = max_restarts
        self.healthy_seconds = healthy_seconds
        self._streaks: Dict[int, int] = {}

    def record_exit(
        self, slot: int, *, lifetime: float, clean: bool
    ) -> int:
        """Record one worker exit; returns the slot's current streak."""
        if clean or lifetime >= self.healthy_seconds:
            self._streaks[slot] = 0
            return 0
        streak = self._streaks.get(slot, 0) + 1
        self._streaks[slot] = streak
        if streak > self.max_restarts:
            raise SupervisorCrashLoopError(
                f"worker slot {slot} crash-looping: {streak} unclean "
                f"exits in a row, each under {self.healthy_seconds:.1f}s "
                f"(max_restarts={self.max_restarts}); stopping instead "
                "of burning restarts — completed work is in the WAL, "
                "rerun 'repro serve' once the cause is fixed"
            )
        return streak


@dataclass
class _Slot:
    index: int
    process: object = None
    started: float = 0.0
    eligible_at: float = 0.0
    finished: bool = False
    spawned: int = 0


@dataclass
class Supervisor:
    """Run a worker fleet over one job store until stopped or drained."""

    root: str
    workers: int = 1
    lease_seconds: float = worker_mod.DEFAULT_LEASE
    drain: bool = False
    fault_spec: Optional[str] = None
    poll_seconds: float = 0.1
    backoff_seconds: float = 0.2
    max_restarts: int = 5
    healthy_seconds: float = 5.0
    grace_seconds: float = 5.0
    _stop: bool = field(default=False, init=False)

    def run(self) -> dict:
        """Supervise until drained or stopped; returns a summary dict.

        Raises :class:`~repro.errors.SupervisorCrashLoopError` when a
        slot crash-loops (workers are torn down first) and
        :class:`~repro.errors.VerificationError` on platforms without
        the fork start method.
        """
        if not fork_available():
            raise VerificationError(
                "repro serve needs the 'fork' multiprocessing start "
                "method, which this platform does not offer"
            )
        if self.workers < 1:
            raise VerificationError(
                f"worker count must be >= 1, got {self.workers}"
            )
        for flag, seconds in (
            ("--poll", self.poll_seconds), ("--lease", self.lease_seconds)
        ):
            if not seconds > 0:
                raise VerificationError(f"{flag} must be > 0, got {seconds}")
        for flag, seconds in (
            ("--backoff", self.backoff_seconds),
            ("--healthy-seconds", self.healthy_seconds),
        ):
            if not seconds >= 0:
                raise VerificationError(f"{flag} must be >= 0, got {seconds}")
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        store = JobStore(self.root)
        os.makedirs(self.root, exist_ok=True)
        baseline_events = len(store.event_log())
        detector = CrashLoopDetector(
            max_restarts=self.max_restarts,
            healthy_seconds=self.healthy_seconds,
        )
        slots = [_Slot(index=i) for i in range(self.workers)]
        restarted = 0
        reclaimed_total = 0
        self._stop = False
        previous_handler = None
        try:
            previous_handler = signal.signal(
                signal.SIGTERM, self._request_stop
            )
        except (ValueError, OSError):
            previous_handler = None
        try:
            while True:
                if self._stop:
                    break
                reclaimed_total += store.reclaim_expired()
                settled = store.all_settled()
                for slot in slots:
                    restarted += self._tend_slot(
                        ctx, store, slot, detector, settled
                    )
                if (
                    self.drain
                    and store.all_settled()
                    and all(slot.process is None for slot in slots)
                ):
                    break
                time.sleep(self.poll_seconds)
        finally:
            if previous_handler is not None:
                try:
                    signal.signal(signal.SIGTERM, previous_handler)
                except (ValueError, OSError):
                    pass
            self._shutdown(slots)
        return self._summary(
            store, baseline_events, restarted, reclaimed_total
        )

    def _request_stop(self, signum: object, frame: object) -> None:
        self._stop = True

    def _tend_slot(
        self,
        ctx: object,
        store: JobStore,
        slot: _Slot,
        detector: CrashLoopDetector,
        settled: bool,
    ) -> int:
        """Reap/restart one slot; returns 1 when a restart happened."""
        process = slot.process
        if process is not None and not process.is_alive():
            process.join()
            lifetime = time.monotonic() - slot.started
            clean = process.exitcode == 0
            slot.process = None
            if clean and (self.drain or self._stop):
                slot.finished = True
                return 0
            streak = detector.record_exit(
                slot.index, lifetime=lifetime, clean=clean
            )
            if not clean:
                obs.incr("service.workers.restarted")
            # Exponential backoff with a ceiling: a long unclean streak
            # (tolerated by a generous max_restarts) must slow the
            # respawn rate, not push it out to hours.
            delay = (
                min(
                    self.backoff_seconds * (2 ** max(0, streak - 1)),
                    self.backoff_seconds * 32,
                )
                if streak else 0.0
            )
            slot.eligible_at = time.monotonic() + delay
            # fall through: respawn below once eligible
        if (
            slot.process is None
            and not slot.finished
            and not self._stop
            and not (self.drain and settled)
            and time.monotonic() >= slot.eligible_at
        ):
            self._spawn(ctx, slot)
            return 1 if slot.spawned > 1 else 0
        return 0

    def _spawn(self, ctx: object, slot: _Slot) -> None:
        slot.spawned += 1
        process = ctx.Process(
            target=worker_mod.worker_process_main,
            args=(
                self.root,
                f"w{slot.index}.{slot.spawned}.{os.getpid()}",
                {
                    "lease_seconds": self.lease_seconds,
                    "drain": self.drain,
                    "poll_seconds": self.poll_seconds,
                    "faults": self.fault_spec or "",
                },
            ),
            daemon=False,
        )
        process.start()
        slot.process = process
        slot.started = time.monotonic()

    def _shutdown(self, slots: List[_Slot]) -> None:
        alive = [
            slot.process for slot in slots
            if slot.process is not None and slot.process.is_alive()
        ]
        for process in alive:
            process.terminate()  # SIGTERM: finish current job, exit
        deadline = time.monotonic() + self.grace_seconds
        for process in alive:
            process.join(max(0.0, deadline - time.monotonic()))
        for process in alive:
            if process.is_alive():
                process.kill()
                process.join()

    def _summary(
        self,
        store: JobStore,
        baseline_events: int,
        restarted: int,
        reclaimed: int,
    ) -> dict:
        """Fold the run's outcome and emit the ``service.*`` counters.

        Worker processes cannot report into this process's metrics
        registry, so the served/cached counts are derived from the WAL
        events this serve appended — the log is the one shared truth.
        """
        events = store.event_log()[baseline_events:]
        done = [event for event in events if event["event"] == "done"]
        cached = sum(1 for event in done if event["cached"])
        failed_events = sum(
            1 for event in events if event["event"] == "fail"
        )
        counts = store.counts()
        obs.incr("service.jobs.completed", len(done))
        obs.incr("service.jobs.failed", failed_events)
        if cached:
            obs.incr("service.cache.hits", cached)
        return {
            "kind": "serve",
            "jobs": counts,
            "completed_this_run": len(done),
            "served_from_cache": cached,
            "executed": len(done) - cached,
            "failures_recorded": failed_events,
            "workers_restarted": restarted,
            "leases_reclaimed": reclaimed,
            "drained": self.drain and not self._stop,
            "stopped": self._stop,
        }

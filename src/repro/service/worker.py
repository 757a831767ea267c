"""Workers: claim a job under a lease, run it, record the result.

A worker is a loop over the store's claim protocol.  Each claimed job
is first looked up in the result cache — a verified hit completes the
job with zero verification work — and otherwise executed *in-process*
through :func:`repro.cli.main` with stdout captured: the job runs
exactly the code path a direct CLI invocation runs (manifests, guard
modes, pool workers and all), which is what makes served results
byte-comparable to direct runs.

While a job executes, a daemon heartbeat thread extends the lease.
Losing the lease (a takeover after an expiry, or the injected steal
fault) is not an error the worker propagates: it *abandons* the job —
the completed work is discarded unrecorded — because another worker
may already be re-running it, and recording twice could interleave.
Determinism makes abandonment free: the re-run derives the same seeds
and reproduces the identical bytes.

Fault-injection hooks (``--inject-faults``): ``kill`` makes the worker
die (``os._exit``) right after claiming, exercising lease expiry and
supervisor restart; ``steal`` appends a phantom takeover so the lease
is lost mid-run.  Both draw deterministically from the plan seed and
the job's (id, claim-ordinal) identity.
"""

from __future__ import annotations

import contextlib
import io
import os
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import LeaseExpiredError, ServiceError
from repro.service.cache import ResultCache, cache_dir
from repro.service.store import JobStore, JobView

#: Exit status of a worker killed by ``kill`` fault injection.
KILL_EXIT = 77

#: Default lease duration, seconds.
DEFAULT_LEASE = 30.0


def run_job_argv(argv: Tuple[str, ...]) -> Tuple[int, str]:
    """Execute one job spec in-process; ``(exit_status, stdout)``.

    Runs the real CLI entry point with stdout redirected, so the
    captured text is byte-for-byte what a direct invocation prints.
    ``SystemExit`` (argparse rejecting a spec that was valid at submit
    time but not now — e.g. a version skew) becomes its exit code.
    """
    from repro import cli

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return int(code), buffer.getvalue()


class Heartbeat:
    """A daemon thread extending one job's lease until stopped.

    ``lost`` goes true (and beating stops) the moment the store says
    the lease is no longer held; ``error`` captures a store-level
    failure (e.g. corruption) for the main thread to re-raise.
    """

    def __init__(
        self,
        store: JobStore,
        job_id: str,
        worker_id: str,
        lease_seconds: float,
        interval: float,
    ):
        self.store = store
        self.job_id = job_id
        self.worker_id = worker_id
        self.lease_seconds = lease_seconds
        self.interval = interval
        self.lost = False
        self.error: Optional[ServiceError] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "Heartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.store.heartbeat(
                    self.job_id, self.worker_id, self.lease_seconds
                )
            except LeaseExpiredError:
                self.lost = True
                return
            except ServiceError as error:
                self.error = error
                return
            except OSError:
                # Transient filesystem trouble: keep trying; the lease
                # may still outlive the hiccup.
                continue

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def worker_loop(
    store: JobStore,
    cache: ResultCache,
    *,
    worker_id: str,
    lease_seconds: float = DEFAULT_LEASE,
    heartbeat_interval: Optional[float] = None,
    drain: bool = False,
    poll_seconds: float = 0.2,
    faults: object = None,
    stop: Optional[Callable[[], bool]] = None,
    run: Callable[[Tuple[str, ...]], Tuple[int, str]] = run_job_argv,
) -> Dict[str, int]:
    """Claim and execute jobs until stopped (or drained).

    With ``drain`` true the loop exits once every job is settled; the
    supervisor's ``--drain`` mode rides on this.  ``stop`` is polled
    between jobs (the SIGTERM flag); a worker never abandons a job it
    is mid-way through just because it was asked to stop — it finishes,
    records, then exits.  Returns a small summary dict.
    """
    interval = (
        heartbeat_interval
        if heartbeat_interval is not None
        else max(0.05, lease_seconds / 3.0)
    )
    summary = {"executed": 0, "cache_hits": 0, "abandoned": 0, "failed": 0}
    parent = os.getppid()
    while True:
        if stop is not None and stop():
            break
        if os.getppid() != parent:
            break  # orphaned: the supervisor died under us
        claimed = store.claim(worker_id, lease_seconds)
        if claimed is None:
            if drain and store.all_settled():
                break
            time.sleep(poll_seconds)
            continue
        if faults is not None and getattr(faults, "kill", 0.0) > 0.0:
            if faults.decide_service(
                "kill", claimed.job_id, claimed.claims
            ):
                os._exit(KILL_EXIT)
        if faults is not None and getattr(faults, "steal", 0.0) > 0.0:
            if faults.decide_service(
                "steal", claimed.job_id, claimed.claims
            ):
                store.steal(claimed.job_id, thief=f"{worker_id}!phantom")
        if _finish_one(
            store, cache, claimed, worker_id, interval, lease_seconds,
            run, summary,
        ):
            continue
    return summary


def _finish_one(
    store: JobStore,
    cache: ResultCache,
    claimed: JobView,
    worker_id: str,
    interval: float,
    lease_seconds: float,
    run: Callable[[Tuple[str, ...]], Tuple[int, str]],
    summary: Dict[str, int],
) -> bool:
    """Serve one claimed job from cache or by running it; always True."""
    hit = cache.get(claimed.scope)
    if hit is not None:
        try:
            store.complete(
                claimed.job_id, worker_id,
                int(hit["exit_status"]), cached=True,
            )
        except LeaseExpiredError:
            summary["abandoned"] += 1
            return True
        summary["cache_hits"] += 1
        return True

    beat = Heartbeat(
        store, claimed.job_id, worker_id, lease_seconds, interval
    ).start()
    failure: Optional[str] = None
    code, stdout = 0, ""
    try:
        try:
            code, stdout = run(claimed.argv)
        except Exception as error:  # the job itself blew up
            failure = f"{type(error).__name__}: {error}"
    finally:
        beat.stop()
    if beat.error is not None:
        raise beat.error
    if beat.lost:
        summary["abandoned"] += 1
        return True
    try:
        if failure is not None:
            store.fail(claimed.job_id, worker_id, failure)
            summary["failed"] += 1
        else:
            # Exit status 2 is a usage error of this command line, not a
            # result of its scope: a flag outside the scope (--workers 0)
            # can cause it, and the jobs sharing the scope must not be
            # served that error from the cache.
            if code != 2:
                cache.put(claimed.scope, {
                    "argv": list(claimed.argv),
                    "command": claimed.argv[0] if claimed.argv else "",
                    "scope": claimed.scope,
                    "exit_status": code,
                    "stdout": stdout,
                })
            store.complete(claimed.job_id, worker_id, code, cached=False)
            summary["executed"] += 1
    except LeaseExpiredError:
        summary["abandoned"] += 1
    return True


def worker_process_main(
    store_root: str,
    worker_id: str,
    options: Dict[str, object],
) -> None:
    """Entry point for a supervised worker process (fork target).

    Installs a SIGTERM handler that requests a *graceful* stop: the
    current job finishes and is recorded, then the loop exits — the
    supervisor escalates to SIGKILL only past its grace period.
    """
    import signal

    from repro.parallel.faults import FaultPlan

    stop_flag = {"stop": False}

    def _request_stop(signum: object, frame: object) -> None:
        stop_flag["stop"] = True

    try:
        signal.signal(signal.SIGTERM, _request_stop)
    except (ValueError, OSError):
        pass  # non-main thread or exotic platform: run unstoppable

    spec = options.get("faults")
    faults = FaultPlan.parse(str(spec)) if spec else None
    store = JobStore(store_root, faults=faults)
    cache = ResultCache(cache_dir(store_root), faults=faults)
    worker_loop(
        store,
        cache,
        worker_id=worker_id,
        lease_seconds=float(options.get("lease_seconds", DEFAULT_LEASE)),
        drain=bool(options.get("drain", False)),
        poll_seconds=float(options.get("poll_seconds", 0.2)),
        faults=faults,
        stop=lambda: stop_flag["stop"],
    )

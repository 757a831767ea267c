"""The durable verification job service: store, cache, workers, chaos.

The headline invariant under test: a served campaign's results are a
pure function of the submitted specs — byte-identical to direct CLI
runs, across worker counts and engines, and unchanged by crashes.
The chaos test SIGKILLs the whole ``repro serve`` process tree mid-
campaign, restarts it, and compares every cached report against an
undisturbed direct run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.cli import main
from repro.errors import (
    JobStoreCorruptionError,
    LeaseExpiredError,
    SupervisorCrashLoopError,
    VerificationError,
)
from repro.parallel import fork_available
from repro.parallel.faults import FaultPlan
from repro.service import (
    JobSpec,
    JobStore,
    ResultCache,
    cache_dir,
    resolve_store_dir,
)
from repro.service.store import STORE_FILE, fold_events
from repro.service.supervisor import CrashLoopDetector
from repro.service.worker import run_job_argv, worker_loop

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)

#: A small but non-trivial verification job (sub-second).
QUICK = ("check", "--prop", "A.14", "--samples", "6", "--n", "3")


def _spec(*argv: str) -> JobSpec:
    return JobSpec.parse(argv or QUICK)


def _claim_with_faults(root: str, spec: str) -> None:
    """Fork target: one claim attempt under an armed fault plan."""
    JobStore(root, faults=FaultPlan.parse(spec)).claim("w-fault", 5.0)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Job specs and scopes
# ----------------------------------------------------------------------


class TestJobSpec:
    def test_parse_round_trips_a_check_spec(self):
        spec = _spec()
        assert spec.command == "check"
        assert spec.argv == QUICK
        assert len(spec.scope) == 64

    def test_empty_spec_is_rejected(self):
        with pytest.raises(VerificationError, match="empty job spec"):
            JobSpec.parse([])

    def test_meta_commands_cannot_be_jobs(self):
        with pytest.raises(VerificationError, match="cannot be served"):
            JobSpec.parse(["serve", "--drain"])

    def test_parser_rejections_surface_at_submit_time(self):
        with pytest.raises(VerificationError, match="rejected"):
            JobSpec.parse(["check", "--no-such-flag"])

    def test_corpus_jobs_must_be_corpus_run(self):
        with pytest.raises(VerificationError, match="corpus run"):
            JobSpec.parse(["corpus", "list"])

    def test_scope_ignores_byte_identical_knobs(self):
        # --workers and --engine are excluded from the fingerprint by
        # the determinism contract, so these three jobs share one
        # cache entry.
        base = _spec()
        assert _spec(*QUICK, "--workers", "4").scope == base.scope
        assert _spec(*QUICK, "--engine", "batched").scope == base.scope

    def test_scope_tracks_result_affecting_knobs(self):
        assert _spec(*QUICK, "--seed", "9").scope != _spec().scope


# ----------------------------------------------------------------------
# The WAL store: fold, leases, recovery
# ----------------------------------------------------------------------


class TestJobStore:
    def test_submit_claim_complete_lifecycle(self, tmp_path):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        view = store.submit(_spec())
        assert view.state == "pending"
        claimed = store.claim("w1", 10.0)
        assert claimed.job_id == view.job_id
        assert claimed.state == "running"
        store.complete(claimed.job_id, "w1", 0)
        final = store.jobs()[view.job_id]
        assert final.state == "completed" and final.exit_status == 0

    def test_claim_returns_none_when_nothing_claimable(self, tmp_path):
        store = JobStore(str(tmp_path), clock=FakeClock())
        assert store.claim("w1", 10.0) is None
        store.submit(_spec())
        store.claim("w1", 10.0)
        assert store.claim("w2", 10.0) is None  # lease still live

    def test_expired_lease_is_taken_over(self, tmp_path):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        view = store.submit(_spec())
        store.claim("w1", 10.0)
        clock.now = 20.0
        taken = store.claim("w2", 10.0)
        assert taken.job_id == view.job_id and taken.worker == "w2"

    def test_stale_holder_operations_raise_lease_expired(self, tmp_path):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        view = store.submit(_spec())
        store.claim("w1", 10.0)
        clock.now = 20.0
        store.claim("w2", 10.0)
        with pytest.raises(LeaseExpiredError):
            store.heartbeat(view.job_id, "w1", 10.0)
        with pytest.raises(LeaseExpiredError):
            store.complete(view.job_id, "w1", 0)

    def test_heartbeat_extends_a_held_lease(self, tmp_path):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        view = store.submit(_spec())
        store.claim("w1", 10.0)
        clock.now = 8.0
        store.heartbeat(view.job_id, "w1", 10.0)
        assert store.jobs()[view.job_id].lease_until == 18.0

    def test_failures_consume_attempts_then_fail(self, tmp_path):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        view = store.submit(_spec(), max_attempts=2)
        store.claim("w1", 10.0)
        store.fail(view.job_id, "w1", "boom")
        assert store.jobs()[view.job_id].state == "pending"
        store.claim("w1", 10.0)
        store.fail(view.job_id, "w1", "boom again")
        final = store.jobs()[view.job_id]
        assert final.state == "failed" and final.failures == 2

    def test_cancel_settles_a_pending_job(self, tmp_path):
        store = JobStore(str(tmp_path), clock=FakeClock())
        view = store.submit(_spec())
        assert store.cancel(view.job_id).state == "cancelled"
        with pytest.raises(VerificationError, match="no job matches"):
            store.cancel(view.job_id + "x")

    def test_cancel_of_completed_job_is_refused(self, tmp_path):
        store = JobStore(str(tmp_path), clock=FakeClock())
        view = store.submit(_spec())
        store.claim("w1", 10.0)
        store.complete(view.job_id, "w1", 0)
        with pytest.raises(VerificationError, match="already completed"):
            store.cancel(view.job_id)

    def test_reclaim_returns_expired_leases_to_pending(self, tmp_path):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        view = store.submit(_spec())
        store.claim("w1", 10.0)
        assert store.reclaim_expired() == 0
        clock.now = 20.0
        assert store.reclaim_expired() == 1
        assert store.jobs()[view.job_id].state == "pending"

    def test_find_accepts_unique_prefixes(self, tmp_path):
        store = JobStore(str(tmp_path), clock=FakeClock())
        view = store.submit(_spec())
        assert store.find(view.job_id[:4]).job_id == view.job_id
        with pytest.raises(VerificationError, match="no job matches"):
            store.find("zzzz")

    def test_fold_is_a_pure_function_of_the_log(self, tmp_path):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        view = store.submit(_spec())
        store.claim("w1", 10.0)
        store.complete(view.job_id, "w1", 0)
        # A second handle on the same WAL folds the identical state.
        other = JobStore(str(tmp_path), clock=clock)
        assert {
            k: v.to_dict() for k, v in other.jobs().items()
        } == {k: v.to_dict() for k, v in store.jobs().items()}

    def test_torn_tail_is_tolerated_and_sealed(self, tmp_path):
        with JobStore(str(tmp_path), clock=FakeClock()) as store:
            view = store.submit(_spec())
        path = tmp_path / STORE_FILE
        with open(str(path), "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.write(b'{"event": "done", "jo')  # crash mid-append
        # A fresh process folds around the torn tail, and its first
        # append seals it so later records never merge into it.
        revived = JobStore(str(tmp_path), clock=FakeClock())
        assert revived.jobs()[view.job_id].state == "pending"
        revived.claim("w1", 10.0)
        assert revived.jobs()[view.job_id].state == "running"

    @needs_fork
    def test_successive_tears_land_as_separate_scars(self, tmp_path):
        # Each torn death must seal its predecessor's half-line before
        # writing its own (exactly what a real writer's reopen does).
        # Merged tears would freeze the loader's drop count — and with
        # it the torn fault's occurrence index, so every respawned
        # worker would redraw the identical tear and crash-loop.
        import multiprocessing

        from repro import durable_io
        from repro.service.store import TORN_EXIT

        root = str(tmp_path / "svc")
        with JobStore(root) as store:
            store.submit(_spec())
        ctx = multiprocessing.get_context("fork")
        for expected_scars in (1, 2, 3):
            process = ctx.Process(
                target=_claim_with_faults, args=(root, "torn=1.0,seed=1")
            )
            process.start()
            process.join()
            assert process.exitcode == TORN_EXIT
            _, dropped = durable_io.load_jsonl(
                os.path.join(root, STORE_FILE), tolerate="all"
            )
            assert dropped == expected_scars

    def test_unknown_event_is_corruption(self, tmp_path):
        from repro import durable_io

        durable_io.append_json_line(
            str(tmp_path / STORE_FILE),
            {"event": "gossip", "job": "j", "at": 0.0},
        )
        with pytest.raises(JobStoreCorruptionError, match="gossip"):
            JobStore(str(tmp_path)).jobs()

    def test_wrong_shaped_event_is_corruption(self, tmp_path):
        from repro import durable_io

        durable_io.append_json_line(
            str(tmp_path / STORE_FILE),
            {"event": "claim", "job": "j", "at": "yesterday",
             "worker": "w", "lease_until": 1.0},
        )
        with pytest.raises(JobStoreCorruptionError, match="at"):
            JobStore(str(tmp_path)).jobs()

    def test_fold_ignores_events_for_unknown_jobs(self):
        jobs = fold_events([
            {"event": "done", "job": "ghost", "worker": "w", "at": 1.0,
             "exit_status": 0, "cached": False},
        ])
        assert jobs == {}


# ----------------------------------------------------------------------
# The result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_round_trip_and_hit_metrics(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        payload = {"exit_status": 0, "stdout": "report\n"}
        with obs.recording() as registry:
            assert cache.get("a" * 64) is None
            cache.put("a" * 64, payload)
            assert cache.get("a" * 64) == payload
        counters = registry.metrics.snapshot()["counters"]
        assert counters["service.cache.misses"] == 1
        assert counters["service.cache.hits"] == 1

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scope = "b" * 64
        cache.put(scope, {"exit_status": 0, "stdout": "x"})
        path = cache.path_for(scope)
        record = json.loads(open(path).read())
        record["payload"]["stdout"] = "tampered"
        with open(path, "w") as handle:
            json.dump(record, handle)
        with obs.recording() as registry:
            assert cache.get(scope) is None
        counters = registry.metrics.snapshot()["counters"]
        assert counters["service.cache.corrupt"] == 1
        assert not os.path.exists(path)

    def test_undecodable_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        scope = "c" * 64
        with open(cache.path_for(scope), "w") as handle:
            handle.write("not json")
        with obs.recording():
            assert cache.get(scope) is None
        assert not os.path.exists(cache.path_for(scope))

    def test_cache_fault_injection_forces_reverification(self, tmp_path):
        faults = FaultPlan.parse("cache=1.0,seed=3")
        cache = ResultCache(str(tmp_path), faults=faults)
        scope = "d" * 64
        cache.put(scope, {"exit_status": 0, "stdout": "x"})
        with obs.recording() as registry:
            assert cache.get(scope) is None  # corrupted on write
        counters = registry.metrics.snapshot()["counters"]
        assert counters["service.cache.corrupt"] == 1


# ----------------------------------------------------------------------
# Fault grammar
# ----------------------------------------------------------------------


class TestServiceFaults:
    def test_parse_accepts_service_fields(self):
        plan = FaultPlan.parse("kill=0.5,steal=0.25,torn=0.1,cache=1.0")
        assert (plan.kill, plan.steal, plan.torn, plan.cache) == (
            0.5, 0.25, 0.1, 1.0,
        )

    def test_decisions_are_deterministic_in_identity(self):
        plan = FaultPlan.parse("kill=0.5,seed=7")
        first = [plan.decide_service("kill", "job", i) for i in range(32)]
        again = [plan.decide_service("kill", "job", i) for i in range(32)]
        assert first == again
        assert any(first) and not all(first)

    def test_unknown_service_kind_is_rejected(self):
        plan = FaultPlan.parse("kill=1.0")
        with pytest.raises(VerificationError, match="unknown"):
            plan.decide_service("meteor", "job", 0)


# ----------------------------------------------------------------------
# The worker loop (in-process, no forks)
# ----------------------------------------------------------------------


class TestWorkerLoop:
    def _serve_inline(self, tmp_path, run=run_job_argv):
        store = JobStore(str(tmp_path / "svc"))
        cache = ResultCache(str(tmp_path / "svc" / "cache"))
        summary = worker_loop(
            store, cache, worker_id="inline", drain=True,
            lease_seconds=30.0, poll_seconds=0.01, run=run,
        )
        return store, cache, summary

    def test_drain_executes_every_pending_job(self, tmp_path):
        store = JobStore(str(tmp_path / "svc"))
        store.submit(_spec())
        _, _, summary = self._serve_inline(tmp_path)
        assert summary["executed"] == 1 and summary["cache_hits"] == 0

    def test_second_submit_is_served_with_zero_work(self, tmp_path):
        store = JobStore(str(tmp_path / "svc"))
        store.submit(_spec())
        self._serve_inline(tmp_path)

        # Resubmit the identical spec; a run function that explodes
        # proves the job is served without any verification work.
        def forbidden(argv):
            raise AssertionError("cache miss: verification ran")

        store.submit(_spec())
        with obs.recording() as registry:
            _, _, summary = self._serve_inline(tmp_path, run=forbidden)
        counters = registry.metrics.snapshot()["counters"]
        assert summary == {
            "executed": 0, "cache_hits": 1, "abandoned": 0, "failed": 0,
        }
        assert counters["service.cache.hits"] == 1

    def test_cached_bytes_match_a_direct_run(self, tmp_path):
        code, direct = run_job_argv(QUICK)
        store = JobStore(str(tmp_path / "svc"))
        store.submit(_spec())
        _, cache, _ = self._serve_inline(tmp_path)
        hit = cache.get(_spec().scope)
        assert hit["stdout"] == direct
        assert hit["exit_status"] == code

    def test_usage_error_is_recorded_but_not_cached(self, tmp_path):
        # --workers is outside the scope: a cached exit 2 would be
        # served to the healthy job that shares it.  Submit rejects
        # --workers 0, so the job is built directly, as a store written
        # before that check could still hold it.
        store = JobStore(str(tmp_path / "svc"))
        bad = store.submit(JobSpec(
            argv=(*QUICK, "--workers", "0"), command=QUICK[0],
            scope=_spec().scope,
        ))
        store.submit(_spec())
        _, cache, summary = self._serve_inline(tmp_path)
        assert summary["executed"] == 2 and summary["cache_hits"] == 0
        jobs = JobStore(str(tmp_path / "svc")).jobs()
        assert jobs[bad.job_id].exit_status == 2
        assert cache.get(_spec().scope)["exit_status"] == 0

    def test_failing_job_consumes_attempts(self, tmp_path):
        store = JobStore(str(tmp_path / "svc"))
        view = store.submit(_spec(), max_attempts=2)

        def blow_up(argv):
            raise RuntimeError("模型 exploded")

        _, _, summary = self._serve_inline(tmp_path, run=blow_up)
        assert summary["failed"] == 2
        final = JobStore(str(tmp_path / "svc")).jobs()[view.job_id]
        assert final.state == "failed"
        assert "exploded" in final.error


class TestCrashLoopDetector:
    def test_young_unclean_exits_trip_the_detector(self):
        detector = CrashLoopDetector(max_restarts=2, healthy_seconds=5.0)
        assert detector.record_exit(0, lifetime=0.1, clean=False) == 1
        assert detector.record_exit(0, lifetime=0.1, clean=False) == 2
        with pytest.raises(SupervisorCrashLoopError, match="crash-loop"):
            detector.record_exit(0, lifetime=0.1, clean=False)

    def test_clean_or_long_lived_exits_reset_the_streak(self):
        detector = CrashLoopDetector(max_restarts=1, healthy_seconds=5.0)
        detector.record_exit(0, lifetime=0.1, clean=False)
        assert detector.record_exit(0, lifetime=9.0, clean=False) == 0
        detector.record_exit(0, lifetime=0.1, clean=False)
        assert detector.record_exit(0, lifetime=0.1, clean=True) == 0

    def test_streaks_are_per_slot(self):
        detector = CrashLoopDetector(max_restarts=1, healthy_seconds=5.0)
        detector.record_exit(0, lifetime=0.1, clean=False)
        assert detector.record_exit(1, lifetime=0.1, clean=False) == 1


# ----------------------------------------------------------------------
# CLI surface: submit / jobs / serve
# ----------------------------------------------------------------------


class TestServiceCLI:
    def run_cli(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_submit_prints_job_and_scope(self, capsys, tmp_path):
        code, out, _ = self.run_cli(
            ["submit", "--store", str(tmp_path), "--", *QUICK], capsys
        )
        assert code == 0
        assert "submitted 0001-" in out

    def test_submit_json_output(self, capsys, tmp_path):
        code, out, _ = self.run_cli(
            ["submit", "--store", str(tmp_path), "--json", "--", *QUICK],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["state"] == "pending"
        assert record["argv"] == list(QUICK)

    def test_submit_rejects_bad_specs_with_usage_exit(
        self, capsys, tmp_path
    ):
        code, _, err = self.run_cli(
            ["submit", "--store", str(tmp_path), "--", "serve"], capsys
        )
        assert code == 2
        assert "cannot be served" in err

    @pytest.mark.parametrize("spec, message", [
        ("check --model nope", "unknown model 'nope'"),
        ("check --n 1", "needs at least two processes, got 1"),
        ("check --prop A.99", "unknown proposition 'A.99'"),
        ("check --resume", "requires a checkpoint"),
        ("check --guards off --fuel 10", "require guard mode 'warn' or"),
        ("sweep --sizes 3,x", "comma-separated integers, got '3,x'"),
        ("check --state-budget 0", "state budget must be >= 1, got 0"),
        ("check --samples 0", "--samples must be >= 1, got 0"),
        ("check --workers 0", "workers must be >= 1, got 0"),
    ])
    def test_submit_rejects_what_serve_would_reject(
        self, spec, message, capsys, tmp_path
    ):
        store = tmp_path / "svc"
        code, _, err = self.run_cli(
            ["submit", "--store", str(store), "--", *spec.split()], capsys
        )
        assert code == 2
        assert err.startswith("repro: error: ") and message in err
        assert not store.exists()

    def test_jobs_list_and_show_and_cancel(self, capsys, tmp_path):
        self.run_cli(
            ["submit", "--store", str(tmp_path), "--", *QUICK], capsys
        )
        code, out, _ = self.run_cli(
            ["jobs", "list", "--store", str(tmp_path)], capsys
        )
        assert code == 0 and "pending" in out
        code, out, _ = self.run_cli(
            ["jobs", "show", "--store", str(tmp_path), "0001"], capsys
        )
        assert code == 0 and "pending" in out
        code, out, _ = self.run_cli(
            ["jobs", "cancel", "--store", str(tmp_path), "0001"], capsys
        )
        assert code == 0
        code, out, _ = self.run_cli(
            ["jobs", "list", "--store", str(tmp_path), "--json"], capsys
        )
        assert json.loads(out)[0]["state"] == "cancelled"

    @needs_fork
    def test_drained_serve_of_empty_store_exits(self, tmp_path):
        # An empty store is settled, so --drain has nothing to wait for;
        # the subprocess timeout keeps a regression from hanging the suite.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(tmp_path / "svc"), "--drain", "--poll", "0.05"],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0
        assert "jobs: none submitted" in proc.stdout

    def test_jobs_list_empty_store(self, capsys, tmp_path):
        code, out, _ = self.run_cli(
            ["jobs", "list", "--store", str(tmp_path)], capsys
        )
        assert code == 0 and "none" in out

    def test_store_flag_falls_back_to_env_then_default(self, monkeypatch):
        assert resolve_store_dir("/x") == "/x"
        monkeypatch.setenv("REPRO_SERVICE_DIR", "/y")
        assert resolve_store_dir(None) == "/y"
        monkeypatch.delenv("REPRO_SERVICE_DIR")
        assert resolve_store_dir(None) == os.path.join(
            ".repro", "service"
        )


# ----------------------------------------------------------------------
# Served campaigns: end-to-end, faults, chaos  (fork required)
# ----------------------------------------------------------------------


#: The campaign used by the end-to-end and chaos tests: distinct
#: scopes, sized so a mid-campaign SIGKILL has work left to destroy.
CAMPAIGN = (
    ("check", "--prop", "A.14", "--samples", "6", "--n", "3"),
    ("check", "--prop", "A.14", "--samples", "30", "--n", "4"),
    ("check", "--prop", "A.14", "--samples", "60", "--n", "4"),
    ("check", "--prop", "A.14", "--samples", "90", "--n", "4"),
)


def _direct_outputs():
    return {argv: run_job_argv(argv) for argv in CAMPAIGN}


def _submit_campaign(store_root):
    store = JobStore(str(store_root))
    for argv in CAMPAIGN:
        store.submit(JobSpec.parse(argv))
    store.close()


def _assert_campaign_bytes(store_root, direct):
    cache = ResultCache(cache_dir(str(store_root)))
    for argv, (code, stdout) in direct.items():
        hit = cache.get(JobSpec.parse(argv).scope)
        assert hit is not None, f"no cached result for {argv}"
        assert hit["stdout"] == stdout, f"bytes diverge for {argv}"
        assert hit["exit_status"] == code
    store = JobStore(str(store_root))
    assert all(
        view.state == "completed" and view.exit_status == 0
        for view in store.jobs().values()
    )


@needs_fork
class TestServedCampaigns:
    @pytest.fixture(scope="class")
    def direct(self):
        return _direct_outputs()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_drained_serve_matches_direct_bytes(
        self, tmp_path, capsys, direct, workers
    ):
        store_root = tmp_path / "svc"
        _submit_campaign(store_root)
        code = main([
            "serve", "--store", str(store_root), "--drain",
            "--workers", str(workers), "--poll", "0.05",
        ])
        capsys.readouterr()
        assert code == 0
        _assert_campaign_bytes(store_root, direct)

    def test_engine_variants_share_one_cached_result(
        self, tmp_path, capsys, direct
    ):
        store_root = tmp_path / "svc"
        store = JobStore(str(store_root))
        base = CAMPAIGN[0]
        store.submit(JobSpec.parse(base + ("--engine", "tree")))
        store.submit(JobSpec.parse(base + ("--engine", "batched")))
        store.close()
        code = main([
            "serve", "--store", str(store_root), "--drain",
            "--poll", "0.05", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        # Same scope: one executed, one served from cache — and the
        # bytes match the engine-default direct run.
        assert summary["completed_this_run"] == 2
        assert summary["served_from_cache"] == 1
        cache = ResultCache(cache_dir(str(store_root)))
        hit = cache.get(JobSpec.parse(base).scope)
        assert hit["stdout"] == direct[base][1]

    def test_resubmitted_campaign_is_served_entirely_from_cache(
        self, tmp_path, capsys, direct
    ):
        store_root = tmp_path / "svc"
        _submit_campaign(store_root)
        main([
            "serve", "--store", str(store_root), "--drain",
            "--poll", "0.05",
        ])
        capsys.readouterr()
        _submit_campaign(store_root)
        code = main([
            "serve", "--store", str(store_root), "--drain",
            "--poll", "0.05", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["completed_this_run"] == len(CAMPAIGN)
        assert summary["served_from_cache"] == len(CAMPAIGN)
        assert summary["executed"] == 0

    def test_worker_kill_and_torn_wal_faults_recover_byte_identical(
        self, tmp_path, capsys, direct
    ):
        # Deterministic chaos: the first claim of each job kills the
        # worker (after possibly tearing a WAL write); the supervisor
        # restarts workers and leases expire, so every job still
        # completes — with byte-identical reports.
        store_root = tmp_path / "svc"
        _submit_campaign(store_root)
        code = main([
            "serve", "--store", str(store_root), "--drain",
            "--workers", "2", "--lease", "0.5", "--poll", "0.05",
            "--backoff", "0.05", "--max-restarts", "50",
            "--inject-faults", "kill=0.4,torn=0.2,seed=11",
        ])
        capsys.readouterr()
        assert code == 0
        _assert_campaign_bytes(store_root, direct)

    def test_sigkill_of_serve_tree_mid_campaign_resumes_byte_identical(
        self, tmp_path, capsys, direct
    ):
        store_root = tmp_path / "svc"
        _submit_campaign(store_root)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(store_root), "--drain", "--workers", "2",
             "--lease", "2", "--poll", "0.05"],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until the campaign is genuinely mid-flight: at
            # least one job done, at least one claim outstanding.
            deadline = time.monotonic() + 60
            store = JobStore(str(store_root))
            while time.monotonic() < deadline:
                events = store.event_log()
                done = sum(1 for e in events if e["event"] == "done")
                if done >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign never made progress")
            assert done < len(CAMPAIGN), "campaign finished too fast"
        finally:
            # kill -9 the supervisor *and* its workers, mid-job.
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait()

        # Restart the campaign: the fold reconstructs the queue, the
        # dead workers' leases expire and are taken over, and the
        # final reports are byte-identical to undisturbed runs.
        code = main([
            "serve", "--store", str(store_root), "--drain",
            "--workers", "2", "--lease", "2", "--poll", "0.05",
        ])
        capsys.readouterr()
        assert code == 0
        _assert_campaign_bytes(store_root, direct)

    def test_crash_looping_workers_abort_with_exit_3(
        self, tmp_path, capsys
    ):
        store_root = tmp_path / "svc"
        store = JobStore(str(store_root))
        store.submit(_spec())
        store.close()
        code = main([
            "serve", "--store", str(store_root), "--drain",
            "--lease", "0.2", "--poll", "0.05", "--backoff", "0.02",
            "--max-restarts", "1", "--healthy-seconds", "30",
            "--inject-faults", "kill=1.0,seed=5",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "crash-loop" in err


class TestExitEpilogMentionsService:
    def test_exit_status_3_documents_the_service(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "job service" in out

    def test_serve_validates_fault_spec_up_front(self, capsys, tmp_path):
        code = main([
            "serve", "--store", str(tmp_path), "--drain",
            "--inject-faults", "sharks=1.0",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "sharks" in err

    def test_corpus_layer_maps_service_errors_to_infra_exit(self):
        from repro.corpus import runner
        from repro.corpus.cases import lease_expiry_case

        assert runner.EXIT_POOL == 3
        cls = runner.classify_service(lease_expiry_case())
        assert cls.status == "error"
        assert cls.detail == "LeaseExpiredError"
        assert cls.exit_status == 3

"""Fault-tolerance suite: chaos injection, checkpoint/resume, recovery.

The contract under test extends the determinism suite's: a sampling
report is a pure function of the root seed and the work's identity —
*even when* workers crash, hang, return corrupted results, the pool
degrades to inline execution, or the run is killed and resumed from a
checkpoint.  Every recovery path must leave the report byte-identical
to an undisturbed ``workers=1`` run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass

import pytest

from repro import obs
from repro.cli import main
from repro.errors import (
    CheckpointError,
    ResultCorruptionError,
    TaskExecutionError,
    TaskTimeoutError,
    VerificationError,
    WorkerCrashError,
)
from repro.parallel import (
    Checkpoint,
    FaultPlan,
    RunPolicy,
    fork_available,
    resolve_workers,
    run_tasks,
)
from repro.parallel import pool as pool_module
from repro.parallel.faults import CORRUPT, CRASH, HANG
from repro.parallel.seeds import derive_seed

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the pooled paths need the fork method"
)


@dataclass(frozen=True)
class Job:
    """A minimal task: seeded, picklable, cheap to execute."""

    index: int
    seed: int


def jobs(count, root=99):
    return [Job(i, derive_seed(root, "job", i)) for i in range(count)]


def compute(context, task):
    """Deterministic in the task seed alone (the pool's contract)."""
    import random

    rng = random.Random(task.seed)
    if obs.enabled():
        obs.incr("jobs.completed")
    return (task.index, sum(rng.randrange(1000) for _ in range(50)))


def slow_compute(context, task):
    time.sleep(10.0)
    return task.index


def encode_job(result):
    return {"index": result[0], "value": result[1]}


def decode_job(record, task):
    return (int(record["index"]), int(record["value"]))


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse("crash=0.1,hang=0.05,corrupt=0.02,seed=7")
        assert plan == FaultPlan(crash=0.1, hang=0.05, corrupt=0.02, seed=7)
        assert plan.active

    def test_parse_rejects_garbage(self):
        for spec in [
            "crash",                    # not NAME=VALUE
            "explode=0.5",              # unknown field
            "crash=0.1,crash=0.2",      # duplicate
            "crash=lots",               # malformed value
            "seed=3",                   # injects nothing
            "crash=1.5",                # rate out of range
            "crash=0.6,hang=0.6",       # rates sum past 1
        ]:
            with pytest.raises(VerificationError):
                FaultPlan.parse(spec)

    def test_decisions_are_pure_functions_of_identity(self):
        plan = FaultPlan(crash=0.3, hang=0.3, corrupt=0.3, seed=5)
        decisions = [plan.decide(1234, a) for a in range(1, 20)]
        assert decisions == [plan.decide(1234, a) for a in range(1, 20)]
        # Changing any identity part redraws the fate.
        assert decisions != [plan.decide(1235, a) for a in range(1, 20)]
        assert [
            FaultPlan(crash=0.3, hang=0.3, corrupt=0.3, seed=6).decide(
                1234, a
            )
            for a in range(1, 20)
        ] != decisions

    def test_rates_partition_one_draw(self):
        plan = FaultPlan(crash=0.25, hang=0.25, corrupt=0.25, seed=1)
        draws = [plan.decide(seed, 1) for seed in range(2000)]
        counts = {
            kind: draws.count(kind) for kind in (CRASH, HANG, CORRUPT, None)
        }
        for kind in (CRASH, HANG, CORRUPT, None):
            assert 0.2 < counts[kind] / len(draws) < 0.3

    def test_inactive_plan_never_injects(self):
        plan = FaultPlan(seed=3)
        assert not plan.active
        assert all(plan.decide(seed, 1) is None for seed in range(100))


class TestRunPolicy:
    def test_validate_rejects_contradictions(self):
        for policy in [
            RunPolicy(timeout=0.0),
            RunPolicy(timeout=-1.0),
            RunPolicy(retries=-1),
            RunPolicy(backoff=-0.1),
            RunPolicy(resume=True),  # no checkpoint to resume from
            RunPolicy(faults=FaultPlan(hang=0.5)),  # hang needs timeout
            RunPolicy(degrade_after=0),
        ]:
            with pytest.raises(VerificationError):
                policy.validate()

    def test_default_policy_is_valid(self):
        RunPolicy().validate()

    def test_degrade_threshold_scales_with_workers(self):
        assert RunPolicy().degrade_threshold(2) == 4
        assert RunPolicy().degrade_threshold(8) == 16
        assert RunPolicy(degrade_after=2).degrade_threshold(8) == 2


# ----------------------------------------------------------------------
# Pool recovery: every injected failure converges to the baseline
# ----------------------------------------------------------------------


@needs_fork
class TestPoolRecovery:
    def baseline(self, tasks):
        return run_tasks(compute, None, tasks, workers=1)

    def test_crashes_and_corruption_recover_identically(self):
        tasks = jobs(8)
        policy = RunPolicy(
            retries=8, backoff=0.01,
            faults=FaultPlan(crash=0.3, corrupt=0.2, seed=5),
        )
        with obs.recording() as registry:
            survived = run_tasks(
                compute, None, tasks, workers=2, policy=policy
            )
        assert survived == self.baseline(tasks)
        counters = registry.metrics.snapshot()["counters"]
        assert counters["pool.crashes"] >= 1
        assert counters["pool.corrupted"] >= 1
        assert counters["pool.retries"] >= 2

    def test_hangs_recover_identically(self):
        tasks = jobs(6)
        policy = RunPolicy(
            retries=8, backoff=0.01, timeout=0.5,
            faults=FaultPlan(hang=0.3, seed=11),
        )
        with obs.recording() as registry:
            survived = run_tasks(
                compute, None, tasks, workers=2, policy=policy
            )
        assert survived == self.baseline(tasks)
        assert (
            registry.metrics.snapshot()["counters"]["pool.timeouts"] >= 1
        )

    def test_exhausted_retries_raise_crash_error(self):
        tasks = jobs(4)
        policy = RunPolicy(
            retries=1, backoff=0.0, degrade_after=100,
            faults=FaultPlan(crash=1.0, seed=2),
        )
        with pytest.raises(WorkerCrashError, match="died with exit"):
            run_tasks(compute, None, tasks, workers=2, policy=policy)

    def test_exhausted_retries_raise_corruption_error(self):
        tasks = jobs(4)
        policy = RunPolicy(
            retries=1, backoff=0.0, degrade_after=100,
            faults=FaultPlan(corrupt=1.0, seed=2),
        )
        with pytest.raises(ResultCorruptionError, match="digest mismatch"):
            run_tasks(compute, None, tasks, workers=2, policy=policy)

    def test_real_timeout_raises_after_budget(self):
        tasks = jobs(2)
        policy = RunPolicy(timeout=0.2, retries=0, backoff=0.0)
        with pytest.raises(TaskTimeoutError, match="wall-clock timeout"):
            run_tasks(slow_compute, None, tasks, workers=2, policy=policy)

    def test_degradation_completes_identically(self):
        tasks = jobs(6)
        # Every pooled attempt crashes; only degradation can finish the
        # run, and it must not change a single result.
        policy = RunPolicy(
            retries=10, backoff=0.0, degrade_after=3,
            faults=FaultPlan(crash=1.0, seed=4),
        )
        pool_module._degraded_warned = False
        with obs.recording() as registry:
            survived = run_tasks(
                compute, None, tasks, workers=2, policy=policy
            )
        assert survived == self.baseline(tasks)
        snapshot = registry.metrics.snapshot()
        assert snapshot["gauges"]["pool.degraded"] == 1
        assert snapshot["counters"]["pool.crashes"] >= 3

    def test_task_exception_fails_fast_and_keeps_metrics(self):
        # A deterministic in-task exception is not a worker fault:
        # retrying replays it, so the pool must fail fast — after
        # merging the metrics of every task that did complete.
        bad_seed = derive_seed(99, "job", 7)

        def sometimes_bad(context, task):
            if task.seed == bad_seed:
                raise ValueError("boom at seed %d" % task.seed)
            return compute(context, task)

        tasks = jobs(8)
        policy = RunPolicy(retries=5, backoff=0.0)
        with obs.recording() as registry:
            with pytest.raises(TaskExecutionError, match="ValueError: boom"):
                run_tasks(
                    sometimes_bad, None, tasks, workers=2, policy=policy
                )
        counters = registry.metrics.snapshot()["counters"]
        assert counters.get("jobs.completed", 0) >= 1

    def test_metrics_merge_equals_sequential_under_faults(self):
        tasks = jobs(6)
        with obs.recording() as sequential:
            run_tasks(compute, None, tasks, workers=1)
        policy = RunPolicy(
            retries=8, backoff=0.01, faults=FaultPlan(crash=0.3, seed=9)
        )
        with obs.recording() as chaotic:
            run_tasks(compute, None, tasks, workers=2, policy=policy)
        # Task metrics count every task exactly once despite retries;
        # only the pool's own fault counters may differ.
        assert (
            chaotic.metrics.snapshot()["counters"]["jobs.completed"]
            == sequential.metrics.snapshot()["counters"]["jobs.completed"]
            == 6
        )


@needs_fork
class TestWorkerCollapseWarning:
    def test_forkless_collapse_warns_once_and_gauges(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        monkeypatch.setattr(pool_module, "_degraded_warned", False)
        with obs.recording() as registry:
            assert resolve_workers(4) == 1
            assert resolve_workers(4) == 1
        err = capsys.readouterr().err
        assert err.count("degraded to sequential execution") == 1
        assert registry.metrics.snapshot()["gauges"]["pool.degraded"] == 1

    def test_single_worker_never_warns(self, monkeypatch, capsys):
        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        monkeypatch.setattr(pool_module, "_degraded_warned", False)
        assert resolve_workers(1) == 1
        assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


class TestCheckpoint:
    def test_append_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Checkpoint(path) as checkpoint:
            checkpoint.append("scope-a", 11, {"x": 1})
            checkpoint.append("scope-a", 12, {"x": 2})
            checkpoint.append("scope-b", 11, {"x": 3})
        fresh = Checkpoint(path)
        assert fresh.completed("scope-a") == {11: {"x": 1}, 12: {"x": 2}}
        # Same seed under another scope is a different result — the
        # seed hashes the pair identity, not the statement.
        assert fresh.completed("scope-b") == {11: {"x": 3}}
        assert fresh.completed("scope-c") == {}
        assert len(fresh) == 3
        assert fresh.dropped == 0

    def test_truncated_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Checkpoint(path) as checkpoint:
            checkpoint.append("s", 1, {"x": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"scope": "s", "seed": 2, "resu')  # killed here
        with obs.recording() as registry:
            fresh = Checkpoint(path)
            assert fresh.completed("s") == {1: {"x": 1}}
        assert fresh.dropped == 1
        assert (
            registry.metrics.snapshot()["counters"][
                "checkpoint.records_dropped"
            ]
            == 1
        )

    def test_malformed_middle_lines_are_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [
            json.dumps({"scope": "s", "seed": 1, "result": {"x": 1}}),
            "not json at all",
            json.dumps(["a", "list"]),
            json.dumps({"scope": "s", "seed": "notint", "result": {}}),
            json.dumps({"scope": "s", "seed": 2, "result": {"x": 2}}),
            "",
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fresh = Checkpoint(path)
        assert fresh.completed("s") == {1: {"x": 1}, 2: {"x": 2}}
        assert fresh.dropped == 3

    def test_missing_file_is_empty(self, tmp_path):
        assert Checkpoint(tmp_path / "absent.jsonl").completed("s") == {}

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint(tmp_path).load()  # a directory, not a file

    def test_records_are_single_sorted_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Checkpoint(path) as checkpoint:
            checkpoint.append("s", 5, {"b": 2, "a": 1})
        line = path.read_text(encoding="utf-8")
        assert line == (
            '{"result": {"a": 1, "b": 2}, "scope": "s", "seed": 5}\n'
        )


class TestCheckpointedRuns:
    def test_checkpoint_requires_codecs(self, tmp_path):
        policy = RunPolicy(checkpoint=Checkpoint(tmp_path / "c.jsonl"))
        with pytest.raises(CheckpointError, match="codecs"):
            run_tasks(compute, None, jobs(2), workers=1, policy=policy)

    def test_checkpoint_requires_task_seeds(self, tmp_path):
        policy = RunPolicy(checkpoint=Checkpoint(tmp_path / "c.jsonl"))
        with pytest.raises(CheckpointError, match="no seed attribute"):
            run_tasks(
                lambda context, task: task, None, ["seedless"], workers=1,
                policy=policy, encode=lambda r: {}, decode=lambda r, t: t,
            )

    def test_interrupted_run_resumes_identically(self, tmp_path):
        tasks = jobs(8)
        baseline = run_tasks(compute, None, tasks, workers=1)
        path = tmp_path / "run.jsonl"
        completions = []

        def dies_after_three(context, task):
            if len(completions) == 3:
                raise RuntimeError("simulated kill")
            result = compute(context, task)
            completions.append(task.index)
            return result

        with pytest.raises(RuntimeError, match="simulated kill"):
            with Checkpoint(path) as checkpoint:
                run_tasks(
                    dies_after_three, None, tasks, workers=1,
                    policy=RunPolicy(checkpoint=checkpoint),
                    scope="test-scope", encode=encode_job, decode=decode_job,
                )
        assert len(Checkpoint(path)) == 3

        executed = []

        def counting(context, task):
            executed.append(task.index)
            return compute(context, task)

        with obs.recording() as registry:
            with Checkpoint(path) as checkpoint:
                resumed = run_tasks(
                    counting, None, tasks, workers=1,
                    policy=RunPolicy(checkpoint=checkpoint, resume=True),
                    scope="test-scope", encode=encode_job, decode=decode_job,
                )
        assert resumed == baseline
        assert len(executed) == len(tasks) - 3
        counters = registry.metrics.snapshot()["counters"]
        assert counters["checkpoint.tasks_skipped"] == 3
        assert counters["checkpoint.tasks_recorded"] == len(tasks) - 3

    def test_resume_ignores_other_scopes(self, tmp_path):
        tasks = jobs(4)
        path = tmp_path / "run.jsonl"
        with Checkpoint(path) as checkpoint:
            run_tasks(
                compute, None, tasks, workers=1,
                policy=RunPolicy(checkpoint=checkpoint),
                scope="scope-one", encode=encode_job, decode=decode_job,
            )
        executed = []

        def counting(context, task):
            executed.append(task.index)
            return compute(context, task)

        with Checkpoint(path) as checkpoint:
            run_tasks(
                counting, None, tasks, workers=1,
                policy=RunPolicy(checkpoint=checkpoint, resume=True),
                scope="scope-two", encode=encode_job, decode=decode_job,
            )
        assert len(executed) == len(tasks)

    @needs_fork
    def test_pooled_results_checkpoint_as_they_complete(self, tmp_path):
        # Exhaust the retry budget midway: the tasks completed before
        # the failure must already be on disk, not buffered for a
        # return that never happens.  The last task hangs until its
        # timeout, so every fast task has delivered by the time the
        # run aborts.
        tasks = jobs(8)
        last_seed = tasks[-1].seed

        def mostly_fast(context, task):
            if task.seed == last_seed:
                time.sleep(30.0)
            return compute(context, task)

        path = tmp_path / "run.jsonl"
        policy = RunPolicy(
            timeout=1.0, retries=0, backoff=0.0,
            checkpoint=Checkpoint(path),
        )
        with pytest.raises(TaskTimeoutError):
            with policy.checkpoint:
                run_tasks(
                    mostly_fast, None, tasks, workers=2, policy=policy,
                    scope="s", encode=encode_job, decode=decode_job,
                )
        assert len(Checkpoint(path)) == len(tasks) - 1


# ----------------------------------------------------------------------
# Interruption semantics (KeyboardInterrupt / SIGTERM)
# ----------------------------------------------------------------------


@needs_fork
class TestInterruption:
    def test_keyboard_interrupt_leaves_no_orphans(
        self, monkeypatch, tmp_path
    ):
        def interrupted_wait(conns, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(pool_module, "_wait_ready", interrupted_wait)
        path = tmp_path / "run.jsonl"
        policy = RunPolicy(checkpoint=Checkpoint(path))
        with pytest.raises(KeyboardInterrupt):
            with policy.checkpoint:
                run_tasks(
                    slow_compute, None, jobs(6), workers=2, policy=policy,
                    scope="s", encode=lambda r: {"v": r},
                    decode=lambda r, t: r["v"],
                )
        assert multiprocessing.active_children() == []
        # Whatever the checkpoint holds, every line is complete.
        if path.exists():
            for line in path.read_text(encoding="utf-8").splitlines():
                json.loads(line)

    def test_sigterm_handler_unwinds_only_its_installer(self):
        original = signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            assert pool_module._sigterm_to_exception() is signal.SIG_DFL
            handler = signal.getsignal(signal.SIGTERM)
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the forked child
                try:
                    os.dup2(write_fd, 2)
                    handler(signal.SIGTERM, None)
                finally:
                    os._exit(99)
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as stderr:
                err = stderr.read()
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 128 + signal.SIGTERM
            assert err == b""
            with pytest.raises(SystemExit) as raised:
                handler(signal.SIGTERM, None)
            assert raised.value.code == 128 + signal.SIGTERM
        finally:
            signal.signal(signal.SIGTERM, original)

    def test_sigterm_tears_down_workers_and_checkpoint(self, tmp_path):
        script = tmp_path / "victim.py"
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        checkpoint = tmp_path / "run.jsonl"
        script.write_text(textwrap.dedent(f"""
            import os, sys, time
            from dataclasses import dataclass

            sys.path.insert(0, {str(os.path.join("/root/repo", "src"))!r})
            from repro.parallel import Checkpoint, RunPolicy, run_tasks

            @dataclass(frozen=True)
            class Job:
                index: int
                seed: int

            def execute(context, task):
                pid_path = os.path.join(
                    {str(pid_dir)!r}, str(os.getpid()) + ".pid"
                )
                with open(pid_path, "w") as handle:
                    handle.write(str(task.index))
                time.sleep(0.25)
                return task.index

            tasks = [Job(i, i) for i in range(200)]
            policy = RunPolicy(checkpoint=Checkpoint({str(checkpoint)!r}))
            print("ready", flush=True)
            with policy.checkpoint:
                run_tasks(
                    execute, None, tasks, workers=2, policy=policy,
                    scope="s", encode=lambda r: {{"v": r}},
                    decode=lambda record, task: record["v"],
                )
        """), encoding="utf-8")
        process = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert process.stdout.readline().strip() == "ready"
            deadline = time.monotonic() + 10.0
            while not list(pid_dir.glob("*.pid")):
                assert time.monotonic() < deadline, "no worker ever started"
                time.sleep(0.02)
            time.sleep(0.1)
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=10.0)
        finally:
            process.kill()
            process.wait()
        assert process.returncode == 128 + signal.SIGTERM
        # Give reparented stragglers (there must be none) a beat, then
        # check every worker pid is gone.
        time.sleep(0.2)
        for pid_file in pid_dir.glob("*.pid"):
            pid = int(pid_file.stem)
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        # The checkpoint survived the kill with only complete records.
        if checkpoint.exists():
            for line in checkpoint.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                assert set(record) == {"result", "scope", "seed"}


# ----------------------------------------------------------------------
# Acceptance: CLI reports stay byte-identical through chaos and resume
# ----------------------------------------------------------------------


@needs_fork
class TestAcceptance:
    CHECK = ["check", "--prop", "A.14", "--n", "3", "--samples", "6",
             "--json"]

    def run_cli(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_injected_faults_report_byte_identical(self, capsys):
        code, baseline, _ = self.run_cli(self.CHECK, capsys)
        assert code == 0
        pool_module._degraded_warned = False
        code, chaotic, _ = self.run_cli(
            self.CHECK + [
                "--workers", "2", "--retries", "8", "--timeout", "30",
                "--inject-faults", "crash=0.2,corrupt=0.1,seed=3",
            ],
            capsys,
        )
        assert code == 0
        assert chaotic == baseline

    def test_killed_then_resumed_report_byte_identical(
        self, capsys, tmp_path
    ):
        code, baseline, _ = self.run_cli(self.CHECK, capsys)
        assert code == 0
        checkpoint = str(tmp_path / "run.jsonl")
        # Crash-heavy plan with no retry budget: the run aborts midway,
        # having checkpointed whatever it finished.
        code, _, err = self.run_cli(
            self.CHECK + [
                "--workers", "2", "--retries", "0", "--checkpoint",
                checkpoint, "--inject-faults", "crash=0.6,seed=1",
            ],
            capsys,
        )
        assert code == 3
        assert "rerun with --resume" in err
        # Which tasks finished before the abort depends on scheduling;
        # whatever landed on disk, the resumed report must not change.
        if os.path.exists(checkpoint):
            for line in open(checkpoint, encoding="utf-8"):
                json.loads(line)
        code, resumed, _ = self.run_cli(
            self.CHECK + [
                "--workers", "2", "--checkpoint", checkpoint, "--resume",
            ],
            capsys,
        )
        assert code == 0
        assert resumed == baseline

    def test_checkpoint_resumes_across_engines(self, capsys, tmp_path):
        # Checkpoint records carry task seeds and results, not engine
        # internals: a checkpoint written under --engine tree must
        # satisfy a resumed run under --engine batched with the same
        # bytes out.
        code, baseline, _ = self.run_cli(
            self.CHECK + ["--engine", "batched"], capsys
        )
        assert code == 0
        checkpoint = str(tmp_path / "run.jsonl")
        code, first, _ = self.run_cli(
            self.CHECK + ["--engine", "tree", "--checkpoint", checkpoint],
            capsys,
        )
        assert code == 0
        assert first == baseline
        with obs.recording() as registry:
            code, resumed, _ = self.run_cli(
                self.CHECK + [
                    "--engine", "batched",
                    "--checkpoint", checkpoint, "--resume",
                ],
                capsys,
            )
        assert code == 0
        assert resumed == baseline
        counters = registry.metrics.snapshot()["counters"]
        assert counters["checkpoint.tasks_skipped"] >= 1

    def test_fault_flags_reject_contradictions(self, capsys):
        code, _, err = self.run_cli(
            self.CHECK + ["--inject-faults", "hang=0.5"], capsys
        )
        assert code == 2 and "requires a per-task" in err
        code, _, err = self.run_cli(self.CHECK + ["--resume"], capsys)
        assert code == 2 and "resume" in err

    def test_stats_surfaces_fault_counters(self, capsys):
        pool_module._degraded_warned = False
        code = main([
            "stats", "--n", "3", "--samples", "4", "--workers", "2",
            "--retries", "8", "--inject-faults", "crash=0.3,seed=2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pool.retries" in out
        assert "pool.crashes" in out

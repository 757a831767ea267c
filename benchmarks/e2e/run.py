"""End-to-end benchmark: time to verdict, CPU, memory and set-up per workload.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload lr-verify --seed 0 --seconds 20
    python3 benchmarks/e2e/run.py --workload lr-verify --seed 0 --trace 1
    python3 benchmarks/e2e/run.py --seed 0            # every workload

A run builds nothing: it points ``PYTHONPATH`` at this checkout's
``src/`` and launches each operation in a fresh interpreter, in a fresh
temporary directory with its own run-manifest store and job store.  It
sets up a few times, then repeats the workload's operation while the
next repeat is predicted to end within ``--seconds``, and reports
medians.  Every output is checked: exit status, no refuted verdict,
the same bytes on every repeat, and for seed 0 the golden digest.

Times are reported in reference-host seconds: each run also times a
fixed pure-Python loop on the first ``REFERENCE_CPUS`` CPUs between its
launches and scales its times by ``REFERENCE_S`` over the mean of the
CPUs' fastest loop times, which tracks how fast a shared host is during
the run (see README.md).

``--trace 0`` reports the end-to-end metrics (tracing off).
``--trace 1`` runs one untraced repeat, then traced repeats, and
reports the per-layer metrics of README.md.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

CHILD = os.path.join(HERE, "child.py")
#: Scratch dirs and results; ignored by git (see .gitignore here).
WORK_DIR = os.path.join(HERE, ".work")
DEFAULT_SECONDS = 20
#: Timed set-up launches per run of a CLI workload.
SETUP_REPEATS = 5
#: A launch still running after this long is killed and counted failed.
LAUNCH_TIMEOUT_S = 150.0
#: What reference_loop() takes on an idle 2-CPU x86-64 host: the unit
#: of every reported time.
REFERENCE_S = 0.25
#: The loop is timed on this many CPUs of the affinity set, the first
#: ones, so its cost does not grow with the host's core count.
REFERENCE_CPUS = 2

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("models.build_s", "s"),
    ("analysis.start_states_calls", "count"),
    ("analysis.start_states_s", "s"),
    ("analysis.report_s", "s"),
    ("statespace.build_engine_calls", "count"),
    ("statespace.build_engine_s", "s"),
    ("statespace.compile_space_calls", "count"),
    ("statespace.compile_space_s", "s"),
    ("statespace.states_interned", "count"),
    ("statespace.transitions_interned", "count"),
    ("statespace.compile_adversary_calls", "count"),
    ("statespace.compile_adversary_s", "s"),
    ("statespace.product_nodes", "count"),
    ("statespace.tables_uncompiled", "count"),
    ("statespace.flatten_s", "s"),
    ("statespace.flat_nodes", "count"),
    ("statespace.flags_s", "s"),
    ("engine.batched.sample_calls", "count"),
    ("engine.batched.sample_s", "s"),
    ("engine.tree.sample_calls", "count"),
    ("engine.tree.sample_s", "s"),
    ("engine.batched.time_calls", "count"),
    ("engine.batched.time_s", "s"),
    ("engine.tree.time_calls", "count"),
    ("engine.tree.time_s", "s"),
    ("engine.fallback_share", "ratio"),
    ("engine.samples_per_s", "1/s"),
    ("parallel.tasks", "count"),
    ("parallel.task_s", "s"),
    ("parallel.run_tasks_s", "s"),
    ("parallel.pool_self_s", "s"),
    ("probability.cp_calls", "count"),
    ("probability.cp_s", "s"),
    ("proofs.arrow_checks", "count"),
    ("proofs.pairs", "count"),
    ("proofs.time_measurements", "count"),
    ("service.submit_calls", "count"),
    ("service.submit_s", "s"),
    ("service.claim_calls", "count"),
    ("service.claim_empty", "count"),
    ("service.claim_s", "s"),
    ("service.executions", "count"),
    ("service.execute_s", "s"),
    ("service.useful_exec_ratio", "ratio"),
    ("service.cache_hits", "count"),
    ("service.cache_get_s", "s"),
    ("service.cache_put_s", "s"),
    ("service.complete_s", "s"),
    ("service.heartbeats", "count"),
    ("service.job_p50_s", "s"),
    ("service.job_p90_s", "s"),
    ("service.hit_p50_s", "s"),
    ("service.wal_events", "count"),
    ("service.wal_bytes", "B"),
    ("durable_io.append_calls", "count"),
    ("durable_io.append_s", "s"),
    ("durable_io.load_calls", "count"),
    ("durable_io.load_s", "s"),
    ("durable_io.records_loaded", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)


# -- host speed ---------------------------------------------------------

def reference_loop() -> float:
    """Seconds this process takes for a fixed pure-Python task.

    A breadth-first interning of the 4**8 states of a toy automaton:
    tuple building and dict probes, the kind of work the compile does.
    Int tuples hash the same under every hash seed, so the task is the
    same in every run and measures only how fast the host is now.
    """
    started = time.perf_counter()
    start = (0,) * 8
    ids = {start: 0}
    frontier = collections.deque([start])
    while frontier:
        state = frontier.popleft()
        for i in range(8):
            successor = state[:i] + ((state[i] + 1) % 4,) + state[i + 1:]
            if successor not in ids:
                ids[successor] = len(ids)
                frontier.append(successor)
    return time.perf_counter() - started


# -- launching ----------------------------------------------------------

@dataclass
class Launch:
    """One finished child process, measured from outside."""

    pid: int
    exit: int
    wall_s: float
    #: User+sys CPU of the process and every descendant it reaped.
    cpu_s: float
    #: The largest resident set of the process or any reaped descendant.
    rss_mb: float
    stdout: bytes
    stderr: bytes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def launch(argv: List[str], cwd: str, env: Dict[str, str],
           label: str) -> Launch:
    """Run ``argv`` to completion in its own session; measure with wait4.

    Output goes to files beside ``cwd``; a launch that outlives
    LAUNCH_TIMEOUT_S has its whole process group killed.
    """
    out_path = f"{cwd}.{label}.out"
    err_path = f"{cwd}.{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(LAUNCH_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read()
    return Launch(
        pid=proc.pid, exit=proc.returncode, wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout, stderr=stderr,
    )


def child_env(op_dir: str) -> Dict[str, str]:
    """The environment of one operation: this checkout, private stores."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # A random hash seed changes dict layouts, and with them the
    # compile's run time by a few percent per process; outputs are the
    # same for every hash seed.
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_RUNS_DIR"] = os.path.join(op_dir, "runs")
    env["REPRO_SERVICE_DIR"] = os.path.join(op_dir, "service")
    return env


def _refuted(stdout: bytes) -> bool:
    return b"REFUTED" in stdout or b"FAILS" in stdout


# -- one operation --------------------------------------------------------

def cli_op(workload, seed: int, op_dir: str,
           trace_dir: Optional[str]) -> dict:
    """One run of a CLI workload's command."""
    argv = [*workload.argv, "--seed", str(seed)]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro", *argv]
    else:
        cmd = [sys.executable, CHILD, "trace", trace_dir, "--", *argv]
    run = launch(cmd, op_dir, child_env(op_dir), "cmd")
    problems = []
    if run.exit != 0:
        problems.append(f"exit status {run.exit}: {run.stderr[-300:]!r}")
    if _refuted(run.stdout):
        problems.append("a verdict was refuted")
    return {
        "wall_s": run.wall_s, "cpu_s": run.cpu_s, "rss_mb": run.rss_mb,
        "pid": run.pid, "digest": hashlib.sha256(run.stdout).hexdigest(),
        "attempted": 1, "failed": 1 if problems else 0,
        "problems": problems,
    }


def inspect_store(store: str) -> dict:
    """Outcome and timings of a drained campaign, read from its files.

    Latencies come from the WAL's ``at`` stamps (claim to done); the
    digest folds each scope's cached stdout.
    """
    wal = os.path.join(store, "jobs.jsonl")
    events = []
    if os.path.exists(wal):
        with open(wal, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle if line.strip()]
    scopes, claimed_at, done = {}, {}, {}
    for event in events:
        job = event.get("job")
        if event["event"] == "submit":
            scopes[job] = event["scope"]
        elif event["event"] == "claim":
            claimed_at[job] = event["at"]
        elif event["event"] == "done" and job not in done:
            done[job] = event
    failed = sum(
        1 for job in scopes
        if job not in done or done[job]["exit_status"] != 0
    )
    executed = [job for job in done if not done[job]["cached"]]
    hits = [job for job in done if done[job]["cached"]]
    lines, problems = [], []
    for scope in sorted(set(scopes.values())):
        path = os.path.join(store, "cache", f"{scope}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                stdout = json.load(handle)["payload"]["stdout"]
        except (OSError, ValueError, KeyError, TypeError):
            problems.append(f"no readable cache entry for scope {scope[:12]}")
            continue
        if _refuted(stdout.encode("utf-8")):
            problems.append(f"scope {scope[:12]} reports a refuted verdict")
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        lines.append(f"{scope} {digest}\n")
    return {
        "jobs": len(scopes),
        "failed_jobs": failed,
        "job_latencies": [
            done[job]["at"] - claimed_at[job] for job in executed
        ],
        "hit_latencies": [done[job]["at"] - claimed_at[job] for job in hits],
        "useful_exec_ratio": (
            len({scopes[job] for job in executed}) / len(executed)
            if executed else 0.0
        ),
        "wal_events": len(events),
        "wal_bytes": os.path.getsize(wal) if os.path.exists(wal) else 0,
        "digest": hashlib.sha256("".join(lines).encode("utf-8")).hexdigest(),
        "problems": problems,
    }


def service_op(seed: int, op_dir: str, trace_dir: Optional[str]) -> dict:
    """Submit the seed's campaign into a fresh store, then drain it."""
    env = child_env(op_dir)
    store = os.path.join(op_dir, "store")
    submit_cmd = [sys.executable, CHILD, "submit", store, str(seed)]
    if trace_dir is not None:
        submit_cmd += ["--trace", trace_dir]
    submit = launch(submit_cmd, op_dir, env, "submit")
    serve_argv = [*workloads.SERVE_ARGV, "--store", store]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro", *serve_argv]
    else:
        cmd = [sys.executable, CHILD, "trace", trace_dir, "--", *serve_argv]
    serve = launch(cmd, op_dir, env, "serve")
    stats = inspect_store(store)
    problems = list(stats["problems"])
    for name, run in (("submit", submit), ("serve", serve)):
        if run.exit != 0:
            problems.append(
                f"{name} exit status {run.exit}: {run.stderr[-300:]!r}"
            )
    expected = len(workloads.job_mix(seed))
    if stats["jobs"] != expected:
        problems.append(f"{stats['jobs']} of {expected} jobs were stored")
    failed = stats["failed_jobs"] + (expected - stats["jobs"])
    return {
        "wall_s": serve.wall_s, "cpu_s": serve.cpu_s, "rss_mb": serve.rss_mb,
        "setup_s": submit.wall_s, "pid": serve.pid,
        "digest": stats["digest"], "stats": stats,
        "attempted": expected,
        "failed": expected if problems else failed,
        "problems": problems,
    }


# -- one run ------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (0 <= q <= 1); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_metrics(agg: dict, op: dict, baseline_wall: float) -> dict:
    """The per-layer metrics of one traced operation."""
    spans, edges, counts = agg["spans"], agg["edges"], agg["counts"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    walks = ("engine.batched.sample", "engine.batched.time",
             "engine.tree.sample", "engine.tree.time")
    fallbacks = (
        edges.get("engine.batched.sample>engine.tree.sample", 0)
        + edges.get("engine.batched.time>engine.tree.time", 0)
    )
    batched = calls("engine.batched.sample") + calls("engine.batched.time")
    engine_s = sum(self_s(name) for name in walks)
    tasks = ("parallel.task.pair", "parallel.task.time")
    stats = op.get("stats", {})
    root_top_s = agg["top_s"].get(op["pid"], 0.0)
    metrics = {
        "models.build_s": self_s("models.build"),
        "analysis.start_states_calls": calls("analysis.start_states"),
        "analysis.start_states_s": self_s("analysis.start_states"),
        "analysis.report_s": self_s("analysis.report"),
        "engine.fallback_share": fallbacks / batched if batched else 0.0,
        "engine.samples_per_s": (
            (sum(calls(name) for name in walks) - fallbacks) / engine_s
            if engine_s else 0.0
        ),
        "parallel.tasks": sum(calls(name) for name in tasks),
        "parallel.task_s": sum(self_s(name) for name in tasks),
        "parallel.run_tasks_s": total_s("parallel.run_tasks"),
        "parallel.pool_self_s": self_s("parallel.run_tasks"),
        "probability.cp_calls": calls("probability.cp"),
        "probability.cp_s": self_s("probability.cp"),
        "proofs.arrow_checks": calls("proofs.arrow_check"),
        "proofs.pairs": calls("parallel.task.pair"),
        "proofs.time_measurements": calls("proofs.time_measurement"),
        "service.executions": calls("service.execute"),
        "service.execute_s": self_s("service.execute"),
        "service.useful_exec_ratio": stats.get("useful_exec_ratio", 0.0),
        "service.heartbeats": calls("service.heartbeat"),
        "service.wal_events": stats.get("wal_events", 0),
        "service.wal_bytes": stats.get("wal_bytes", 0),
        "durable_io.append_calls": calls("durable_io.append"),
        "durable_io.append_s": self_s("durable_io.append"),
        "durable_io.load_calls": calls("durable_io.load"),
        "durable_io.load_s": self_s("durable_io.load"),
        "trace.overhead_ratio": op["wall_s"] / baseline_wall,
        "trace.unattributed_s": op["wall_s"] - root_top_s,
    }
    for span in ("statespace.build_engine", "statespace.compile_space",
                 "statespace.compile_adversary", "engine.batched.sample",
                 "engine.tree.sample", "engine.batched.time",
                 "engine.tree.time", "service.submit", "service.claim"):
        metrics[f"{span}_calls"] = calls(span)
    for span in ("statespace.build_engine", "statespace.compile_space",
                 "statespace.compile_adversary", "statespace.flatten",
                 "statespace.flags", "engine.batched.sample",
                 "engine.tree.sample", "engine.batched.time",
                 "engine.tree.time", "service.submit", "service.claim",
                 "service.cache_get", "service.cache_put",
                 "service.complete"):
        metrics[f"{span}_s"] = self_s(span)
    for name in ("statespace.states_interned",
                 "statespace.transitions_interned",
                 "statespace.product_nodes", "statespace.tables_uncompiled",
                 "statespace.flat_nodes", "service.claim_empty",
                 "service.cache_hits", "durable_io.records_loaded"):
        metrics[name] = counts.get(name, 0)
    return metrics


def latency_metrics(ops: List[dict]) -> dict:
    """Service job latency percentiles, pooled over every repeat.

    One campaign executes about 30 jobs, so a single repeat would leave
    about 3 of them beyond p90; the pool of a run's repeats, traced and
    untraced, holds several times that.
    """
    def pooled(key: str) -> List[float]:
        return [s for op in ops for s in op.get("stats", {}).get(key, [])]

    jobs, hits = pooled("job_latencies"), pooled("hit_latencies")
    return {
        "service.job_p50_s": percentile(jobs, 0.5),
        "service.job_p90_s": percentile(jobs, 0.9),
        "service.hit_p50_s": percentile(hits, 0.5),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set up, repeat the operation for ``seconds``, check it all."""
    os.makedirs(WORK_DIR, exist_ok=True)
    loadavg_before = _loadavg()
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix="run-") as tmp:
        counter = itertools.count()

        def fresh_dir() -> str:
            path = os.path.join(tmp, f"op{next(counter)}")
            os.makedirs(path)
            return path

        def setup_launch() -> Launch:
            op_dir = fresh_dir()
            return launch(
                [sys.executable, CHILD, "setup", workload.model,
                 str(workload.n)],
                op_dir, child_env(op_dir), "setup",
            )

        cpus = sorted(os.sched_getaffinity(0))
        sampled = cpus[:REFERENCE_CPUS]
        reference_s = {cpu: [] for cpu in sampled}

        def time_reference() -> None:
            # Pinned to each sampled CPU in turn: on a shared host one
            # CPU can run 40% slower than another, and a child may run
            # on either.
            try:
                for cpu in sampled:
                    os.sched_setaffinity(0, {cpu})
                    reference_s[cpu].append(reference_loop())
            finally:
                os.sched_setaffinity(0, cpus)

        time_reference()
        # The first launch in a checkout also writes bytecode caches.
        setups = [setup_launch() for _ in range(
            1 + (SETUP_REPEATS if workload.argv is not None else 0)
        )]

        def operation(traced: bool) -> dict:
            op_dir = fresh_dir()
            trace_dir = None
            if traced:
                trace_dir = os.path.join(op_dir, "trace")
                os.makedirs(trace_dir)
            if workload.argv is None:
                op = service_op(seed, op_dir, trace_dir)
            else:
                op = cli_op(workload, seed, op_dir, trace_dir)
            if traced:
                op["agg"] = tracing.merge(trace_dir)
            return op

        ops = []
        baseline = None
        if trace:
            time_reference()
            baseline = operation(traced=False)
        started = time.perf_counter()
        durations = []
        while True:
            time_reference()
            began = time.perf_counter()
            ops.append(operation(traced=trace))
            durations.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(durations) > seconds:
                break
        time_reference()

    checked = ops + ([baseline] if baseline is not None else [])
    problems = [
        f"setup exit status {run.exit}: {run.stderr[-300:]!r}"
        for run in setups if run.exit != 0
    ]
    golden = workloads.golden_digests().get(workload.name) if seed == 0 else None
    reference = golden or checked[0]["digest"]
    for op in checked:
        if op["digest"] != reference:
            label = "golden" if golden else "the first repeat's"
            op["problems"].append(
                f"output digest {op['digest'][:12]} differs from "
                f"{label} {reference[:12]}"
            )
            op["failed"] = op["attempted"]
        problems.extend(op["problems"])
    attempted = len(setups) + sum(op["attempted"] for op in checked)
    failed = sum(run.exit != 0 for run in setups) + sum(
        op["failed"] for op in checked
    )

    if trace:
        per_op = [layer_metrics(op["agg"], op, baseline["wall_s"])
                  for op in ops]
        declared = PER_LAYER
        raw = {
            name: statistics.median(m[name] for m in per_op)
            for name in per_op[0]
        }
        raw.update(latency_metrics(checked))
    else:
        setup_walls = (
            [op["setup_s"] for op in ops] if workload.argv is None
            else [run.wall_s for run in setups[1:]]
        )
        declared = END_TO_END
        raw = {
            "wall_s": statistics.median(op["wall_s"] for op in ops),
            "cpu_s": statistics.median(op["cpu_s"] for op in ops),
            "peak_rss_mb": statistics.median(op["rss_mb"] for op in ops),
            "setup_s": statistics.median(setup_walls),
        }
    speed = REFERENCE_S / statistics.mean(
        min(times) for times in reference_s.values()
    )
    scale = {"s": speed, "1/s": 1.0 / speed}
    metrics = {
        name: (raw[name] * scale.get(unit, 1.0), unit)
        for name, unit in declared
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "repeats": len(ops),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "unscaled": raw,
        "host_speed": speed,
        "reference_s": reference_s,
        "digests": sorted({op["digest"] for op in checked}),
        "walls_s": [op["wall_s"] for op in ops],
        "host": host_facts(loadavg_before),
    }


# -- reporting ------------------------------------------------------------

def _loadavg() -> Optional[List[float]]:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(part) for part in handle.read().split()[:3]]
    except OSError:
        return None


def host_facts(loadavg_before) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    git_rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_rev = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git_rev,
        "loadavg_before": loadavg_before,
        "loadavg_after": _loadavg(),
    }


def render(result: dict) -> str:
    lines = [
        f"== {result['workload']}  seed {result['seed']}  "
        f"trace {'on' if result['trace'] else 'off'}  "
        f"K={result['repeats']} repeats in {result['seconds']}s  "
        f"error_rate {result['failed']}/{result['attempted']}  "
        f"host speed {result['host_speed']:.3f}",
        "  (value: times in reference-host seconds; then as measured)",
    ]
    width = max(len(name) for name in result["metrics"])
    for name, (value, unit) in result["metrics"].items():
        lines.append(
            f"  {name:<{width}}  {value:>14.6g}  "
            f"{result['unscaled'][name]:>14.6g}  {unit}"
        )
    for problem in result["problems"]:
        lines.append(f"  problem: {problem}")
    lines.append(f"  host: {json.dumps(result['host'], sort_keys=True)}")
    return "\n".join(lines)


def write_result(result: dict) -> str:
    results_dir = os.path.join(WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(
        results_dir,
        f"{result['workload']}-seed{result['seed']}"
        f"-trace{result['trace']}.json",
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(workloads.BY_NAME),
        help="run one workload (default: every workload in turn)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="measurement window per workload (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: report per-layer metrics from traced repeats",
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running launch is killed and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"bench: no repro sources under {ROOT}/src; run this from a "
              "full checkout", file=sys.stderr)
        return 2

    chosen = (
        [workloads.BY_NAME[args.workload]] if args.workload
        else list(workloads.WORKLOADS)
    )
    results = []
    for workload in chosen:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace))
        result["result_file"] = write_result(result)
        print(render(result), flush=True)
        results.append(result)

    def metric_key(result, name):
        return name if len(results) == 1 else f"{result['workload']}/{name}"

    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {
            metric_key(result, name): {"value": value, "unit": unit}
            for result in results
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner: every ``benchmarks/bench_*.py``, one trajectory each.

Runs each benchmark module in its own pytest process (so a crash or
hang in one experiment cannot take down the rest), collects per-module
outcome and wall time, and appends one entry to the suite's own
``BENCH_<suite>.json`` — a JSON list, one entry per invocation, so
successive runs build a per-suite performance trajectory that
regressions show up in.

Usage::

    python tools/bench.py                    # run everything
    python tools/bench.py --only parallel,statespace
    python tools/bench.py --only observability   # the obs smoke suite
    python tools/bench.py --compare          # fail on >25% regressions
    python tools/bench.py --out-dir /tmp/bench

``--compare`` checks each suite's wall time against its previous
trajectory entry and exits nonzero when it regressed by more than 25%.
Before anything runs, every selected suite's trajectory file is
checked up front: a missing, unreadable, empty, malformed, or
baseline-less ``BENCH_<suite>.json`` fails fast with a one-line error
and exit status 3 — there is nothing meaningful to compare against,
and silently "passing" would hide exactly the regression the flag
exists to catch.

Exit status: 0 clean; 1 when any benchmark module fails (pytest exit
codes other than 0/5; 5 = all tests skipped, which counts as a clean
skip) or, with ``--compare``, when any suite regressed; 2 when no
modules matched ``--only``; 3 when ``--compare`` has no usable
baseline for a selected suite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

#: pytest exit codes that do not indicate a broken benchmark.
_CLEAN_EXITS = (0, 5)  # 5: no tests ran (everything skipped)

#: ``--compare`` fails a suite whose wall time grew past this factor.
REGRESSION_FACTOR = 1.25


def bench_modules(only=None):
    """The benchmark files to run, optionally filtered by substring."""
    modules = sorted(BENCH_DIR.glob("bench_*.py"))
    if only:
        needles = [n.strip() for n in only.split(",") if n.strip()]
        modules = [
            m for m in modules if any(n in m.stem for n in needles)
        ]
    return modules


def suite_name(path: Path) -> str:
    """``bench_statespace.py`` -> ``statespace``."""
    return path.stem[len("bench_"):]


def run_module(path: Path) -> dict:
    """Run one benchmark module under pytest; returns its result row."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    started = time.perf_counter()
    process = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", str(path)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
    )
    elapsed = time.perf_counter() - started
    tail = [
        line
        for line in process.stdout.strip().splitlines()
        if line.strip()
    ]
    return {
        "module": path.name,
        "exit_code": process.returncode,
        "ok": process.returncode in _CLEAN_EXITS,
        "seconds": round(elapsed, 3),
        "summary": tail[-1] if tail else "",
    }


def read_trajectory(out_path: Path):
    """``(trajectory, problem)`` for the file at ``out_path``.

    ``problem`` is ``None`` when the file holds a JSON list (the
    trajectory format), else a one-line reason: ``missing``,
    ``unreadable: ...``, ``malformed JSON: ...``, or ``not a JSON
    list``.  Never raises — every way a trajectory file can be broken
    is reported as data so callers can choose between tolerating it
    (plain appends) and failing fast (``--compare``).
    """
    if not out_path.exists():
        return [], "missing"
    try:
        text = out_path.read_text()
    except OSError as error:
        return [], f"unreadable: {error}"
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as error:
        return [], f"malformed JSON: {error}"
    if not isinstance(loaded, list):
        return [], "not a JSON list"
    return loaded, None


def load_trajectory(out_path: Path) -> list:
    """The existing trajectory list at ``out_path`` (tolerant of junk)."""
    trajectory, problem = read_trajectory(out_path)
    if problem is not None and problem != "missing":
        print(
            f"bench: warning: {out_path} is unusable ({problem}); "
            "starting a fresh trajectory",
            file=sys.stderr,
        )
    return trajectory


def previous_seconds(trajectory: list):
    """The newest comparable wall time in a trajectory, if any.

    Skips entries without a numeric ``seconds`` field: the file is
    outside input and may hold anything.
    """
    for entry in reversed(trajectory):
        if isinstance(entry, dict) and isinstance(
            entry.get("seconds"), (int, float)
        ):
            return entry["seconds"]
    return None


def append_entry(out_path: Path, entry: dict) -> None:
    """Append ``entry`` to the JSON trajectory list at ``out_path``."""
    trajectory = load_trajectory(out_path)
    trajectory.append(entry)
    out_path.write_text(json.dumps(trajectory, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", default=None, metavar="NAMES",
        help="comma-separated substrings selecting benchmark modules "
             "(e.g. 'parallel,statespace')",
    )
    parser.add_argument(
        "--out-dir", default=str(REPO_ROOT), metavar="DIR",
        dest="out_dir",
        help="directory the per-suite BENCH_<suite>.json trajectories "
             "live in (default: the repository root)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="exit nonzero when a suite's wall time regressed more "
             f"than {round((REGRESSION_FACTOR - 1) * 100)}%% vs its "
             "previous trajectory entry",
    )
    args = parser.parse_args(argv)

    modules = bench_modules(args.only)
    if not modules:
        print("bench: no benchmark modules matched", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.compare:
        # Fail fast before burning benchmark time: a comparison run
        # with nothing to compare against would otherwise "pass".
        uncomparable = 0
        for module in modules:
            out_path = out_dir / f"BENCH_{suite_name(module)}.json"
            trajectory, problem = read_trajectory(out_path)
            if problem is None and previous_seconds(trajectory) is None:
                problem = "no previous entry with a numeric 'seconds'"
            if problem is not None:
                uncomparable += 1
                print(
                    f"bench: error: cannot compare "
                    f"{suite_name(module)}: {problem} ({out_path})",
                    file=sys.stderr,
                )
        if uncomparable:
            return 3

    failures = 0
    regressions = 0
    for module in modules:
        suite = suite_name(module)
        print(f"bench: running {module.name} ...", flush=True)
        row = run_module(module)
        failures += not row["ok"]
        status = "ok" if row["ok"] else f"FAILED (exit {row['exit_code']})"
        print(f"bench:   {status} in {row['seconds']:.1f}s  {row['summary']}")
        entry = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "python": sys.version.split()[0],
            **row,
        }
        out_path = out_dir / f"BENCH_{suite}.json"
        baseline = previous_seconds(load_trajectory(out_path))
        append_entry(out_path, entry)
        if args.compare and baseline is not None:
            if row["seconds"] > baseline * REGRESSION_FACTOR:
                regressions += 1
                print(
                    f"bench:   REGRESSION: {suite} took "
                    f"{row['seconds']:.1f}s vs {baseline:.1f}s "
                    f"previously (> {REGRESSION_FACTOR:.2f}x)",
                    file=sys.stderr,
                )

    print(
        f"bench: {len(modules)} suite(s), {failures} failure(s), "
        f"{regressions} regression(s) -> {out_dir}/BENCH_<suite>.json"
    )
    return 1 if failures or regressions else 0


if __name__ == "__main__":
    sys.exit(main())

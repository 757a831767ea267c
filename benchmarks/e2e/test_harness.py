"""Tests of the benchmark harness itself.

Run from the repository root: ``python -m pytest -q benchmarks/e2e``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_self_time_folds_children_out_of_parents(tmp_path):
    tracer = tracing.Tracer(str(tmp_path))
    # a [0, 10] holds b [1, 6] (which holds c [2, 5]) and b [7, 9].
    tracer.enter("a", 0.0)
    tracer.enter("b", 1.0)
    tracer.enter("c", 2.0)
    tracer.exit(5.0)
    tracer.exit(6.0)
    tracer.enter("b", 7.0)
    tracer.exit(9.0)
    tracer.exit(10.0)
    assert tracer.spans == {
        "a": [1, 10.0, 3.0],
        "b": [2, 7.0, 4.0],
        "c": [1, 3.0, 3.0],
    }
    assert tracer.edges == {">a": 1, "a>b": 2, "b>c": 1}
    assert tracer.top_s == 10.0
    # The stack emptied, so the process's aggregate file was written;
    # merge() sums it with another process's file.
    other = {"pid": 1, "spans": {"c": [2, 1.0, 1.0]}, "edges": {"b>c": 2},
             "counts": {"n": 3}, "top_s": 1.0}
    (tmp_path / "agg-1.json").write_text(json.dumps(other))
    merged = tracing.merge(str(tmp_path))
    assert merged["spans"]["c"] == [3, 4.0, 4.0]
    assert merged["edges"]["b>c"] == 3
    assert merged["counts"] == {"n": 3}
    assert merged["top_s"] == {1: 1.0, os.getpid(): 10.0}


def test_spans_are_per_thread():
    import threading

    tracer = tracing.Tracer()
    tracer.enter("main", 0.0)
    worker = threading.Thread(target=lambda: (tracer.enter("beat", 1.0),
                                              tracer.exit(2.0)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.exit(4.0)
    assert tracer.edges == {">main": 1, ">beat": 1}
    assert tracer.spans["main"] == [1, 4.0, 4.0]


def _wrappers_in_repro_modules():
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, "bench_span"):
                found.append(f"{name}.{key}")
    return found


def test_wrappers_reach_every_import_site_and_restore():
    import repro.cli  # noqa: F401
    from repro.models import get_model
    from repro.parallel import backend
    from repro.probability import stats
    from repro.probability.stats import BernoulliSummary
    from repro.proofs import verifier
    from repro.statespace import compile as compile_mod
    from repro.statespace import engine

    originals = {
        "compile_space": compile_mod.compile_space,
        "build_engine": engine.build_engine,
        "cp_upper": stats.clopper_pearson_upper,
        "tree_sample": engine.TreeEngine.__dict__["sample"],
        "lr_build": get_model("lr").build,
    }
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        assert missing == []
        # Every module that imported a target by name sees the wrapper.
        assert engine.compile_space is compile_mod.compile_space
        assert engine.compile_space is not originals["compile_space"]
        assert verifier.build_engine is engine.build_engine
        assert verifier.build_engine is not originals["build_engine"]
        assert verifier.clopper_pearson_upper is stats.clopper_pearson_upper
        assert backend.clopper_pearson_upper is stats.clopper_pearson_upper
        assert stats.clopper_pearson_upper is not originals["cp_upper"]
        assert engine.TreeEngine.__dict__["sample"] is not originals["tree_sample"]
        assert get_model("lr").build is not originals["lr_build"]
        verifier.clopper_pearson_upper(BernoulliSummary(5, 10), 0.99)
        backend.clopper_pearson_lower(BernoulliSummary(5, 10), 0.99)
        assert tracer.spans["probability.cp"][0] == 2
    finally:
        restore()
    assert engine.compile_space is originals["compile_space"]
    assert compile_mod.compile_space is originals["compile_space"]
    assert verifier.build_engine is originals["build_engine"]
    assert backend.clopper_pearson_upper is originals["cp_upper"]
    assert engine.TreeEngine.__dict__["sample"] is originals["tree_sample"]
    assert get_model("lr").build is originals["lr_build"]
    assert _wrappers_in_repro_modules() == []


def test_job_mix_is_a_pure_function_of_the_seed():
    mix = workloads.job_mix(3)
    assert mix == workloads.job_mix(3)
    assert mix != workloads.job_mix(4)
    assert len(mix) == workloads.CAMPAIGN_JOBS
    # The same distinct specs for every seed, each at most MAX_COPIES.
    distinct = set(mix)
    assert distinct == set(workloads.job_mix(4))
    assert len(distinct) == (
        len(workloads.SERVICE_KINDS) * workloads.GRID_SEEDS
    )
    assert max(mix.count(argv) for argv in distinct) <= workloads.MAX_COPIES
    # The racing pairs lead, and no other spec is submitted twice
    # before every spec was submitted once.
    pairs = 2 * workloads.RACING_PAIRS
    assert mix[0:pairs:2] == mix[1:pairs:2]
    assert len(set(mix[:pairs + len(distinct) - workloads.RACING_PAIRS])) == (
        len(distinct)
    )
    # ... and does not depend on the interpreter's hash seed.
    script = ("import json, workloads; "
              "print(json.dumps(workloads.job_mix(3)))")
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=HERE, capture_output=True,
            text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        ).stdout
        assert [tuple(argv) for argv in json.loads(out)] == mix


def test_metric_names_and_counts_fit_the_contract():
    end_to_end = [name for name, _ in run.END_TO_END]
    per_layer = [name for name, _ in run.PER_LAYER]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = end_to_end + per_layer
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name


def test_layer_metrics_are_exactly_the_declared_per_layer_metrics():
    empty = {"spans": {}, "edges": {}, "counts": {}, "top_s": {}}
    metrics = run.layer_metrics(empty, {"wall_s": 2.0, "pid": 1}, 1.0)
    metrics.update(run.latency_metrics([]))
    assert sorted(metrics) == sorted(name for name, _ in run.PER_LAYER)


def test_job_latencies_are_pooled_over_repeats():
    # Three repeats of 10 jobs with latencies 0..29 s, and a CLI-like op.
    ops = [
        {"stats": {"job_latencies": [10.0 * r + i for i in range(10)],
                   "hit_latencies": [0.01 * r]}}
        for r in range(3)
    ] + [{}]
    metrics = run.latency_metrics(ops)
    assert metrics["service.job_p50_s"] == 14.5
    assert metrics["service.job_p90_s"] == pytest.approx(26.1)
    assert metrics["service.hit_p50_s"] == 0.01


def test_benchmark_json_lists_what_run_py_emits():
    spec = _benchmark_json()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def _git_status():
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


@pytest.mark.parametrize("trace, declared", [
    (0, run.END_TO_END), (1, run.PER_LAYER),
])
def test_a_full_run_is_hermetic_and_emits_the_declared_metrics(
    trace, declared
):
    before = _git_status()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", "lr-verify", "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == (
        list(declared)
    )
    if before is not None:
        assert _git_status() == before


def test_a_directory_without_the_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lr-verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Span tracing from outside the program, for the benchmark's traced runs.

:func:`install` wraps public functions and methods of each ``repro``
layer in spans without editing ``src/``.  A function is replaced at
every module attribute bound to it, because callers import it by name
(``engine.py`` does ``from .compile import compile_space``); a method
is replaced on its class.  ``worker_loop`` binds ``run_job_argv`` as a
default argument, so a served job is timed at ``repro.cli.main``.

A :class:`Tracer` keeps one span stack per thread and folds each span
into per-name totals when it closes: ``self_s`` is the span's duration
minus the time of its child spans.  Forked pool and service workers
leave through ``os._exit``, so every process rewrites its own
aggregate file whenever a thread's stack empties; :func:`merge` sums
the files of one traced run.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Per-process span folding; see the module docstring."""

    def __init__(self, out_dir: Optional[str] = None):
        self.out_dir = out_dir
        self.reset()

    def reset(self) -> None:
        """Forget everything: a forked child starts with no spans."""
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: name -> [calls, total_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        #: "parent>child" -> calls; the parent is "" for top-level spans.
        self.edges: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: Summed duration of top-level spans, for unattributed time.
        self.top_s = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, now: Optional[float] = None) -> None:
        start = time.perf_counter() if now is None else now
        self._stack().append([name, start, 0.0])

    def exit(self, now: Optional[float] = None) -> None:
        end = time.perf_counter() if now is None else now
        stack = self._stack()
        name, start, child_s = stack.pop()
        duration = end - start
        parent = stack[-1][0] if stack else ""
        if stack:
            stack[-1][2] += duration
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s
            edge = f"{parent}>{name}"
            self.edges[edge] = self.edges.get(edge, 0) + 1
            if not stack:
                self.top_s += duration
        if not stack:
            self.flush()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pid": self.pid,
                "spans": {k: list(v) for k, v in self.spans.items()},
                "edges": dict(self.edges),
                "counts": dict(self.counts),
                "top_s": self.top_s,
            }

    def flush(self) -> None:
        """Atomically rewrite this process's aggregate file."""
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"agg-{os.getpid()}.json")
        tmp = f"{path}.{threading.get_ident()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def merge(out_dir: str) -> dict:
    """Sum every process's aggregate file written into ``out_dir``.

    ``top_s`` is keyed by pid, so callers can pick the root process.
    """
    merged = {"spans": {}, "edges": {}, "counts": {}, "top_s": {}}
    for path in sorted(glob.glob(os.path.join(out_dir, "agg-*.json"))):
        with open(path, encoding="utf-8") as handle:
            part = json.load(handle)
        for name, (calls, total, self_s) in part["spans"].items():
            entry = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for key in ("edges", "counts"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["top_s"][part["pid"]] = part["top_s"]
    return merged


# -- what gets wrapped ---------------------------------------------------

def _count_space(tracer: Tracer, space) -> None:
    tracer.count("statespace.states_interned", space.n_states)
    tracer.count("statespace.transitions_interned", space.n_transitions)


def _count_table(tracer: Tracer, table) -> None:
    if table is None:
        tracer.count("statespace.tables_uncompiled")
    else:
        tracer.count("statespace.product_nodes", table.n_nodes)


def _count_flat(tracer: Tracer, flat) -> None:
    if flat is not None:
        tracer.count("statespace.flat_nodes", flat.n_nodes)


def _count_claim(tracer: Tracer, view) -> None:
    if view is None:
        tracer.count("service.claim_empty")


def _count_hit(tracer: Tracer, payload) -> None:
    if payload is not None:
        tracer.count("service.cache_hits")


def _count_records(tracer: Tracer, loaded) -> None:
    tracer.count("durable_io.records_loaded", len(loaded[0]))


#: (module, function or Class.method, span name, result hook).
TARGETS = (
    ("repro.analysis.montecarlo", "start_states_for",
     "analysis.start_states", None),
    ("repro.analysis.reporting", "arrow_report_row", "analysis.report", None),
    ("repro.analysis.reporting", "time_report_row", "analysis.report", None),
    ("repro.proofs.verifier", "ArrowCheckReport.summary_line",
     "analysis.report", None),
    ("repro.statespace.engine", "build_engine",
     "statespace.build_engine", None),
    ("repro.statespace.compile", "compile_space",
     "statespace.compile_space", _count_space),
    ("repro.statespace.compile", "CompiledSpace.flags",
     "statespace.flags", None),
    ("repro.statespace.product", "compile_adversary",
     "statespace.compile_adversary", _count_table),
    ("repro.statespace.arrays", "flatten_table",
     "statespace.flatten", _count_flat),
    ("repro.statespace.engine", "TreeEngine.sample",
     "engine.tree.sample", None),
    ("repro.statespace.engine", "TreeEngine.time_to_target",
     "engine.tree.time", None),
    ("repro.statespace.engine", "BatchedEngine.sample",
     "engine.batched.sample", None),
    ("repro.statespace.engine", "BatchedEngine.time_to_target",
     "engine.batched.time", None),
    ("repro.parallel.pool", "run_tasks", "parallel.run_tasks", None),
    ("repro.parallel.backend", "execute_pair", "parallel.task.pair", None),
    ("repro.parallel.backend", "execute_time_start",
     "parallel.task.time", None),
    ("repro.probability.stats", "clopper_pearson_lower",
     "probability.cp", None),
    ("repro.probability.stats", "clopper_pearson_upper",
     "probability.cp", None),
    ("repro.proofs.verifier", "check_arrow_by_sampling",
     "proofs.arrow_check", None),
    ("repro.proofs.verifier", "measure_time_to_target",
     "proofs.time_measurement", None),
    ("repro.service.store", "JobStore.submit", "service.submit", None),
    ("repro.service.store", "JobStore.claim", "service.claim", _count_claim),
    ("repro.service.store", "JobStore.complete", "service.complete", None),
    ("repro.service.store", "JobStore.heartbeat", "service.heartbeat", None),
    ("repro.service.cache", "ResultCache.get", "service.cache_get",
     _count_hit),
    ("repro.service.cache", "ResultCache.put", "service.cache_put", None),
    ("repro.cli", "main", "service.execute", None),
    ("repro.durable_io", "DurableAppender.append_line",
     "durable_io.append", None),
    ("repro.durable_io", "load_jsonl", "durable_io.load", _count_records),
)


def _wrap(tracer: Tracer, name: str, func: Callable, hook) -> Callable:
    @functools.wraps(func)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, result)
        return result

    traced.bench_span = name
    return traced


def install(tracer: Tracer):
    """Wrap every target; returns ``(restore, missing)``.

    ``missing`` names targets that no longer exist, so a renamed
    function shows up as a warning instead of silently reading 0.
    ``restore()`` puts every original back.
    """
    undo = []
    missing = []
    for module_name, qualname, span, hook in TARGETS:
        owner_name, _, attr = qualname.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(module, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{qualname}")
            continue
        wrapper = _wrap(tracer, span, original, hook)
        if owner_name:
            undo.append((setattr, owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((setattr, loaded, key, original))
                    setattr(loaded, key, wrapper)
    # Model.build is a field of a frozen dataclass instance per model.
    from repro.models.registry import registered_models

    for model in registered_models():
        undo.append((object.__setattr__, model, "build", model.build))
        object.__setattr__(
            model, "build", _wrap(tracer, "models.build", model.build, None)
        )

    def restore() -> None:
        for setter, owner, attr, original in reversed(undo):
            setter(owner, attr, original)

    return restore, missing

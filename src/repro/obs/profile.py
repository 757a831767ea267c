"""Span profiling: fold tracer output into a per-phase profile.

The tracer records a forest of timed spans; this module folds that
forest into an aggregate keyed by *stack* — the ``;``-joined path of
span names from root to node, the same shape flamegraph tooling eats.
Each stack carries call count, cumulative seconds (time inside the
span, children included), and self seconds (cumulative minus the
children's cumulative — the time the phase itself burned).

Input can be a live :class:`~repro.obs.trace.Tracer`, the span records
of a ``--trace-out`` JSONL file, or the ``profile`` rows stored in a
run manifest — :func:`aggregate_spans` and :func:`merge_profiles`
normalise all three to the same row shape, so ``repro profile`` renders
any of them:

    repro profile trace.jsonl --top 15
    repro profile trace.jsonl --folded > out.folded
    repro profile --run a1b2c3

Folded output is one line per stack, ``a;b;c <self_microseconds>`` —
feed it straight to ``flamegraph.pl`` or speedscope.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.sinks import format_table, span_records
from repro.obs.trace import Tracer

#: One profile row: {"stack": "a;b", "calls": int, "cum_s": float,
#: "self_s": float}.
ProfileRow = Dict[str, object]


def aggregate_spans(
    records: Iterable[Dict[str, object]],
) -> List[ProfileRow]:
    """Fold span records (``sinks.span_records`` shape) into profile rows.

    Records whose ``type`` is not ``span`` are ignored, so a whole
    ``--trace-out`` JSONL file (spans + metrics + reports) can be passed
    verbatim.  Open spans (``duration_s`` is ``None``) count as zero
    seconds but still contribute a call.
    """
    spans = [
        record for record in records if record.get("type") == "span"
    ]
    by_id: Dict[object, Dict[str, object]] = {
        span["id"]: span for span in spans
    }

    def stack_of(span: Dict[str, object]) -> str:
        names: List[str] = []
        node: Optional[Dict[str, object]] = span
        while node is not None:
            names.append(str(node["name"]))
            parent = node.get("parent")
            node = by_id.get(parent) if parent is not None else None
        return ";".join(reversed(names))

    totals: Dict[str, ProfileRow] = {}
    for span in spans:
        stack = stack_of(span)
        duration = span.get("duration_s") or 0.0
        children_s = sum(
            (child.get("duration_s") or 0.0)
            for child in spans
            if child.get("parent") == span["id"]
        )
        row = totals.setdefault(
            stack,
            {"stack": stack, "calls": 0, "cum_s": 0.0, "self_s": 0.0},
        )
        row["calls"] += 1
        row["cum_s"] += float(duration)
        row["self_s"] += max(float(duration) - children_s, 0.0)
    return sorted(totals.values(), key=lambda row: str(row["stack"]))


def profile_tracer(tracer: Tracer) -> List[ProfileRow]:
    """Profile rows for a live tracer's recorded spans."""
    return aggregate_spans(span_records(tracer))


def merge_profiles(
    groups: Iterable[Sequence[ProfileRow]],
) -> List[ProfileRow]:
    """Sum several row sets stack-wise (e.g. rows from many manifests)."""
    totals: Dict[str, ProfileRow] = {}
    for rows in groups:
        for source in rows:
            stack = str(source["stack"])
            row = totals.setdefault(
                stack,
                {"stack": stack, "calls": 0, "cum_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += int(source.get("calls", 0))
            row["cum_s"] += float(source.get("cum_s", 0.0))
            row["self_s"] += float(source.get("self_s", 0.0))
    return sorted(totals.values(), key=lambda row: str(row["stack"]))


def render_profile(rows: Sequence[ProfileRow], top: int = 20) -> str:
    """The top-N hotspots by self time, as a fixed-width table."""
    if not rows:
        return "(no spans recorded)"
    hottest = sorted(
        rows, key=lambda row: float(row["self_s"]), reverse=True
    )[:top]
    table_rows = [
        (
            str(row["stack"]),
            row["calls"],
            f"{float(row['self_s']):.4f}",
            f"{float(row['cum_s']):.4f}",
        )
        for row in hottest
    ]
    return format_table(("stack", "calls", "self_s", "cum_s"), table_rows)


def render_folded(rows: Sequence[ProfileRow]) -> str:
    """Folded flamegraph lines: ``a;b;c <self_microseconds>``."""
    lines = [
        f"{row['stack']} {int(round(float(row['self_s']) * 1_000_000))}"
        for row in sorted(rows, key=lambda row: str(row["stack"]))
    ]
    return "\n".join(lines)

"""Sinks: JSONL run records and human-readable renderings.

Two consumers of a finished recording:

* :class:`JsonlSink` — one JSON object per line, types ``span``,
  ``counter``, ``gauge``, ``histogram``, and ``report`` (the
  ``to_dict()`` of a verifier report).  Machine-readable, append-only,
  diffable; :func:`read_jsonl` round-trips it.
* :func:`render_span_tree` / :func:`render_metric_tables` — fixed-width
  text for terminals, used by ``repro trace`` and ``repro stats``.

The one fixed-width table renderer, :func:`format_table`, lives here
and :mod:`repro.analysis.reporting` re-exports it: the analysis package
sits *above* the instrumented layers, so the renderer cannot live there
without closing an import cycle.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro import durable_io
from repro.obs.metrics import Metrics
from repro.obs.registry import Registry
from repro.obs.trace import Span, Tracer


def jsonable(value: object) -> object:
    """Coerce a value to something ``json.dumps`` accepts.

    Fractions render as ``"num/den"`` strings (exactness survives the
    round trip as text); containers recurse; anything else falls back
    to ``repr`` so domain states stay identifiable in trace files.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(item) for item in value]
    return repr(value)


def span_records(tracer: Tracer) -> List[Dict[str, object]]:
    """Flatten a tracer's span trees into JSONL-ready dicts.

    Spans get depth-first integer ids; ``parent`` is ``None`` for
    roots.  Durations are seconds (``None`` for spans still open).
    """
    records: List[Dict[str, object]] = []
    ids: Dict[int, int] = {}

    def visit(span: Span, parent: object) -> None:
        span_id = len(records)
        ids[id(span)] = span_id
        records.append(
            {
                "type": "span",
                "id": span_id,
                "parent": parent,
                "name": span.name,
                "duration_s": span.duration,
                "attributes": jsonable(span.attributes),
            }
        )
        for child in span.children:
            visit(child, span_id)

    for root in tracer.roots:
        visit(root, None)
    return records


def metric_records(metrics: Metrics) -> List[Dict[str, object]]:
    """One JSONL-ready dict per instrument, sorted by name."""
    records: List[Dict[str, object]] = []
    for name, counter in sorted(metrics.counters.items()):
        records.append({"type": "counter", "name": name,
                        "value": counter.value})
    for name, gauge in sorted(metrics.gauges.items()):
        records.append({"type": "gauge", "name": name, "value": gauge.value})
    for name, histogram in sorted(metrics.histograms.items()):
        records.append({"type": "histogram", "name": name,
                        "summary": histogram.summary()})
    return records


class JsonlSink:
    """Writes run records to a JSONL file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def write(self, records: Iterable[Dict[str, object]]) -> int:
        """Append records to the file; returns the number written.

        Routed through :class:`repro.durable_io.DurableAppender` (one
        fsynced write per record) so a crash mid-dump tears at most
        the final line, which :func:`read_jsonl` tolerates.
        """
        count = 0
        with durable_io.DurableAppender(str(self.path)) as appender:
            for record in records:
                appender.append_line(
                    json.dumps(jsonable(record), sort_keys=True)
                )
                count += 1
        return count

    def write_run(
        self,
        registry: Registry,
        reports: Sequence[Dict[str, object]] = (),
    ) -> int:
        """Write a recording's spans, metrics, and report dicts."""
        records: List[Dict[str, object]] = []
        records.extend(span_records(registry.tracer))
        records.extend(metric_records(registry.metrics))
        for report in reports:
            records.append({"type": "report", **report})
        return self.write(records)


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a JSONL trace file back into dicts.

    Blank lines are skipped, and a truncated *final* line (the torn
    tail a killed writer leaves) is dropped; undecodable interior
    lines still raise — a trace file damaged anywhere else was not
    produced by a crash of a correct writer.
    """
    if not Path(path).exists():
        raise FileNotFoundError(f"no such trace file: {path}")
    records, _dropped = durable_io.load_jsonl(str(path), tolerate="tail")
    return [record for _lineno, record in records]


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as a fixed-width text table with a header rule."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts = [line(list(headers)), line(["-" * width for width in widths])]
    parts.extend(line(row) for row in rendered)
    return "\n".join(parts)


def _format_duration(seconds: object) -> str:
    if seconds is None:
        return "open"
    value = float(seconds)  # type: ignore[arg-type]
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.2f}ms"


def render_span_tree(tracer: Tracer) -> str:
    """The span forest as an indented text tree with durations."""
    lines: List[str] = []
    for span, depth in tracer.walk():
        attrs = " ".join(
            f"{key}={jsonable(value)}"
            for key, value in sorted(span.attributes.items())
        )
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(
            f"{'  ' * depth}{span.name}  "
            f"{_format_duration(span.duration)}{suffix}"
        )
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


def render_metric_tables(metrics: Metrics) -> str:
    """Counters, gauges, and histograms as stacked text tables."""
    sections: List[str] = []
    counters = sorted(metrics.counters.items())
    if counters:
        sections.append("counters\n" + format_table(
            ("name", "value"),
            [(name, counter.value) for name, counter in counters],
        ))
    gauges = sorted(metrics.gauges.items())
    if gauges:
        sections.append("gauges\n" + format_table(
            ("name", "value"),
            [(name, gauge.value) for name, gauge in gauges],
        ))
    histograms = sorted(metrics.histograms.items())
    if histograms:
        rows = []
        for name, histogram in histograms:
            summary = histogram.summary()
            rows.append(
                (
                    name,
                    summary["count"],
                    *(
                        f"{summary[key]:.4g}" if summary.get(key) is not None
                        else "n/a"
                        for key in ("mean", "p50", "p95", "max")
                    ),
                )
            )
        sections.append("histograms\n" + format_table(
            ("name", "count", "mean", "p50", "p95", "max"), rows
        ))
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)

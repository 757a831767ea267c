"""Plain-text table rendering for experiment reports.

The paper reports its results as proved inequalities; the benchmarks
regenerate them as tables of measured worst-case probabilities and
times.  This module renders those tables without third-party
dependencies so benchmark output is readable in any terminal or log.
The table renderer itself, :func:`~repro.obs.sinks.format_table`, lives
in the observability layer, which cannot import this package, and is
re-exported here.
"""

from __future__ import annotations

from repro.obs.sinks import format_table


def banner(title: str) -> str:
    """A section banner for experiment logs."""
    rule = "=" * max(len(title), 8)
    return f"{rule}\n{title}\n{rule}"


def arrow_report_row(name: str, report) -> tuple:
    """A table row for an :class:`~repro.proofs.verifier.ArrowCheckReport`.

    Consumes the report's stable ``to_dict()`` form, so this stays in
    sync with what trace sinks serialize.
    """
    data = report.to_dict()
    if data["min_estimate"] is None:
        estimate = "n/a"
    else:
        estimate = f"{data['min_estimate']:.3f}"
    if data["refuted"]:
        verdict = "REFUTED"
    elif data.get("quarantined"):
        verdict = "QUARANTINED"
    else:
        verdict = "ok"
    return (name, data["statement"], estimate, verdict)


def time_report_row(name: str, report) -> tuple:
    """A table row for a :class:`~repro.proofs.verifier.TimeToTargetReport`.

    The verdict column is left to the caller (the acceptable mean
    depends on the claimed bound); this renders the measured columns.
    """
    data = report.to_dict()
    mean = f"{data['mean']:.2f}" if data["mean"] is not None else "n/a"
    maximum = f"{data['max']:g}" if data["max"] is not None else "n/a"
    return (name, mean, maximum, data["unreached"])

"""Replay corpus entries across engines x guard modes x worker counts.

The runner turns one matrix cell (entry, guard mode, engine, workers)
into a :class:`Classification` — a small frozen summary of everything
observable about the run: verdict, quarantine kinds, warn-mode contract
counters, the taxonomy class of any escaping error, the CLI exit status
the outcome maps to, and a SHA-256 digest of the canonical report JSON.
Two classifications are *identical* when their labels match; the corpus
contract is that every engine and worker count produces identical
classifications for every entry, and that the strict/warn/off outcomes
match the entry's declared expectations.

Warn-mode contract counters are *diagnostics*, not part of the
cross-engine identity label: the batched engine validates every
transition of the states its adversary tables reach, as it tabulates
them, while the tree walk checks lazily, only what the adversary
actually schedules — so a mutation parked on a never-scheduled
transition of a tabulated state is counted by the batched engine and
invisible to the tree, with byte-identical reports either way (the
differential fuzzer found exactly this asymmetry on its first
campaign).  For an untabulated adversary the batched engine's history
walk checks each scheduled step once per fragment, where the tree walk
checks it at every visit, so it counts a violating step fewer times.
Counters still back the ``flagged:<kind>`` expectation grammar, where
the entry's reference engine is known to walk the mutated transition.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.contracts import GuardConfig, reset_warnings
from repro.corpus.cases import CheckCase, ServiceCase
from repro.corpus.registry import (
    MODES,
    CorpusEntry,
)
from repro.errors import (
    EXIT_CONTRACT,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_POOL,
    EXIT_REFUTED,
    EXIT_USAGE,
    CheckpointError,
    ContractViolation,
    PoolFaultError,
    ServiceError,
    StateBudgetExceeded,
    UnknownModelError,
)
from repro.parallel.pool import fork_available
from repro.proofs.verifier import check_arrow_by_sampling


@dataclass(frozen=True)
class Classification:
    """Everything observable about one corpus matrix cell."""

    status: str  # ok | refuted | quarantined | error
    detail: str  # quarantine kinds / taxonomy class name / ""
    exit_status: int
    digest: str  # sha256 of canonical report JSON ("" when no report)
    flagged: Tuple[str, ...]  # contract kinds counted in warn mode

    @property
    def label(self) -> str:
        """The canonical identity string two cells must share.

        ``flagged`` is deliberately excluded: warn counters cover every
        transition of a tabulated state on the batched engine and only
        the scheduled steps on the tree walk, so the flagged-kind set
        is an engine diagnostic, not an observable the identity
        contract ranges over (see the module docstring).
        """
        return "|".join(
            (
                self.status,
                self.detail,
                str(self.exit_status),
                self.digest,
            )
        )

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "detail": self.detail,
            "exit_status": self.exit_status,
            "digest": self.digest,
            "flagged": list(self.flagged),
        }

    def matches(self, expectation: str) -> bool:
        """Does this cell satisfy an expectation-grammar string?"""
        if expectation == "ok":
            return self.status == "ok" and not self.flagged
        if expectation == "refuted":
            return self.status == "refuted"
        if expectation.startswith("flagged:"):
            kind = expectation.split(":", 1)[1]
            return self.status == "ok" and kind in self.flagged
        if expectation.startswith("quarantined:"):
            kind = expectation.split(":", 1)[1]
            return (
                self.status == "quarantined"
                and kind in self.detail.split(",")
            )
        if expectation.startswith("error:"):
            name = expectation.split(":", 1)[1]
            return self.status == "error" and self.detail == name
        raise ValueError(f"unknown corpus expectation {expectation!r}")


def report_digest(report_dict: dict) -> str:
    """SHA-256 over the canonical JSON form of a report dict."""
    blob = json.dumps(
        report_dict, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _guard_config(mode: str, case: CheckCase) -> GuardConfig:
    """A fresh guard config for one cell.

    Fuel only exists in the checking modes — ``off`` rejects it by
    construction, so off-mode cells of fuel entries run unfuelled.
    """
    if mode == "off":
        return GuardConfig().validate()
    return GuardConfig(mode=mode, fuel_steps=case.fuel_steps).validate()


def _flagged_kinds(counters: Dict[str, object]) -> Tuple[str, ...]:
    kinds = []
    for name, value in counters.items():
        if not name.startswith("contracts."):
            continue
        kind = name.split(".", 1)[1]
        if kind == "violations":
            continue
        if isinstance(value, (int, float)) and value > 0:
            kinds.append(kind)
    return tuple(sorted(kinds))


def classify_check(
    case: CheckCase, *, mode: str, engine: str, workers: int
) -> Classification:
    """Run one arrow-check cell and classify its outcome.

    Exceptions are mapped to exit statuses in the same order the CLI
    maps them; anything outside the taxonomy propagates — an
    unclassifiable crash is a harness bug, not a corpus verdict.
    """
    guards = _guard_config(mode, case)
    policy = case.policy_factory() if case.policy_factory else None
    schema = case.schema_factory() if case.schema_factory else None
    reset_warnings()
    with obs.recording() as registry:
        try:
            report = check_arrow_by_sampling(
                case.automaton_factory(),
                case.statement,
                case.adversaries_factory(),
                list(case.start_states),
                case.time_of,
                samples_per_pair=case.samples,
                max_steps=case.max_steps,
                seed=case.seed,
                workers=workers,
                policy=policy,
                schema=schema,
                guards=guards,
                engine=engine,
                space_spec=case.space_spec,
                state_budget=case.state_budget,
            )
        except ContractViolation as error:
            return Classification(
                "error", type(error).__name__, EXIT_CONTRACT, "", ()
            )
        except StateBudgetExceeded as error:
            return Classification(
                "error", type(error).__name__, EXIT_USAGE, "", ()
            )
        except UnknownModelError as error:
            return Classification(
                "error", type(error).__name__, EXIT_USAGE, "", ()
            )
        except (PoolFaultError, CheckpointError) as error:
            return Classification(
                "error", type(error).__name__, EXIT_POOL, "", ()
            )
        counters = registry.metrics.snapshot()["counters"]
    flagged = _flagged_kinds(counters)
    digest = report_digest(report.to_dict())
    if report.quarantined:
        kinds = ",".join(
            sorted({pair.kind for pair in report.quarantined})
        )
        return Classification(
            "quarantined", kinds, EXIT_CONTRACT, digest, flagged
        )
    if report.refuted:
        return Classification("refuted", "", EXIT_REFUTED, digest, flagged)
    return Classification("ok", "", EXIT_OK, digest, flagged)


def classify_service(case: ServiceCase) -> Classification:
    """Run one job-service scenario cell and classify its outcome.

    Guard modes do not reach the service layer, so the same scenario
    replays identically in every mode — the matrix still runs all
    three to pin that independence.  A :class:`ServiceError` escaping
    maps to the infrastructure exit status, mirroring the CLI.
    """
    reset_warnings()
    with obs.recording():
        try:
            payload = case.run()
        except ServiceError as error:
            return Classification(
                "error", type(error).__name__, EXIT_POOL, "", ()
            )
    return Classification("ok", "", EXIT_OK, report_digest(payload), ())


@dataclass(frozen=True)
class EntryResult:
    """The outcome of replaying one entry across its full matrix."""

    name: str
    ok: bool
    skipped: bool
    cells: Dict[Tuple[str, str, int], Classification]
    problems: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "skipped": self.skipped,
            "problems": list(self.problems),
            "cells": {
                f"{mode}/{engine}/w{workers}": cls.to_dict()
                for (mode, engine, workers), cls in sorted(
                    self.cells.items()
                )
            },
        }


def _runnable_workers(counts: Tuple[int, ...]) -> Tuple[int, ...]:
    if fork_available():
        return counts
    return tuple(count for count in counts if count <= 1)


def run_entry(entry: CorpusEntry) -> EntryResult:
    """Replay one entry over its matrix; never raises on divergence."""
    problems: List[str] = []
    cells: Dict[Tuple[str, str, int], Classification] = {}
    if entry.kind == "service":
        first_cls: Optional[Classification] = None
        for mode in MODES:
            cls = classify_service(entry.build())
            cells[(mode, "service", 1)] = cls
            if first_cls is None:
                first_cls = cls
            elif cls.label != first_cls.label:
                problems.append(
                    f"{entry.name}: mode {mode} classified "
                    f"[{cls.label}] but off classified "
                    f"[{first_cls.label}]"
                )
            if not entry.agreement_only and not cls.matches(
                entry.expect[mode]
            ):
                problems.append(
                    f"{entry.name}: mode {mode} expected "
                    f"{entry.expect[mode]!r}, observed [{cls.label}]"
                )
        return EntryResult(
            entry.name, not problems, False, cells, tuple(problems)
        )

    workers = _runnable_workers(entry.workers)
    if not workers:
        return EntryResult(entry.name, True, True, {}, ())

    baseline_engines: Tuple[str, ...] = ()
    if entry.baseline_ok:
        from repro.corpus.registry import ENGINES

        baseline_engines = tuple(
            engine for engine in ENGINES if engine not in entry.engines
        )

    mode_digests: Dict[str, str] = {}
    for mode in MODES:
        matrix: List[Tuple[str, int, Classification]] = []
        for engine in entry.engines:
            for count in workers:
                cls = classify_check(
                    entry.build(), mode=mode, engine=engine, workers=count
                )
                cells[(mode, engine, count)] = cls
                matrix.append((engine, count, cls))
        first_engine, first_count, first = matrix[0]
        for engine, count, cls in matrix[1:]:
            if cls.label != first.label:
                problems.append(
                    f"{entry.name}: mode {mode}: {engine}/w{count} "
                    f"classified [{cls.label}] but "
                    f"{first_engine}/w{first_count} classified "
                    f"[{first.label}]"
                )
        if not entry.agreement_only and not first.matches(
            entry.expect[mode]
        ):
            problems.append(
                f"{entry.name}: mode {mode} expected "
                f"{entry.expect[mode]!r}, observed [{first.label}]"
            )
        mode_digests[mode] = first.digest

        baseline_first: Optional[Classification] = None
        for engine in baseline_engines:
            for count in workers:
                cls = classify_check(
                    entry.build(), mode=mode, engine=engine, workers=count
                )
                cells[(mode, engine, count)] = cls
                if cls.status != "ok":
                    problems.append(
                        f"{entry.name}: mode {mode}: baseline engine "
                        f"{engine}/w{count} expected ok, observed "
                        f"[{cls.label}]"
                    )
                if baseline_first is None:
                    baseline_first = cls
                elif cls.label != baseline_first.label:
                    problems.append(
                        f"{entry.name}: mode {mode}: baseline engines "
                        f"disagree ({engine}/w{count})"
                    )

    if (
        entry.warn_matches_off
        and mode_digests.get("off")
        and mode_digests.get("warn")
        and mode_digests["off"] != mode_digests["warn"]
    ):
        problems.append(
            f"{entry.name}: warn-mode report bytes diverge from off-mode "
            f"(digest {mode_digests['warn'][:12]} != "
            f"{mode_digests['off'][:12]})"
        )

    return EntryResult(
        entry.name, not problems, False, cells, tuple(problems)
    )


@dataclass(frozen=True)
class CorpusReport:
    """The outcome of a full corpus sweep."""

    results: Tuple[EntryResult, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def problems(self) -> Tuple[str, ...]:
        out: List[str] = []
        for result in self.results:
            out.extend(result.problems)
        return tuple(out)

    @property
    def exit_status(self) -> int:
        return EXIT_OK if self.ok else EXIT_DIVERGENCE

    def to_dict(self) -> dict:
        return {
            "kind": "corpus_run",
            "ok": self.ok,
            "entries": len(self.results),
            "skipped": sum(1 for r in self.results if r.skipped),
            "cells": sum(len(r.cells) for r in self.results),
            "problems": list(self.problems),
            "results": [result.to_dict() for result in self.results],
        }

    def describe(self) -> str:
        ran = [r for r in self.results if not r.skipped]
        skipped = len(self.results) - len(ran)
        cells = sum(len(r.cells) for r in self.results)
        line = (
            f"corpus: {len(ran)} entries x {cells} cells "
            f"classified{f' ({skipped} skipped)' if skipped else ''}"
        )
        if self.ok:
            return line + ": all identical and as expected"
        return line + f": {len(self.problems)} problem(s)"


def run_corpus(
    entries: Union[Tuple[CorpusEntry, ...], List[CorpusEntry]],
) -> CorpusReport:
    """Replay every entry; emit ``corpus.*`` counters when recording."""
    results = []
    for entry in entries:
        result = run_entry(entry)
        results.append(result)
        obs.incr("corpus.entries")
        obs.incr("corpus.cells", len(result.cells))
        if not result.ok:
            obs.incr("corpus.mismatches", len(result.problems))
    return CorpusReport(tuple(results))

"""The standing defect corpus: declarative entries with expected verdicts.

Each :class:`CorpusEntry` names one known-bad (or known-good) model /
adversary / schema / runtime mutation, the taxonomy class it must be
classified as, and the expected observable outcome *per guard mode*.
The runner (:mod:`repro.corpus.runner`) replays every entry across
engines x guard modes x worker counts and fails loudly if any cell
disagrees — the corpus is the acceptance gate every new engine,
backend, cache, or model front-end must pass unchanged.

The expectation grammar (values of ``CorpusEntry.expect``):

``ok``
    The check completes, nothing is quarantined, no contract counters
    fire.
``flagged:<kind>``
    The check completes but warn-mode guards incremented a
    ``contracts.<kind>`` counter at least once.
``quarantined:<kind>``
    The report carries >= 1 quarantined pair whose violation kind is
    ``<kind>`` (strict mode's graceful degradation).
``error:<ClassName>``
    The named taxonomy exception escapes the run.
``refuted``
    The statement's claimed bound fails its Clopper–Pearson test.

``expected_class`` is written as a keyword with a string literal on
every entry **on purpose**: ``tools/lint.py`` AST-parses this file and
cross-checks the literals against the error-taxonomy classes in
``src/repro/errors.py`` in both directions (every public taxonomy
class needs an entry; every entry must name a real class).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Tuple, Union

from repro import durable_io
from repro.corpus import cases
from repro.corpus.cases import CheckCase, FlagsCase, ServiceCase
from repro.errors import VerificationError
from repro.parallel.faults import FaultPlan
from repro.parallel.pool import RunPolicy

#: Every engine the corpus replays.  ``batched-pure`` is the
#: first-class name for the BatchedEngine with the numpy transplant
#: disabled — the path machines without numpy take implicitly.
ENGINES = ("tree", "batched", "batched-pure")

#: Guard modes every entry is replayed under.
MODES = ("off", "warn", "strict")

#: Worker counts for the differential matrix (pooled counts skip
#: cleanly on platforms without the ``fork`` start method).
WORKER_COUNTS = (1, 4)

#: Default on-disk location for fuzz-emitted / user-added entries.
DEFAULT_CORPUS_FILE = Path(".repro") / "corpus" / "extra.jsonl"

OK = "ok"


@dataclass(frozen=True)
class CorpusEntry:
    """One defect (or control) with its expected classification.

    ``build`` returns a fresh :class:`CheckCase` or :class:`FlagsCase`
    per replay; entries themselves are immutable and stateless.

    ``engines`` restricts the identity matrix when a defect is only
    *observable* on some engines (e.g. a blown compile budget cannot
    fire on ``tree``, which never compiles).  When ``baseline_ok`` is
    true the excluded engines are still run and must classify ``ok``
    — the defect must degrade, not corrupt.

    ``warn_matches_off`` asserts warn-mode reports are byte-identical
    to off-mode reports; true for every defect that only *counts* in
    warn mode, false when warn changes the trajectory (fuel truncates
    executions).
    """

    name: str
    description: str
    expected_class: Optional[str]
    expected_kind: Optional[str]
    expect: Mapping[str, str]
    exit_status: int
    build: Callable[[], Union[CheckCase, FlagsCase, ServiceCase]]
    kind: str = "check"
    engines: Tuple[str, ...] = ENGINES
    baseline_ok: bool = False
    workers: Tuple[int, ...] = WORKER_COUNTS
    warn_matches_off: bool = True
    agreement_only: bool = False
    source: str = "builtin"
    raw: Optional[dict] = field(default=None, compare=False)

    def modes_expectations(self) -> Mapping[str, str]:
        missing = [mode for mode in MODES if mode not in self.expect]
        if missing:
            raise VerificationError(
                f"corpus entry {self.name!r} lacks expectations for "
                f"guard modes {missing}"
            )
        return self.expect


def _pool_policy(
    faults: str, timeout: Optional[float] = None
) -> Callable[[], RunPolicy]:
    def factory() -> RunPolicy:
        return RunPolicy(
            timeout=timeout, retries=0, faults=FaultPlan.parse(faults)
        )

    return factory


def _healthy_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.tiny_automaton,
        adversaries_factory=cases.first_enabled_family,
    )


def _broken_distribution_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.broken_automaton,
        adversaries_factory=cases.first_enabled_family,
    )


def _rogue_adversary_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.tiny_automaton,
        adversaries_factory=cases.rogue_family,
    )


def _liar_schema_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.tiny_automaton,
        adversaries_factory=cases.first_enabled_family,
        schema_factory=cases.liar_schema,
    )


def _fuel_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.tiny_automaton,
        adversaries_factory=cases.first_enabled_family,
        statement=cases.NEVER_STATEMENT,
        fuel_steps=1,
    )


def _quotient_flags_case() -> FlagsCase:
    return FlagsCase(
        automaton_factory=cases.tiny_automaton,
        spec_factory=cases.noninvariant_orbit_spec,
        predicate=lambda state: state == "c",
    )


def _budget_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.tiny_automaton,
        adversaries_factory=cases.first_enabled_family,
        state_budget=2,
    )


def _crash_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.tiny_automaton,
        adversaries_factory=cases.two_pair_family,
        policy_factory=_pool_policy("crash=1.0,seed=5"),
    )


def _hang_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.tiny_automaton,
        adversaries_factory=cases.two_pair_family,
        policy_factory=_pool_policy("hang=1.0,seed=5", timeout=0.2),
    )


def _corrupt_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.tiny_automaton,
        adversaries_factory=cases.two_pair_family,
        policy_factory=_pool_policy("corrupt=1.0,seed=5"),
    )


def _raising_case() -> CheckCase:
    return CheckCase(
        automaton_factory=cases.tiny_automaton,
        adversaries_factory=cases.raising_family,
    )


BUILTIN_ENTRIES: Tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="healthy-tiny",
        description=(
            "The unmutated three-state model: every engine, guard mode "
            "and worker count must agree on a clean supported report."
        ),
        expected_class=None,
        expected_kind=None,
        expect={"off": OK, "warn": OK, "strict": OK},
        exit_status=0,
        build=_healthy_case,
        baseline_ok=False,
    ),
    CorpusEntry(
        name="distribution-sum-99-100",
        description=(
            "A transition target smuggled past the constructor whose "
            "weights sum to 99/100 — a Definition 2.1 breach."
        ),
        expected_class="DistributionError",
        expected_kind="distribution",
        expect={
            "off": OK,
            "warn": "flagged:distribution",
            "strict": "quarantined:distribution",
        },
        exit_status=4,
        build=_broken_distribution_case,
    ),
    CorpusEntry(
        name="herman-distribution-skim",
        description=(
            "Herman's ring (n=3) built through the model registry with "
            "every coin-flip target skimmed to 99/100 — the Definition "
            "2.1 guards must fire for registered models exactly as "
            "they do for the hand-built tiny model."
        ),
        expected_class="DistributionError",
        expected_kind="distribution",
        expect={
            "off": OK,
            "warn": "flagged:distribution",
            "strict": "quarantined:distribution",
        },
        exit_status=4,
        build=cases.herman_skimmed_case,
    ),
    CorpusEntry(
        name="unknown-model-name",
        description=(
            "A --model name absent from the registry: resolution must "
            "raise UnknownModelError before any sampling starts, in "
            "every guard mode, mapping to the usage exit status like "
            "an unknown proposition."
        ),
        expected_class="UnknownModelError",
        expected_kind=None,
        expect={
            "off": "error:UnknownModelError",
            "warn": "error:UnknownModelError",
            "strict": "error:UnknownModelError",
        },
        exit_status=2,
        build=cases.unknown_model_case,
        workers=(1,),
    ),
    CorpusEntry(
        name="adversary-disabled-step",
        description=(
            "An adversary scheduling a fabricated 'stop' step from "
            "states where it is not enabled — a Definition 2.2 breach."
        ),
        expected_class="AdversaryContractError",
        expected_kind="adversary",
        expect={
            "off": OK,
            "warn": "flagged:adversary",
            "strict": "quarantined:adversary",
        },
        exit_status=4,
        build=_rogue_adversary_case,
    ),
    CorpusEntry(
        name="schema-false-closure",
        description=(
            "A schema claiming execution closure while rejecting every "
            "shifted member — the Definition 3.3 spot check must fire."
        ),
        expected_class="ExecutionClosureError",
        expected_kind="closure",
        expect={
            "off": OK,
            "warn": "flagged:closure",
            "strict": "quarantined:closure",
        },
        exit_status=4,
        build=_liar_schema_case,
    ),
    CorpusEntry(
        name="fuel-exhausted-never-target",
        description=(
            "An unreachable target with a one-step fuel budget: every "
            "execution exhausts its fuel.  Tree-only — the batched "
            "engines refuse fuel by contract, and warn-mode fuel "
            "truncates executions so warn is not byte-identical to off."
        ),
        expected_class="FuelExhaustedError",
        expected_kind="fuel",
        expect={
            "off": OK,
            "warn": "flagged:fuel",
            "strict": "quarantined:fuel",
        },
        exit_status=4,
        build=_fuel_case,
        engines=("tree",),
        baseline_ok=False,
        warn_matches_off=False,
    ),
    CorpusEntry(
        name="quotient-noninvariant-flag",
        description=(
            "A symmetry spec whose orbit merges states a flag predicate "
            "tells apart — the CompiledSpace.flags spot check must "
            "refuse the quotient."
        ),
        expected_class="QuotientInvarianceError",
        expected_kind="quotient",
        expect={
            "off": OK,
            "warn": "flagged:quotient",
            "strict": "error:QuotientInvarianceError",
        },
        exit_status=4,
        build=_quotient_flags_case,
        kind="flags",
        workers=(1,),
    ),
    CorpusEntry(
        name="state-budget-blown",
        description=(
            "A two-node budget for a three-state space: compiling "
            "engines must raise StateBudgetExceeded in every guard "
            "mode while tree (which never compiles) stays clean."
        ),
        expected_class="StateBudgetExceeded",
        expected_kind=None,
        expect={
            "off": "error:StateBudgetExceeded",
            "warn": "error:StateBudgetExceeded",
            "strict": "error:StateBudgetExceeded",
        },
        exit_status=2,
        build=_budget_case,
        engines=("batched", "batched-pure"),
        baseline_ok=True,
    ),
    CorpusEntry(
        name="pool-worker-crash",
        description=(
            "Deterministic crash injection at rate 1.0 with a zero "
            "retry budget: the first worker loss must abort with "
            "WorkerCrashError under every engine."
        ),
        expected_class="WorkerCrashError",
        expected_kind=None,
        expect={
            "off": "error:WorkerCrashError",
            "warn": "error:WorkerCrashError",
            "strict": "error:WorkerCrashError",
        },
        exit_status=3,
        build=_crash_case,
        workers=(4,),
    ),
    CorpusEntry(
        name="pool-task-timeout",
        description=(
            "Deterministic hang injection with a 0.2s task timeout and "
            "zero retries: the parent must reclaim the worker and abort "
            "with TaskTimeoutError."
        ),
        expected_class="TaskTimeoutError",
        expected_kind=None,
        expect={
            "off": "error:TaskTimeoutError",
            "warn": "error:TaskTimeoutError",
            "strict": "error:TaskTimeoutError",
        },
        exit_status=3,
        build=_hang_case,
        workers=(4,),
    ),
    CorpusEntry(
        name="pool-result-corruption",
        description=(
            "Deterministic payload corruption at rate 1.0: the parent's "
            "integrity digest must reject the result and abort with "
            "ResultCorruptionError."
        ),
        expected_class="ResultCorruptionError",
        expected_kind=None,
        expect={
            "off": "error:ResultCorruptionError",
            "warn": "error:ResultCorruptionError",
            "strict": "error:ResultCorruptionError",
        },
        exit_status=3,
        build=_corrupt_case,
        workers=(4,),
    ),
    CorpusEntry(
        name="task-raises-runtime-error",
        description=(
            "An adversary whose choose() raises RuntimeError inside the "
            "worker: the pool must surface it as TaskExecutionError, "
            "identically under every engine (the history-dependent "
            "adversary is uncompilable, so all engines fall back to the "
            "tree walk for that pair)."
        ),
        expected_class="TaskExecutionError",
        expected_kind=None,
        expect={
            "off": "error:TaskExecutionError",
            "warn": "error:TaskExecutionError",
            "strict": "error:TaskExecutionError",
        },
        exit_status=3,
        build=_raising_case,
        workers=(4,),
    ),
    CorpusEntry(
        name="service-lease-expired",
        description=(
            "A worker heartbeats after its lease expired and a rival "
            "claim took the job over: the store must raise "
            "LeaseExpiredError rather than revive the lost lease."
        ),
        expected_class="LeaseExpiredError",
        expected_kind=None,
        expect={
            "off": "error:LeaseExpiredError",
            "warn": "error:LeaseExpiredError",
            "strict": "error:LeaseExpiredError",
        },
        exit_status=3,
        build=cases.lease_expiry_case,
        kind="service",
        workers=(1,),
    ),
    CorpusEntry(
        name="service-store-unknown-event",
        description=(
            "A whole, decodable WAL record of an unknown event kind — "
            "damage no correct writer and no crash produces — must "
            "raise JobStoreCorruptionError, not be folded around."
        ),
        expected_class="JobStoreCorruptionError",
        expected_kind=None,
        expect={
            "off": "error:JobStoreCorruptionError",
            "warn": "error:JobStoreCorruptionError",
            "strict": "error:JobStoreCorruptionError",
        },
        exit_status=3,
        build=cases.store_corruption_case,
        kind="service",
        workers=(1,),
    ),
    CorpusEntry(
        name="service-worker-crash-loop",
        description=(
            "Three young unclean worker exits in a row against a "
            "max_restarts=2 budget: the supervisor's detector must "
            "raise SupervisorCrashLoopError instead of restarting "
            "forever."
        ),
        expected_class="SupervisorCrashLoopError",
        expected_kind=None,
        expect={
            "off": "error:SupervisorCrashLoopError",
            "warn": "error:SupervisorCrashLoopError",
            "strict": "error:SupervisorCrashLoopError",
        },
        exit_status=3,
        build=cases.crash_loop_case,
        kind="service",
        workers=(1,),
    ),
)


def builtin_entries() -> Tuple[CorpusEntry, ...]:
    """The registry of built-in defect-corpus entries."""
    return BUILTIN_ENTRIES


def entry_by_name(
    name: str, entries: Optional[Tuple[CorpusEntry, ...]] = None
) -> CorpusEntry:
    pool = entries if entries is not None else BUILTIN_ENTRIES
    for entry in pool:
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in pool)
    raise VerificationError(
        f"unknown corpus entry {name!r}; known entries: {known}"
    )


def load_file_entries(path: Path) -> Tuple[CorpusEntry, ...]:
    """Load fuzz-emitted / user-added entries from a JSONL corpus file.

    File entries carry a serialized fuzz case instead of a builder;
    they are replayed in *agreement* mode — every engine must produce
    an identical classification — without a hand-written expected
    verdict (the fuzzer cannot know which engine was right, only that
    they must not diverge).
    """
    if not path.exists():
        return ()
    entries = []
    try:
        records, _torn = durable_io.load_jsonl(str(path), tolerate="tail")
    except ValueError as error:
        raise VerificationError(
            f"corpus file {path}: malformed JSON ({error})"
        ) from None
    for lineno, record in records:
        if not isinstance(record, dict) or "case" not in record:
            raise VerificationError(
                f"corpus file {path}:{lineno}: expected an object with "
                f"a 'case' field"
            )
        entries.append(entry_from_record(record, source=str(path)))
    return tuple(entries)


def entry_from_record(record: dict, *, source: str) -> CorpusEntry:
    """Build an agreement-mode entry from a serialized fuzz case."""
    from repro.corpus import fuzz

    case_dict = record["case"]
    name = record.get("name") or f"fuzz-{case_dict.get('seed', 'unknown')}"
    description = record.get(
        "description", "fuzz-emitted case (agreement mode)"
    )
    mode = case_dict.get("guards", "off")
    return CorpusEntry(
        name=name,
        description=description,
        expected_class=None,
        expected_kind=None,
        expect={m: OK for m in MODES},
        exit_status=0,
        build=lambda: fuzz.check_case_from_dict(case_dict),
        engines=ENGINES,
        workers=tuple(record.get("workers", (1,))),
        warn_matches_off=False,
        agreement_only=True,
        source=source,
        raw={"case": case_dict, "name": name, "mode": mode},
    )

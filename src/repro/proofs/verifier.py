"""Checking arrow statements against concrete automata.

An arrow statement quantifies over *all* start states in ``U`` and *all*
adversaries in a schema.  The verifier approximates that quantification
from the hostile side:

* :func:`check_arrow_by_sampling` — Monte-Carlo estimates of the success
  probability for every (adversary, start state) pair in a supplied
  family, with exact Clopper-Pearson bounds.  Truncated samples count as
  failures, so estimated lower bounds remain sound.
* :func:`check_arrow_exactly` — exact tree evaluation via
  :func:`repro.execution.measure.event_probability_bounds` for each pair
  (feasible for short horizons / small branching).

Both return a report whose ``worst`` entry is the empirically most
damaging pair; a statement is *refuted* when some pair's exact upper
confidence bound falls below the claimed probability.

Sampling checks quantify over independent pairs, so they parallelise:
``workers > 1`` fans pairs out over :mod:`repro.parallel`'s fork pool.
Every pair draws from its own deterministically derived seed
(``root seed + adversary name + start repr + occurrence index``), so
reports are bit-identical for ``workers=1`` and ``workers=N`` and
independent of scheduling order (see ``docs/parallel.md``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Callable,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import contracts, obs
from repro.adversary.base import Adversary, AdversarySchema
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.contracts import GuardConfig, QuarantinedPair
from repro.errors import VerificationError
from repro.execution.measure import EventBounds
from repro.parallel.backend import (
    DEFAULT_CHUNK_SIZE,
    ArrowPairContext,
    PairTask,
    TimeStartContext,
    TimeStartTask,
    decode_pair_outcome,
    decode_time_outcome,
    encode_pair_outcome,
    encode_time_outcome,
    execute_pair,
    execute_time_start,
    occurrence_indices,
)
from repro.parallel.pool import RunPolicy, run_tasks
from repro.parallel.seeds import derive_seed
from repro.probability.stats import (
    BernoulliSummary,
    clopper_pearson_lower,
    clopper_pearson_upper,
)
from repro.proofs.reporting import (
    guard_scope_suffix,
    pair_row,
    quarantine_from_violation,
    quarantined_rows,
    resolve_root_seed,
)
from repro.proofs.statements import ArrowStatement
from repro.statespace.compile import SpaceSpec
from repro.statespace.engine import build_engine

State = TypeVar("State", bound=Hashable)


@dataclass(frozen=True)
class PairCheck:
    """Sampling outcome for one (adversary, start state) pair."""

    adversary_name: str
    start_state: object
    summary: BernoulliSummary
    truncated: int

    @property
    def estimate(self) -> float:
        """Point estimate of the success probability for this pair."""
        return self.summary.estimate

    def to_dict(self) -> dict:
        """A stable, JSON-ready summary of this pair's outcome."""
        return pair_row(
            self.adversary_name,
            self.start_state,
            successes=self.summary.successes,
            trials=self.summary.trials,
            estimate=self.estimate,
            truncated=self.truncated,
        )


@dataclass(frozen=True)
class ArrowCheckReport:
    """The aggregated verdict of a sampling check.

    ``quarantined`` lists the (adversary, start) pairs a strict-guard
    run skipped because model code broke a contract mid-pair; their
    counts never enter the statistics, and a report with any
    quarantined pair cannot claim ``supported``.
    """

    statement: ArrowStatement
    checks: Tuple[PairCheck, ...]
    confidence: float
    quarantined: Tuple[QuarantinedPair, ...] = field(default=())

    @property
    def worst(self) -> PairCheck:
        """The pair with the lowest estimated success probability.

        Estimate ties break on (adversary name, start repr), not list
        position, so the reported worst pair — and every summary line
        built from it — is stable across backends and pair orderings.
        """
        if not self.checks:
            raise VerificationError(
                "no healthy pairs to rank: every pair was quarantined"
            )
        return min(
            self.checks,
            key=lambda c: (c.estimate, c.adversary_name, repr(c.start_state)),
        )

    @property
    def min_estimate(self) -> float:
        """The lowest success-probability estimate across healthy pairs
        (NaN when every pair was quarantined)."""
        if not self.checks:
            return float("nan")
        return self.worst.estimate

    @property
    def refuted(self) -> bool:
        """True when some pair statistically refutes the claimed bound.

        Uses the exact upper confidence bound: if even the optimistic
        reading of a pair's data stays below ``p``, no adversary-side
        slack can rescue the statement.
        """
        claimed = float(self.statement.probability)
        return any(
            clopper_pearson_upper(check.summary, self.confidence) < claimed
            for check in self.checks
        )

    @property
    def supported(self) -> bool:
        """True when every pair's lower confidence bound meets ``p``.

        Quarantined pairs produced no evidence, so any quarantine
        forfeits support.
        """
        if not self.checks or self.quarantined:
            return False
        claimed = float(self.statement.probability)
        return all(
            clopper_pearson_lower(check.summary, self.confidence) >= claimed
            for check in self.checks
        )

    def summary_line(self) -> str:
        """A one-line human-readable digest for reports."""
        if not self.checks:
            return (
                f"{self.statement!r}: no healthy pairs "
                f"({len(self.quarantined)} quarantined)"
            )
        worst = self.worst
        verdict = (
            "REFUTED" if self.refuted else
            ("supported" if self.supported else "consistent")
        )
        line = (
            f"{self.statement!r}: min estimate {self.min_estimate:.4f} "
            f"(claimed >= {float(self.statement.probability):.4f}) under "
            f"{worst.adversary_name} -- {verdict}"
        )
        if self.quarantined:
            line += f" [{len(self.quarantined)} pair(s) quarantined]"
        return line

    def to_dict(self) -> dict:
        """A stable, JSON-ready summary for sinks and report writers."""
        return {
            "kind": "arrow_check",
            "statement": repr(self.statement),
            "claimed": float(self.statement.probability),
            "confidence": self.confidence,
            "min_estimate": self.min_estimate if self.checks else None,
            "refuted": self.refuted,
            "supported": self.supported,
            "checks": [check.to_dict() for check in self.checks],
            "quarantined": quarantined_rows(self.quarantined),
        }


def check_arrow_by_sampling(
    automaton: ProbabilisticAutomaton[State],
    statement: ArrowStatement,
    adversaries: Sequence[Tuple[str, Adversary[State]]],
    start_states: Sequence[State],
    time_of: Callable[[State], Fraction],
    rng: Optional[random.Random] = None,
    samples_per_pair: int = 200,
    max_steps: int = 2_000,
    confidence: float = 0.99,
    *,
    seed: Optional[int] = None,
    workers: int = 1,
    early_stop: bool = False,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    policy: Optional[RunPolicy] = None,
    schema: Optional[AdversarySchema] = None,
    guards: Optional[GuardConfig] = None,
    engine: str = "tree",
    space_spec: Optional[SpaceSpec] = None,
    state_budget: Optional[int] = None,
) -> ArrowCheckReport:
    """Monte-Carlo check of ``statement`` over an adversary family.

    Every start state must lie in the statement's source set (checked).
    Truncated runs count as failures, keeping the estimates sound as
    lower bounds on the true success probability.

    Each (adversary, start state) pair samples from its own stream,
    seeded by a stable hash of the root seed (``seed``, or one draw
    from ``rng``) and the pair's identity — so the report is
    bit-identical for any ``workers`` count, and adding pairs never
    perturbs existing ones.  With ``early_stop``, a pair stops sampling
    (in ``chunk_size`` increments, ``samples_per_pair`` remaining the
    cap) once its Clopper-Pearson bounds already classify it against
    the claimed probability; ``BernoulliSummary.trials`` records the
    samples actually drawn.

    ``policy`` configures the fault-tolerant runtime (per-task
    timeouts, retries, checkpoint/resume, fault injection); since a
    pair's outcome is a pure function of its derived seed, none of it
    changes the report (see ``docs/robustness.md``).

    ``guards`` selects the contract-check mode (default: the installed
    :func:`repro.contracts.active` config) and ``schema`` names the
    adversary schema the family is declared to range over, enabling
    membership and execution-closure spot checks.  Guard checks consume
    no sample randomness, so warn-mode reports are byte-identical to
    guards-off on healthy models; in strict mode a violating pair is
    quarantined (reported in ``report.quarantined``) while the rest of
    the run completes (see ``docs/contracts.md``).

    ``engine`` selects the evaluation strategy (``tree``, ``batched``,
    ``batched-pure``, or ``auto``); ``space_spec`` supplies the compile quotient and
    ``state_budget`` the interning cap (see ``docs/statespace.md``).
    Reports are byte-identical across engines.
    """
    if not adversaries:
        raise VerificationError("no adversaries supplied")
    if not start_states:
        raise VerificationError("no start states supplied")
    if samples_per_pair <= 0:
        raise VerificationError("samples_per_pair must be positive")
    if chunk_size <= 0:
        raise VerificationError("chunk_size must be positive")

    guard_config = guards if guards is not None else contracts.active()
    guard_config.validate()
    root_seed = resolve_root_seed(rng, seed)
    pairs: List[Tuple[str, State]] = []
    for name, _ in adversaries:
        for start in start_states:
            if not statement.source.contains(start):
                raise VerificationError(
                    f"start state {start!r} is not in the statement's "
                    f"source set {statement.source.name!r}"
                )
            pairs.append((name, start))
    occurrences = occurrence_indices(
        [(name, repr(start)) for name, start in pairs]
    )
    tasks = [
        PairTask(
            index=index,
            adversary_index=index // len(start_states),
            start_index=index % len(start_states),
            seed=derive_seed(root_seed, name, repr(start), occurrence),
        )
        for index, ((name, start), occurrence) in enumerate(
            zip(pairs, occurrences)
        )
    ]
    engine_obj = build_engine(
        automaton,
        tuple(adversaries),
        tuple(start_states),
        statement.target.contains,
        time_of,
        statement.time_bound,
        max_steps,
        engine=engine,
        spec=space_spec,
        state_budget=state_budget,
        guards=guard_config,
    )
    context = ArrowPairContext(
        automaton=automaton,
        adversaries=tuple(adversaries),
        start_states=tuple(start_states),
        target=statement.target.contains,
        time_bound=statement.time_bound,
        time_of=time_of,
        samples_per_pair=samples_per_pair,
        max_steps=max_steps,
        claimed=float(statement.probability),
        confidence=confidence,
        early_stop=early_stop,
        chunk_size=chunk_size,
        schema=schema,
        guards=guard_config,
        engine=engine_obj,
    )
    # Everything (besides the task seed) a pair's outcome depends on;
    # checkpointed results are only reused within a matching scope.
    # Off and warn produce identical outcomes (guard checks never touch
    # the sample streams), so they share a scope; strict can quarantine,
    # so its checkpoints are segregated.
    scope = (
        f"arrow|{statement!r}|spp={samples_per_pair}|steps={max_steps}"
        f"|conf={confidence}|early={int(early_stop)}|chunk={chunk_size}"
    )
    scope += guard_scope_suffix(guard_config)
    with obs.span(
        "verify.arrow_check",
        statement=repr(statement),
        adversaries=len(adversaries),
        starts=len(start_states),
        samples_per_pair=samples_per_pair,
        workers=workers,
    ) as span:
        outcomes = run_tasks(
            execute_pair, context, tasks, workers,
            policy=policy, scope=scope,
            encode=encode_pair_outcome, decode=decode_pair_outcome,
        )
        checks: List[PairCheck] = []
        quarantined: List[QuarantinedPair] = []
        for (name, start), outcome in zip(pairs, outcomes):
            if outcome.violation is not None:
                quarantined.append(
                    quarantine_from_violation(name, start, outcome.violation)
                )
            else:
                checks.append(
                    PairCheck(
                        adversary_name=name,
                        start_state=start,
                        summary=BernoulliSummary(
                            outcome.successes, outcome.trials
                        ),
                        truncated=outcome.truncated,
                    )
                )
        report = ArrowCheckReport(
            statement=statement, checks=tuple(checks), confidence=confidence,
            quarantined=tuple(quarantined),
        )
        span.annotate(
            min_estimate=report.min_estimate if checks else None,
            refuted=report.refuted,
            quarantined=len(quarantined),
        )
    return report


@dataclass(frozen=True)
class ExactPairCheck:
    """Exact bounds for one (adversary, start state) pair."""

    adversary_name: str
    start_state: object
    bounds: EventBounds


@dataclass(frozen=True)
class ExactArrowReport:
    """The aggregated verdict of an exact tree-evaluation check."""

    statement: ArrowStatement
    checks: Tuple[ExactPairCheck, ...]

    @property
    def min_lower_bound(self) -> Fraction:
        """The worst exact lower bound across all pairs."""
        return min(check.bounds.lower for check in self.checks)

    @property
    def holds_for_family(self) -> bool:
        """True when every pair's exact lower bound meets ``p``."""
        return self.min_lower_bound >= self.statement.probability

    @property
    def refuted(self) -> bool:
        """True when some pair's exact *upper* bound falls below ``p``.

        A genuine counterexample: for that adversary and start state the
        event's probability is provably below the claim.
        """
        return any(
            check.bounds.upper < self.statement.probability
            for check in self.checks
        )

    def to_dict(self) -> dict:
        """A stable, JSON-ready summary for sinks and report writers."""
        return {
            "kind": "exact_arrow",
            "statement": repr(self.statement),
            "claimed": float(self.statement.probability),
            "min_lower_bound": float(self.min_lower_bound),
            "holds_for_family": self.holds_for_family,
            "refuted": self.refuted,
            "checks": [
                pair_row(
                    check.adversary_name,
                    check.start_state,
                    lower=float(check.bounds.lower),
                    upper=float(check.bounds.upper),
                )
                for check in self.checks
            ],
        }


def check_arrow_exactly(
    automaton: ProbabilisticAutomaton[State],
    statement: ArrowStatement,
    adversaries: Sequence[Tuple[str, Adversary[State]]],
    start_states: Sequence[State],
    time_of: Callable[[State], Fraction],
    max_steps: int = 60,
    *,
    guards: Optional[GuardConfig] = None,
    engine: str = "tree",
    space_spec: Optional[SpaceSpec] = None,
    state_budget: Optional[int] = None,
) -> ExactArrowReport:
    """Exact check of ``statement`` over an adversary family.

    Exponential in ``max_steps`` in the worst case under the tree
    engine; intended for short horizons (the per-phase arrows of the
    Lehmann-Rabin proof) and for small explicit automata in tests.  The
    batched engine shares subtrees through the interned space, so it
    handles far deeper horizons at the same exact answers.  ``guards``
    reroutes adversary validation through the contracts layer; with the
    default ``None`` the historical ``checked_choose`` behaviour is
    kept.  ``engine``/``space_spec``/``state_budget`` select and
    configure the evaluation strategy (see ``docs/statespace.md``).
    """
    if not adversaries:
        raise VerificationError("no adversaries supplied")
    if not start_states:
        raise VerificationError("no start states supplied")
    for start in start_states:
        if not statement.source.contains(start):
            raise VerificationError(
                f"start state {start!r} is not in the statement's "
                f"source set {statement.source.name!r}"
            )
    engine_obj = build_engine(
        automaton,
        tuple(adversaries),
        tuple(start_states),
        statement.target.contains,
        time_of,
        statement.time_bound,
        max_steps,
        engine=engine,
        spec=space_spec,
        state_budget=state_budget,
        guards=guards,
    )
    checks: List[ExactPairCheck] = []
    with obs.span(
        "verify.exact_arrow_check",
        statement=repr(statement),
        adversaries=len(adversaries),
        starts=len(start_states),
    ):
        for adversary_index, (name, _) in enumerate(adversaries):
            for start_index, start in enumerate(start_states):
                bounds = engine_obj.exact_reach(
                    adversary_index, start_index, max_steps
                )
                checks.append(ExactPairCheck(name, start, bounds))
                obs.incr("verifier.exact_pairs")
    return ExactArrowReport(statement=statement, checks=tuple(checks))


@dataclass(frozen=True)
class StartTimeCount:
    """Per-start sample accounting for a time-to-target measurement."""

    start_state: object
    samples: int
    reached: int

    def to_dict(self) -> dict:
        """A stable, JSON-ready summary of this start's share."""
        return {
            "start_state": repr(self.start_state),
            "samples": self.samples,
            "reached": self.reached,
            "unreached": self.samples - self.reached,
        }


@dataclass(frozen=True)
class TimeToTargetReport:
    """Sampled time-to-target statistics for one adversary."""

    adversary_name: str
    times: Tuple[Fraction, ...]
    unreached: int
    per_start: Tuple[StartTimeCount, ...] = field(default=())
    #: Starts a strict-guard run skipped; their replicates are excluded
    #: from ``times``/``unreached`` and from the per-start table.
    quarantined: Tuple[QuarantinedPair, ...] = field(default=())

    @property
    def mean(self) -> float:
        """Mean time over the samples that did reach the target."""
        if not self.times:
            raise VerificationError("no sample reached the target")
        return float(sum(self.times) / len(self.times))

    @property
    def maximum(self) -> Fraction:
        """The slowest observed time-to-target."""
        if not self.times:
            raise VerificationError("no sample reached the target")
        return max(self.times)

    def to_dict(self) -> dict:
        """A stable, JSON-ready summary for sinks and report writers."""
        reached = len(self.times)
        return {
            "kind": "time_to_target",
            "adversary": self.adversary_name,
            "samples": reached + self.unreached,
            "reached": reached,
            "unreached": self.unreached,
            "mean": self.mean if self.times else None,
            "max": float(self.maximum) if self.times else None,
            "per_start": [count.to_dict() for count in self.per_start],
            "quarantined": quarantined_rows(self.quarantined),
        }


def measure_time_to_target(
    automaton: ProbabilisticAutomaton[State],
    adversary_name: str,
    adversary: Adversary[State],
    start_states: Sequence[State],
    target: Callable[[State], bool],
    time_of: Callable[[State], Fraction],
    rng: Optional[random.Random] = None,
    samples: int = 200,
    max_steps: int = 20_000,
    *,
    seed: Optional[int] = None,
    workers: int = 1,
    policy: Optional[RunPolicy] = None,
    schema: Optional[AdversarySchema] = None,
    guards: Optional[GuardConfig] = None,
    engine: str = "tree",
    space_spec: Optional[SpaceSpec] = None,
    state_budget: Optional[int] = None,
) -> TimeToTargetReport:
    """Sample the time until ``target`` holds, for expected-time claims.

    Every start state receives the *same* number of runs —
    ``ceil(samples / len(start_states))`` — so no start is silently
    over-weighted in the mean when ``samples`` is not a multiple of the
    start count (``samples`` is a floor on the total; the per-start
    share is reported in ``to_dict()['per_start']``).  Each start
    samples from its own derived stream, so reports are bit-identical
    for any ``workers`` count.

    Runs that never reach the target within the step budget are counted
    in ``unreached`` and excluded from the mean — report both; a nonzero
    ``unreached`` under a Unit-Time adversary signals either a too-small
    budget or a genuine liveness problem.
    """
    if samples <= 0:
        raise VerificationError("samples must be positive")
    if not start_states:
        raise VerificationError("no start states supplied")
    guard_config = guards if guards is not None else contracts.active()
    guard_config.validate()
    root_seed = resolve_root_seed(rng, seed)
    samples_per_start = math.ceil(samples / len(start_states))
    occurrences = occurrence_indices(
        [repr(start) for start in start_states]
    )
    tasks = [
        TimeStartTask(
            index=index,
            start_index=index,
            seed=derive_seed(
                root_seed, adversary_name, repr(start), occurrence
            ),
        )
        for index, (start, occurrence) in enumerate(
            zip(start_states, occurrences)
        )
    ]
    engine_obj = build_engine(
        automaton,
        ((adversary_name, adversary),),
        tuple(start_states),
        target,
        time_of,
        None,
        max_steps,
        engine=engine,
        spec=space_spec,
        state_budget=state_budget,
        guards=guard_config,
    )
    context = TimeStartContext(
        automaton=automaton,
        adversary=adversary,
        start_states=tuple(start_states),
        target=target,
        time_of=time_of,
        samples_per_start=samples_per_start,
        max_steps=max_steps,
        adversary_name=adversary_name,
        schema=schema,
        guards=guard_config,
        engine=engine_obj,
    )
    total = samples_per_start * len(start_states)
    scope = (
        f"time|{adversary_name}|sps={samples_per_start}|steps={max_steps}"
    ) + guard_scope_suffix(guard_config)
    with obs.span(
        "verify.time_to_target", adversary=adversary_name, samples=total,
        workers=workers,
    ) as span:
        outcomes = run_tasks(
            execute_time_start, context, tasks, workers,
            policy=policy, scope=scope,
            encode=encode_time_outcome, decode=decode_time_outcome,
        )
        times: List[Fraction] = []
        per_start: List[StartTimeCount] = []
        quarantined: List[QuarantinedPair] = []
        unreached = 0
        for start, outcome in zip(start_states, outcomes):
            if outcome.violation is not None:
                quarantined.append(
                    quarantine_from_violation(
                        adversary_name, start, outcome.violation
                    )
                )
                continue
            times.extend(outcome.times)
            unreached += outcome.unreached
            per_start.append(
                StartTimeCount(
                    start_state=start,
                    samples=samples_per_start,
                    reached=len(outcome.times),
                )
            )
        report = TimeToTargetReport(
            adversary_name=adversary_name, times=tuple(times),
            unreached=unreached, per_start=tuple(per_start),
            quarantined=tuple(quarantined),
        )
        span.annotate(
            unreached=unreached,
            mean=report.mean if times else None,
            quarantined=len(quarantined),
        )
    return report

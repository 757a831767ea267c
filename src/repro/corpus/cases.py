"""The tiny model, its mutations, and the case shapes the corpus replays.

Every known-bad model in the defect corpus is built from the same
three-state automaton (``a --go--> {b: 1/2, c: 1/2}; b --go--> c;
c --stop--> c``) that the contracts mutation matrix has always used:
small enough that a full engines x guards x workers replay costs
milliseconds, rich enough to exercise a probabilistic branch, a
deterministic step, and a self-loop.  The builders here are the single
source of truth — ``tests/test_contracts.py`` imports them instead of
carrying its own copies, and :mod:`repro.corpus.registry` wires them
into declarative corpus entries.

Two case shapes exist:

* :class:`CheckCase` — everything :func:`check_arrow_by_sampling`
  needs for one full differential replay (model, adversary family,
  statement, sampling plan, optional fault-injection policy);
* :class:`ServiceCase` — a job-service failure scenario replayed
  in-process with injected clocks and hand-written log damage, so the
  service error taxonomy (lease expiry, store corruption, crash
  loops) is pinned by the corpus like every other defect class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Tuple

from repro.adversary.base import AdversarySchema, FunctionAdversary, ShiftedAdversary
from repro.adversary.deterministic import FirstEnabledAdversary
from repro.automaton.automaton import ExplicitAutomaton, ProbabilisticAutomaton
from repro.automaton.signature import ActionSignature
from repro.automaton.transition import Transition
from repro.probability.space import FiniteDistribution
from repro.proofs.statements import ArrowStatement, StateClass
from repro.statespace.compile import SpaceSpec


def zero_time(state) -> Fraction:
    """The untimed clock: every state reads time zero."""
    return Fraction(0)


def tiny_signature() -> ActionSignature:
    return ActionSignature(internal=frozenset({"go", "stop"}))


def smuggled_distribution(weights) -> FiniteDistribution:
    """A duck-typed ``FiniteDistribution`` bypassing the constructor.

    This is how a broken model reaches the hot path in practice: the
    constructor validates Definition 2.1, so the mutation enters via a
    mutated or hand-rolled object.
    """
    dist = FiniteDistribution.__new__(FiniteDistribution)
    dist._weights = {point: Fraction(raw) for point, raw in weights.items()}
    dist._hash = None
    return dist


def tiny_automaton(first_target=None) -> ExplicitAutomaton:
    """``a --go--> {b: 1/2, c: 1/2};  b --go--> c;  c --stop--> c``."""
    if first_target is None:
        first_target = FiniteDistribution(
            {"b": Fraction(1, 2), "c": Fraction(1, 2)}
        )
    steps = [
        Transition("a", "go", first_target),
        Transition("b", "go", FiniteDistribution.dirac("c")),
        Transition("c", "stop", FiniteDistribution.dirac("c")),
    ]
    return ExplicitAutomaton(
        states=["a", "b", "c"],
        start_states=["a"],
        signature=tiny_signature(),
        steps=steps,
    )


def broken_automaton() -> ExplicitAutomaton:
    """The ``a --go-->`` target sums to 99/100: a Definition 2.1 breach."""
    return tiny_automaton(
        smuggled_distribution({"b": Fraction(49, 100), "c": Fraction(1, 2)})
    )


class _SkimmedAutomaton(ProbabilisticAutomaton):
    """A proxy skimming 1/100 off every probabilistic branch.

    Wraps any automaton — including the registry models' functional,
    lazily-expanded ones — and rewrites each multi-support transition
    target through :func:`smuggled_distribution`, shaving ``1/100`` off
    the first weight so the target sums to ``99/100``.  A pure
    function of the wrapped automaton's transition order, so every
    engine and worker sees the identical mutation.
    """

    def __init__(self, inner):
        self._inner = inner

    @property
    def start_states(self):
        return self._inner.start_states

    @property
    def signature(self):
        return self._inner.signature

    def transitions(self, state):
        out = []
        for step in self._inner.transitions(state):
            if len(step.target.support) > 1:
                weights = dict(step.target.items())
                first = next(iter(weights))
                weights[first] = weights[first] - Fraction(1, 100)
                out.append(
                    Transition(
                        step.source,
                        step.action,
                        smuggled_distribution(weights),
                    )
                )
            else:
                out.append(step)
        return tuple(out)


def skimmed_automaton(automaton) -> ProbabilisticAutomaton:
    """``automaton`` with every coin flip skimmed to sum 99/100."""
    return _SkimmedAutomaton(automaton)


def unknown_model_case() -> "CheckCase":
    """``--model`` resolution failure as a corpus defect.

    The builder resolves a name no model registered, so
    :class:`~repro.errors.UnknownModelError` escapes before any
    sampling starts — pinning that registry failures classify as usage
    errors identically under every engine and guard mode.
    """

    def automaton_factory():
        from repro.models import get_model

        return get_model("no-such-model").build(3).automaton

    return CheckCase(
        automaton_factory=automaton_factory,
        adversaries_factory=first_enabled_family,
    )


def herman_case() -> "CheckCase":
    """Herman's ring (n=3) via the registry, from its canonical starts.

    The automaton, adversary family (its fifo adversary), clock, and
    compile quotient all come from ``get_model("herman")``.
    """
    from repro.models import get_model

    model = get_model("herman")
    canonical = model.canonical_states(3)
    statement = ArrowStatement(
        StateClass("HermanStart", lambda s: True),
        StateClass("HermanTarget", model.target),
        0,
        Fraction(0),
        "herman",
    )
    return CheckCase(
        automaton_factory=lambda: model.build(3).automaton,
        adversaries_factory=lambda: model.build(3).adversaries[:1],
        statement=statement,
        start_states=tuple(
            canonical[name] for name in sorted(canonical)
        ),
        time_of=model.time_of,
        samples=4,
        max_steps=12,
        space_spec=model.build(3).space_spec(),
    )


def herman_skimmed_case() -> "CheckCase":
    """Herman's ring (n=3) with skimmed coin flips, via the registry.

    The first registered model defect that is not hand-built: the
    mutation is the generic distribution skim — the Definition 2.1
    guards must fire for a registered model exactly as they do for the
    tiny model.
    """
    case = herman_case()
    return replace(
        case,
        automaton_factory=lambda: skimmed_automaton(case.automaton_factory()),
    )


def rogue_adversary() -> FunctionAdversary:
    """Schedules a fabricated ``stop`` step everywhere: a Definition 2.2
    breach from ``a`` and ``b``, where ``stop`` is not enabled."""
    return FunctionAdversary(
        lambda automaton, fragment: Transition(
            fragment.lstate, "stop", FiniteDistribution.dirac("c")
        ),
        name="rogue",
    )


def _raise_inside_task(automaton, fragment):
    raise RuntimeError("injected adversary bug (corpus raising-adversary)")


def raising_adversary() -> FunctionAdversary:
    """An adversary whose ``choose`` raises a non-library error.

    In a pooled run the worker dies deterministically and the parent
    surfaces :class:`~repro.errors.TaskExecutionError`; inline the raw
    ``RuntimeError`` propagates instead, so corpus entries built on
    this adversary constrain themselves to pooled worker counts.
    """
    return FunctionAdversary(_raise_inside_task, name="raiser")


def liar_schema() -> AdversarySchema:
    """Claims execution closure but rejects every shifted member."""
    return AdversarySchema(
        name="tiny-liar",
        contains=lambda adv: not isinstance(adv, ShiftedAdversary),
        execution_closed=True,
    )


A_CLASS = StateClass("A", lambda s: s == "a")
C_CLASS = StateClass("C", lambda s: s == "c")
NEVER_CLASS = StateClass("Never", lambda s: False)

TINY_STATEMENT = ArrowStatement(A_CLASS, C_CLASS, 0, Fraction(1, 4), "tiny")
NEVER_STATEMENT = ArrowStatement(A_CLASS, NEVER_CLASS, 0, 0, "tiny")


@dataclass(frozen=True)
class CheckCase:
    """One full arrow-check replay: model, family, and sampling plan.

    ``policy_factory`` builds a *fresh* :class:`RunPolicy` per matrix
    cell (policies can carry stateful checkpoints) and ``fuel_steps``
    is applied only in the checking guard modes — ``off`` forbids fuel
    by construction.
    """

    automaton_factory: Callable[[], object]
    adversaries_factory: Callable[[], Tuple[Tuple[str, object], ...]]
    statement: ArrowStatement = TINY_STATEMENT
    start_states: Tuple[object, ...] = ("a",)
    schema_factory: Optional[Callable[[], AdversarySchema]] = None
    time_of: Callable[[object], Fraction] = zero_time
    samples: int = 8
    max_steps: int = 24
    seed: int = 11
    fuel_steps: Optional[int] = None
    space_spec: Optional[SpaceSpec] = None
    state_budget: Optional[int] = None
    policy_factory: Optional[Callable[[], object]] = None


@dataclass(frozen=True)
class ServiceCase:
    """A deterministic job-service failure scenario.

    ``run`` either returns a small report dict (the "nothing went
    wrong" outcome — a corpus mismatch for these entries) or raises
    the :class:`~repro.errors.ServiceError` subclass the entry
    declares.  Scenarios use injected clocks and scripted log damage,
    never real time or real worker processes, so every replay is
    exact.
    """

    run: Callable[[], dict]


def _service_spec() -> object:
    """A hand-built job spec: the corpus layer never imports the CLI."""
    from repro.service.jobs import JobSpec

    return JobSpec(
        argv=("check", "--prop", "A.14"),
        command="check",
        scope="0" * 64,
    )


def lease_expiry_case() -> ServiceCase:
    """A worker heartbeats after its lease expired and was taken over.

    The clock is injected: worker ``w1`` claims with a 10-second
    lease, the clock jumps past expiry, ``w2``'s claim takes the job
    over, and ``w1``'s next heartbeat must raise
    :class:`~repro.errors.LeaseExpiredError` — reviving the lost lease
    could hand one job's completion to two workers.
    """

    def run() -> dict:
        import shutil
        import tempfile

        from repro.service.store import JobStore

        clock = {"now": 0.0}
        root = tempfile.mkdtemp(prefix="repro-corpus-service-")
        try:
            store = JobStore(root, clock=lambda: clock["now"])
            store.submit(_service_spec())
            claimed = store.claim("w1", lease_seconds=10.0)
            clock["now"] = 20.0
            store.claim("w2", lease_seconds=10.0)  # the takeover
            store.heartbeat(claimed.job_id, "w1", 10.0)
            return {"kind": "service", "outcome": "lease revived"}
        finally:
            shutil.rmtree(root, ignore_errors=True)

    return ServiceCase(run=run)


def store_corruption_case() -> ServiceCase:
    """A decodable record of an unknown event kind poisons the log.

    A torn *tail* is crash damage and tolerated; a whole, decodable
    line no correct writer produces is
    :class:`~repro.errors.JobStoreCorruptionError` — folding around it
    could hand one job to two workers.
    """

    def run() -> dict:
        import os
        import shutil
        import tempfile

        from repro import durable_io
        from repro.service.store import STORE_FILE, JobStore

        root = tempfile.mkdtemp(prefix="repro-corpus-service-")
        try:
            durable_io.append_json_line(
                os.path.join(root, STORE_FILE),
                {"event": "gossip", "job": "0001-feedface", "at": 0.0},
            )
            JobStore(root).jobs()
            return {"kind": "service", "outcome": "corruption ignored"}
        finally:
            shutil.rmtree(root, ignore_errors=True)

    return ServiceCase(run=run)


def crash_loop_case() -> ServiceCase:
    """Three young unclean worker deaths in a row trip the detector.

    Pure policy replay — no processes: with ``max_restarts=2``, the
    third consecutive sub-``healthy_seconds`` crash must raise
    :class:`~repro.errors.SupervisorCrashLoopError` instead of burning
    restarts forever against a poisoned job.
    """

    def run() -> dict:
        from repro.service.supervisor import CrashLoopDetector

        detector = CrashLoopDetector(max_restarts=2, healthy_seconds=5.0)
        for _ in range(3):
            detector.record_exit(0, lifetime=0.01, clean=False)
        return {"kind": "service", "outcome": "crash loop tolerated"}

    return ServiceCase(run=run)


def first_enabled_family() -> Tuple[Tuple[str, object], ...]:
    return (("first", FirstEnabledAdversary()),)


def two_pair_family() -> Tuple[Tuple[str, object], ...]:
    """Two healthy pairs: pooled runs get >= 2 tasks, so injected
    worker faults actually fire (single-task runs execute inline)."""
    return (
        ("first", FirstEnabledAdversary()),
        ("second", FirstEnabledAdversary()),
    )


def rogue_family() -> Tuple[Tuple[str, object], ...]:
    return (("rogue", rogue_adversary()),)


def raising_family() -> Tuple[Tuple[str, object], ...]:
    return (
        ("first", FirstEnabledAdversary()),
        ("raiser", raising_adversary()),
    )


# Keep dataclass field import exercised for frozen defaults.
_ = field

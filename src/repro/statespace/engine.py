"""The ``Engine`` protocol: one evaluation strategy per check.

Every verification command evaluates (adversary, start) pairs through
one of three operations — Monte-Carlo ``sample``, exact ``exact_reach``,
or ``time_to_target`` — and an :class:`Engine` bundles one strategy for
all three:

* :class:`TreeEngine` walks the live object graph exactly as the
  library always has (fragments, memoised transitions, policy replay),
  growing a fresh fragment per sample.  It is the reference oracle, and
  the engine of ``--fuel`` and of exact trees of adversaries that did
  not tabulate.
* :class:`BatchedEngine` samples every pair through its history walk:
  the pair's execution automaton H(M, A, s) as a tree of fragments
  grown on demand, asking the adversary once per fragment and reusing
  every fragment an earlier sample reached.  Its exact values read the
  interned tables of :mod:`repro.statespace.compile` /
  :mod:`repro.statespace.product`, tabulated per adversary on demand.

Both walks consume the *identical* randomness per sample — one uniform
draw per step, resolved against float partial sums accumulated exactly
as ``FiniteDistribution.sample`` accumulates them — so reports are
byte-identical whichever engine ran, for every seed, guard mode, and
worker count.  The factory :func:`build_engine` implements the
``--engine {tree,batched,auto}`` selection rules: ``batched``
propagates :class:`~repro.errors.StateBudgetExceeded`, ``auto`` prefers
the batched engine and silently falls back to the tree walk when the
budget is blown.
"""

from __future__ import annotations

import abc
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.contracts import OFF_CONFIG, GuardConfig
from repro.contracts.guards import check_chosen_step
from repro.errors import StateBudgetExceeded, VerificationError
from repro.events.reach import EventuallyReach, ReachWithinTime
from repro.events.schema import EventSchema, EventStatus
from repro.execution import sampler
from repro.execution.automaton import ExecutionAutomaton
from repro.execution.measure import EventBounds, event_probability_bounds
from repro.execution.sampler import SampleResult
from repro.probability.space import as_fraction
from repro.statespace.compile import (
    DEFAULT_STATE_BUDGET,
    IDENTITY_SPEC,
    CompiledSpace,
    SpaceSpec,
    compile_space,
)
from repro.statespace.product import AdversaryTable, compile_adversary

#: Engine names accepted by ``--engine``.
ENGINE_NAMES = ("tree", "batched", "auto")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def resolve_engine_name(engine: str) -> str:
    """Validate an ``--engine`` value, returning it unchanged."""
    if engine not in ENGINE_NAMES:
        raise VerificationError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    return engine


def resolve_state_budget(state_budget: Optional[int]) -> Optional[int]:
    """Validate a ``--state-budget`` value (``None`` = the default)."""
    if state_budget is not None and state_budget < 1:
        raise VerificationError(
            f"state budget must be >= 1, got {state_budget}"
        )
    return state_budget


class Engine(abc.ABC):
    """One bound evaluation strategy for a fixed check.

    An engine is constructed for a specific (automaton, adversaries,
    start states, target) tuple, which it exposes as ``automaton``,
    ``adversaries`` (``(name, adversary)`` pairs) and ``start_states``;
    the three operations below index into those sequences.  An engine
    samples each pair through one walk: ``sample`` reads its verdict,
    and ``time_to_target`` runs it under plain reachability and reads
    the elapsed time at its first hit.  Engines ride the fork-inherited
    task contexts of :mod:`repro.parallel.backend`, so pooled workers
    inherit the parent's engine.
    """

    #: Short strategy label ("tree" / "batched").
    name: str = ""

    @abc.abstractmethod
    def sample(
        self, adversary_index: int, start_index: int, rng
    ) -> SampleResult:
        """One Monte-Carlo sample of the pair's reach-within-time event."""

    @abc.abstractmethod
    def time_to_target(
        self, adversary_index: int, start_index: int, rng
    ) -> Optional[Fraction]:
        """One sampled elapsed time until the target (None = unreached)."""

    @abc.abstractmethod
    def exact_reach(
        self, adversary_index: int, start_index: int, max_steps: int
    ) -> EventBounds:
        """Exact bounds on the pair's event probability."""


class TreeEngine(Engine):
    """The historical evaluation strategy: walk the live object graph."""

    name = "tree"

    def __init__(
        self,
        automaton: ProbabilisticAutomaton,
        adversaries: Tuple[Tuple[str, object], ...],
        start_states: Tuple[object, ...],
        target: Callable[[object], bool],
        time_of: Callable[[object], Fraction],
        time_bound: object,
        max_steps: int,
        guards: Optional[GuardConfig] = OFF_CONFIG,
    ):
        self.automaton = automaton
        self.adversaries = adversaries
        self.start_states = start_states
        self.target = target
        self.time_of = time_of
        self.time_bound = time_bound
        self.max_steps = max_steps
        self.guards = guards
        # Bound-free checks use plain reachability: ``EventuallyReach``
        # accepts as soon as the target occurs, never rejects on time,
        # and ``decide_maximal`` rejects halted executions — exactly the
        # behaviour of the batched walk when its bound is ``None``.
        self._schema = (
            EventuallyReach(target)
            if time_bound is None
            else ReachWithinTime(
                target=target, time_bound=time_bound, time_of=time_of
            )
        )

    def sample(
        self, adversary_index: int, start_index: int, rng
    ) -> SampleResult:
        _, adversary = self.adversaries[adversary_index]
        fragment = ExecutionFragment.initial(self.start_states[start_index])
        return sampler.sample_event(
            self.automaton,
            adversary,
            fragment,
            self._schema,
            rng,
            self.max_steps,
            guards=self.guards,
        )

    def time_to_target(
        self, adversary_index: int, start_index: int, rng
    ) -> Optional[Fraction]:
        _, adversary = self.adversaries[adversary_index]
        fragment = ExecutionFragment.initial(self.start_states[start_index])
        return sampler.sample_time_until(
            self.automaton,
            adversary,
            fragment,
            self.target,
            self.time_of,
            rng,
            self.max_steps,
            guards=self.guards,
        )

    def exact_reach(
        self, adversary_index: int, start_index: int, max_steps: int
    ) -> EventBounds:
        _, adversary = self.adversaries[adversary_index]
        fragment = ExecutionFragment.initial(self.start_states[start_index])
        execution = ExecutionAutomaton(
            self.automaton, adversary, fragment, guards=self.guards
        )
        return event_probability_bounds(execution, self._schema, max_steps)


#: A history node's ``chosen`` until the adversary is first asked there.
_UNASKED = object()


class _HistoryNode:
    """One fragment of H(M, A, s), as a sample first reached it.

    ``status`` is the schema's classification of ``fragment``.  At the
    first decision here the node keeps the adversary's ``chosen`` step
    (``None``: it halts), the step's outcomes ``points`` and their float
    partial sums ``cum``; ``children[i]`` is the node outcome ``i``
    leads to, created when a sample first draws it.
    """

    __slots__ = ("fragment", "status", "chosen", "points", "cum", "children")

    def __init__(self, fragment: ExecutionFragment, status: EventStatus):
        self.fragment = fragment
        self.status = status
        self.chosen = _UNASKED
        self.points: Tuple[object, ...] = ()
        self.cum: Tuple[float, ...] = ()
        self.children: List[Optional[_HistoryNode]] = []

    def settle(self, chosen) -> None:
        """Keep the adversary's decision and its target's partial sums.

        The sums accumulate left to right over the target's items, as
        ``FiniteDistribution.sample`` accumulates them; an empty target
        keeps one ``None`` outcome, which is what its ``sample`` returns.
        """
        if chosen is not None:
            points: List[object] = []
            cum: List[float] = []
            running = 0.0
            for point, weight in chosen.target.items():
                running += float(weight)
                points.append(point)
                cum.append(running)
            if not points:
                points.append(None)
                cum.append(running)
            self.points = tuple(points)
            self.cum = tuple(cum)
            self.children = [None] * len(points)
        self.chosen = chosen


class _HistoryTree:
    """One pair's execution automaton under one schema, grown on demand.

    The memoised form of :func:`repro.execution.sampler._walk`: a
    sample descends from the root drawing one uniform per step, and
    only a fragment no earlier sample reached costs an ``extend``, a
    ``classify_step`` and, at its first decision, an adversary
    ``choose`` and ``check_chosen_step``.  Adversaries are deterministic
    (Definition 2.2), so a fragment's decision never changes.
    """

    __slots__ = (
        "key", "automaton", "adversary", "name", "schema", "config",
        "max_steps", "root",
    )

    def __init__(
        self,
        key: tuple,
        automaton: ProbabilisticAutomaton,
        adversary,
        start: object,
        schema: EventSchema,
        guards: Optional[GuardConfig],
        max_steps: int,
    ):
        self.key = key
        self.automaton = automaton
        self.adversary = adversary
        self.name = getattr(adversary, "name", "")
        self.schema = schema
        self.config = guards if guards is not None else OFF_CONFIG
        self.max_steps = max_steps
        fragment = ExecutionFragment.initial(start)
        self.root = _HistoryNode(fragment, schema.classify(fragment))

    def walk(self, rng) -> SampleResult:
        """One sample, decided in the tree walk's order per step.

        Classify, horizon, adversary decision, guard check, one draw,
        with the ``adversary.*`` totals the tree walk records (also up
        to a raise).
        """
        automaton = self.automaton
        adversary = self.adversary
        schema = self.schema
        config = self.config
        checking = config.checking
        max_steps = self.max_steps
        random = rng.random
        accept = EventStatus.ACCEPT
        reject = EventStatus.REJECT
        node = self.root
        steps_taken = 0
        decisions = 0
        halts = 0
        try:
            while True:
                status = node.status
                if status is accept:
                    return SampleResult(True, steps_taken, node.fragment)
                if status is reject:
                    return SampleResult(False, steps_taken, node.fragment)
                if steps_taken == max_steps:
                    return SampleResult(None, steps_taken, node.fragment)
                chosen = node.chosen
                if chosen is _UNASKED:
                    chosen = adversary.choose(automaton, node.fragment)
                    decisions += 1
                    if checking and chosen is not None:
                        check_chosen_step(
                            config, automaton, node.fragment, chosen, self.name
                        )
                    node.settle(chosen)
                else:
                    decisions += 1
                if chosen is None:
                    halts += 1
                    return SampleResult(
                        schema.decide_maximal(node.fragment),
                        steps_taken,
                        node.fragment,
                    )
                threshold = random()
                cum = node.cum
                lo = 0
                index = len(cum) - 1
                while lo < index:
                    if threshold < cum[lo]:
                        index = lo
                        break
                    lo += 1
                child = node.children[index]
                if child is None:
                    fragment = node.fragment.extend(
                        chosen.action, node.points[index]
                    )
                    child = node.children[index] = _HistoryNode(
                        fragment, schema.classify_step(fragment)
                    )
                node = child
                steps_taken += 1
        finally:
            if decisions and obs.enabled():
                obs.incr("adversary.decisions", decisions)
                if halts:
                    obs.incr("adversary.halts", halts)


class BatchedEngine(Engine):
    """Samples every pair through its memoised execution automaton.

    ``sample`` and ``time_to_target`` walk a :class:`_HistoryTree` of
    the running pair, H(M, A, s) as a tree of fragments grown on
    demand, which draws straight from the pair's ``random.Random``, one
    uniform per step.  Every consumed uniform is exactly the float
    :mod:`repro.execution.sampler` would have drawn at that point, so
    verdicts, step counts, elapsed times and metric totals are
    byte-identical to :class:`TreeEngine`.  Only the running pair's
    tree is held; forked workers grow their own.

    ``exact_reach`` runs a dynamic programme over the adversary's
    product table, which its first call for that adversary tabulates
    over ``space`` under ``budget``.  An adversary that does not
    tabulate (history-dependent, such as the coin-peeking ``hashed-*``
    ones) takes the embedded ``tree`` engine's exact walk, as does,
    under ``auto`` (``fallback``), one whose table blows the budget.
    """

    name = "batched"

    def __init__(
        self,
        tree: TreeEngine,
        space: CompiledSpace,
        budget: int,
        fallback: bool,
    ):
        self.tree = tree
        self.automaton = tree.automaton
        self.adversaries = tree.adversaries
        self.start_states = tree.start_states
        self.space = space
        self.budget = budget
        self.fallback = fallback
        self._bound = (
            None
            if tree.time_bound is None
            else as_fraction(tree.time_bound)
        )
        # Time-to-target reads the walk under plain reachability.
        self._reach = EventuallyReach(tree.target)
        self._history: Optional[_HistoryTree] = None
        self._tables: Dict[int, Optional[AdversaryTable]] = {}
        self._flags: List[bool] = []

    def _history_for(
        self, schema: EventSchema, adversary_index: int, start_index: int
    ) -> _HistoryTree:
        """The pair's history tree under ``schema``, kept between samples."""
        key = (schema, adversary_index, start_index)
        tree = self._history
        if tree is not None and tree.key == key:
            return tree
        # Drop the last pair's tree first, so at most one is held.
        self._history = None
        if self.tree.max_steps < 0:
            raise VerificationError("max_steps must be nonnegative")
        tree = self._history = _HistoryTree(
            key,
            self.automaton,
            self.adversaries[adversary_index][1],
            self.start_states[start_index],
            schema,
            self.tree.guards,
            self.tree.max_steps,
        )
        return tree

    def sample(
        self, adversary_index: int, start_index: int, rng
    ) -> SampleResult:
        result = self._history_for(
            self.tree._schema, adversary_index, start_index
        ).walk(rng)
        if obs.enabled():
            sampler._record_event_sample(result)
        return result

    def time_to_target(
        self, adversary_index: int, start_index: int, rng
    ) -> Optional[Fraction]:
        walked = self._history_for(
            self._reach, adversary_index, start_index
        ).walk(rng)
        time_of = self.tree.time_of
        result = (
            time_of(walked.final.lstate)
            - time_of(self.start_states[start_index])
            if walked.verdict
            else None
        )
        if obs.enabled():
            sampler._record_time_sample(result, walked.steps)
        return result

    def _table_for(self, adversary_index: int) -> Optional[AdversaryTable]:
        """The adversary's product table, tabulated on first use.

        ``None`` sends the adversary to the tree's exact walk: it does
        not tabulate, or, under ``auto``, its table blew the budget.
        """
        if adversary_index in self._tables:
            return self._tables[adversary_index]
        _, adversary = self.adversaries[adversary_index]
        try:
            table = compile_adversary(
                self.space, adversary, self.start_states,
                max_nodes=self.budget,
            )
        except StateBudgetExceeded:
            if not self.fallback:
                raise
            table = None
        if table is not None:
            self._flags = self.space.flags(self.tree.target)
        self._tables[adversary_index] = table
        return table

    def exact_reach(
        self, adversary_index: int, start_index: int, max_steps: int
    ) -> EventBounds:
        table = self._table_for(adversary_index)
        if table is None:
            return self.tree.exact_reach(adversary_index, start_index, max_steps)
        if max_steps < 0:
            raise VerificationError("max_steps must be nonnegative")
        accepted, undecided = self._exact_table(
            table, table.start_nodes[start_index], max_steps
        )
        if obs.enabled():
            obs.incr("measure.evaluations")
        return EventBounds(lower=accepted, upper=accepted + undecided)

    def _exact_table(
        self, table: AdversaryTable, root: int, max_steps: int
    ) -> Tuple[Fraction, Fraction]:
        """(accepted, undecided) masses, mirroring the exact tree walk.

        Dynamic programming over (node, elapsed, remaining) with exact
        ``Fraction`` arithmetic on the table; rational addition is
        associative, so factoring shared subtrees leaves both masses
        exactly equal to the per-path sums
        :func:`event_probability_bounds` computes.  The decision order
        per node mirrors the tree walk: classify (time-reject before
        target-accept), then adversary halt, then horizon.
        """
        bound = self._bound
        flags = self._flags
        node_state = table.node_state
        choice_targets = table.choice_targets
        choice_weights = table.choice_weights
        choice_deltas = table.choice_deltas
        memo = {}
        stack = [(root, _ZERO, max_steps)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            node, elapsed, remaining = key
            if bound is not None and elapsed > bound:
                memo[key] = (_ZERO, _ZERO)
                stack.pop()
                continue
            if flags[node_state[node]]:
                memo[key] = (_ONE, _ZERO)
                stack.pop()
                continue
            targets = choice_targets[node]
            if targets is None:
                # Maximal execution; decide_maximal rejects.
                memo[key] = (_ZERO, _ZERO)
                stack.pop()
                continue
            if remaining == 0:
                memo[key] = (_ZERO, _ONE)
                stack.pop()
                continue
            deltas = choice_deltas[node]
            children = [
                (targets[i], elapsed + deltas[i], remaining - 1)
                for i in range(len(targets))
            ]
            missing = [child for child in children if child not in memo]
            if missing:
                stack.extend(missing)
                continue
            accepted = _ZERO
            undecided = _ZERO
            for weight, child in zip(choice_weights[node], children):
                child_accepted, child_undecided = memo[child]
                accepted += weight * child_accepted
                undecided += weight * child_undecided
            memo[key] = (accepted, undecided)
            stack.pop()
        return memo[(root, _ZERO, max_steps)]


def build_engine(
    automaton: ProbabilisticAutomaton,
    adversaries: Sequence[Tuple[str, object]],
    start_states: Sequence[object],
    target: Callable[[object], bool],
    time_of: Callable[[object], Fraction],
    time_bound: object,
    max_steps: int,
    *,
    engine: str = "tree",
    spec: Optional[SpaceSpec] = None,
    state_budget: Optional[int] = None,
    guards: Optional[GuardConfig] = OFF_CONFIG,
) -> Engine:
    """Build the engine requested by ``--engine`` for one check.

    Selection rules:

    * ``tree`` — always the tree walk.
    * ``batched`` — the history walk: the check's starts are interned
      into a fresh space, and a blown state budget, there or in an
      exact table, propagates as :class:`StateBudgetExceeded`;
      ``--fuel`` is refused (fuel accounting belongs to the tree walk).
    * ``auto`` — as ``batched``, but a blown budget or ``--fuel``
      silently selects the tree walk instead.

    Sampling tabulates nothing: the space holds the starts until an
    exact value tabulates an adversary's product into it
    (:meth:`BatchedEngine.exact_reach`).  A strict-mode
    :class:`ContractViolation` is detected per pair by the history
    walk and quarantined exactly as the tree walk does, keeping
    strict-mode reports byte-identical across engines even on broken
    models.
    """
    resolve_engine_name(engine)
    resolve_state_budget(state_budget)
    # ``guards=None`` keeps the historical checked_choose validation on
    # the exact tree path; for engine selection it behaves like OFF.
    config = guards if guards is not None else OFF_CONFIG
    tree = TreeEngine(
        automaton=automaton,
        adversaries=tuple(adversaries),
        start_states=tuple(start_states),
        target=target,
        time_of=time_of,
        time_bound=time_bound,
        max_steps=max_steps,
        guards=guards,
    )
    if engine == "tree":
        return tree
    if config.fuelled:
        if engine != "auto":
            raise VerificationError(
                f"--engine {engine} is incompatible with --fuel: fuel is "
                "accounted by the tree walk alone; use --engine tree"
            )
        return tree
    budget = DEFAULT_STATE_BUDGET if state_budget is None else state_budget
    try:
        with obs.span(
            "statespace.compile",
            engine=engine,
            budget=budget,
            adversaries=len(tree.adversaries),
        ):
            space = compile_space(
                automaton,
                tree.start_states,
                spec if spec is not None else IDENTITY_SPEC,
                max_states=budget,
                guards=guards,
            )
    except StateBudgetExceeded:
        if engine != "auto":
            raise
        return tree
    if obs.enabled():
        obs.gauge("statespace.states", space.n_states)
    return BatchedEngine(tree, space, budget, fallback=engine == "auto")

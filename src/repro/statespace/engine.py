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
* :class:`BatchedEngine` has two sampling walks.  The flat walk reads
  the interned tables of :mod:`repro.statespace.compile` /
  :mod:`repro.statespace.product` flattened into CSR parallel arrays
  (:mod:`repro.statespace.arrays`), drawing uniforms from
  ``rng.random()`` in blocks and fast-forwarding memoised deterministic
  runs.  The history walk serves the adversaries that could not be
  tabulated (history-dependent, e.g. coin-peeking, policies): it walks
  the pair's execution automaton H(M, A, s) as a tree of fragments
  grown on demand, asking the adversary once per fragment.

All walks consume the *identical* randomness per sample — one uniform
draw per step, resolved against float partial sums accumulated exactly
as ``FiniteDistribution.sample`` accumulates them; the flat walk merely
fetches those same floats ahead of time — so reports are byte-identical
whichever engine ran, for every seed, guard mode, and worker count.
The factory :func:`build_engine` implements the
``--engine {tree,batched,auto}`` selection rules: ``batched``
propagates :class:`~repro.errors.StateBudgetExceeded`, ``auto`` prefers
the batched engine and silently falls back to the tree walk when the
compile fails.
"""

from __future__ import annotations

import abc
import gc
import weakref
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.contracts import (
    OFF_CONFIG,
    GuardConfig,
    forget_validated_transitions,
)
from repro.contracts.guards import check_chosen_step
from repro.errors import StateBudgetExceeded, VerificationError
from repro.events.reach import EventuallyReach, ReachWithinTime
from repro.events.schema import EventSchema, EventStatus
from repro.execution import sampler
from repro.execution.automaton import ExecutionAutomaton
from repro.execution.measure import EventBounds, event_probability_bounds
from repro.execution.sampler import SampleResult
from repro.probability.space import as_fraction
from repro.statespace.arrays import FlatTable, UniformSource, flatten_table
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
    the elapsed time at its first hit.  Engines ride the fork-inherited task
    contexts of :mod:`repro.parallel.backend`, so pooled workers reuse
    the parent's compiled tables and never recompile.
    """

    #: Short strategy label ("tree" / "batched").
    name: str = ""

    @abc.abstractmethod
    def sample(
        self, adversary_index: int, start_index: int, rng
    ) -> SampleResult:
        """One Monte-Carlo sample of the pair's reach-within-time event.

        ``final`` is ``None`` when the engine never materialised the
        execution fragment (the batched flat walk).
        """

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
    """Flat-array evaluation drawing uniforms in blocks.

    The fast path: the per-adversary tables are flattened into the CSR
    parallel arrays of :mod:`repro.statespace.arrays`, uniforms are
    fetched block-at-a-time per sampling stream (one
    :class:`UniformSource` per ``random.Random``, keyed weakly and
    reading its stream through a weak proxy, so a finished stream frees
    its buffer; only the latest stream is held strongly), and memoised
    deterministic runs are fast-forwarded in O(1).  One walk,
    :meth:`_sample_flat`, serves both ``sample`` and
    ``time_to_target``.  Every consumed uniform is exactly the float
    :mod:`repro.execution.sampler` would have drawn at that point, so
    verdicts, step counts, elapsed times and metric totals are
    byte-identical to :class:`TreeEngine`.

    Adversaries that did not tabulate (``None`` in ``tables``) take the
    history walk instead: a :class:`_HistoryTree` of the running pair,
    which draws straight from the pair's ``random.Random``, one uniform
    per step.  Sources buffer *ahead* of the generator, which is safe
    because each stream is private to one task and every sample of a
    pair takes the same walk.  Only the running pair's tree is held,
    as only the latest stream's source is; forked workers grow their
    own.  ``exact_reach`` of an untabulated adversary still runs the
    embedded ``tree`` engine.
    """

    name = "batched"

    def __init__(
        self,
        tree: TreeEngine,
        tables: Tuple[Optional[AdversaryTable], ...],
        flags: List[bool],
    ):
        self.tree = tree
        self.automaton = tree.automaton
        self.adversaries = tree.adversaries
        self.start_states = tree.start_states
        self.tables = tables
        self.flags = flags
        self._bound = (
            None
            if tree.time_bound is None
            else as_fraction(tree.time_bound)
        )
        self.flat_tables: Tuple[Optional[FlatTable], ...] = tuple(
            flatten_table(table, flags) for table in tables
        )
        self._sources: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._last_rng = None
        self._last_source: Optional[UniformSource] = None
        # Per-table integer time-bound thresholds (see FlatTable
        # .scale_bound); index-aligned with flat_tables.
        self._ibounds: Tuple[Optional[int], ...] = tuple(
            None if flat is None else flat.scale_bound(self._bound)
            for flat in self.flat_tables
        )
        # Time-to-target reads the walk under plain reachability.
        self._reach = EventuallyReach(tree.target)
        self._history: Optional[_HistoryTree] = None

    @property
    def compiled_adversaries(self) -> int:
        """How many adversaries were tabulated (rest use the tree)."""
        return sum(1 for table in self.tables if table is not None)

    @property
    def flat_nodes(self) -> int:
        """Total product nodes across all flattened tables."""
        return sum(
            flat.n_nodes for flat in self.flat_tables if flat is not None
        )

    def _source_for(self, rng) -> UniformSource:
        if rng is self._last_rng:
            return self._last_source
        source = self._sources.get(rng)
        if source is None:
            # A strong reference from the value would keep the weak key
            # alive for the engine's lifetime.
            source = UniformSource(weakref.proxy(rng))
            self._sources[rng] = source
        self._last_rng = rng
        self._last_source = source
        return source

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
        flat = self.flat_tables[adversary_index]
        if flat is None:
            result = self._history_for(
                self.tree._schema, adversary_index, start_index
            ).walk(rng)
        else:
            verdict, steps, _ = self._sample_flat(
                flat,
                flat.start_nodes[start_index],
                rng,
                self._ibounds[adversary_index],
            )
            result = SampleResult(verdict, steps, None)
        if obs.enabled():
            sampler._record_event_sample(result)
        return result

    def time_to_target(
        self, adversary_index: int, start_index: int, rng
    ) -> Optional[Fraction]:
        flat = self.flat_tables[adversary_index]
        if flat is None:
            walked = self._history_for(
                self._reach, adversary_index, start_index
            ).walk(rng)
            steps = walked.steps
            time_of = self.tree.time_of
            result = (
                time_of(walked.final.lstate)
                - time_of(self.start_states[start_index])
                if walked.verdict
                else None
            )
        else:
            verdict, steps, elapsed = self._sample_flat(
                flat, flat.start_nodes[start_index], rng, None
            )
            # The scaled integer converts to the identical Fraction the
            # tree walk's Fraction sums produce (Fraction(e, d)
            # normalises).
            result = Fraction(elapsed, flat.denominator) if verdict else None
        if obs.enabled():
            sampler._record_time_sample(result, steps)
        return result

    def _sample_flat(
        self, flat: FlatTable, node: int, rng, bound: Optional[int]
    ) -> Tuple[Optional[bool], int, int]:
        """The flat walk: ``(verdict, steps, scaled elapsed)``.

        Mirrors :mod:`repro.execution.sampler`'s tree walk: the same
        decision order per step (bound-reject, target-accept, horizon,
        halt, draw), the same single uniform draw per step resolved
        against identically accumulated partial sums, and the same
        ``adversary.*`` totals — only the data representation differs,
        and guard checks already ran at compile time so they consume
        nothing here.  With ``bound`` ``None`` this is the walk under
        ``EventuallyReach`` that time-to-target reads at its first hit.
        Elapsed time is tracked as a scaled integer against the
        pre-scaled ``bound`` threshold (exact, see
        ``FlatTable.scale_bound``).  The chain fast-path advances
        ``run`` steps at once only when ``elapsed + skip_total``
        provably stays within the bound (run deltas are nonnegative, so
        every prefix does too) and the run fits the horizon — otherwise
        it truncates at the horizon (interior nodes are never flagged,
        and prefix elapsed cannot exceed the already-checked total, so
        the sampler's final-iteration checks are provably no-ops)
        or falls back to one stepwise move and re-examines.
        """
        max_steps = self.tree.max_steps
        offsets = flat.offsets
        targets = flat.targets
        cum = flat.cum
        ideltas = flat.ideltas
        node_flag = flat.node_flag
        halt = flat.halt
        skip_steps = flat.skip_steps
        skip_to = flat.skip_to
        skip_total = flat.skip_total
        source = self._source_for(rng)
        data = source.data
        pos = source.pos
        size = len(data)
        obs_on = obs.enabled()
        elapsed = 0
        verdict: Optional[bool] = None
        steps_taken = 0
        decisions = 0
        halts = 0
        while True:
            if bound is not None and elapsed > bound:
                verdict = False
                break
            if node_flag[node]:
                verdict = True
                break
            if steps_taken == max_steps:
                break
            run = skip_steps[node]
            if run:
                total = skip_total[node]
                if bound is None or elapsed + total <= bound:
                    remaining = max_steps - steps_taken
                    take = run if run <= remaining else remaining
                    decisions += take
                    steps_taken += take
                    new_pos = pos + take
                    if new_pos <= size:
                        pos = new_pos
                    else:
                        source.pos = size
                        source.skip(new_pos - size)
                        data = source.data
                        pos = source.pos
                        size = len(data)
                    if run > remaining:
                        # Horizon hit mid-run at an interior (unflagged)
                        # node with prefix elapsed within the bound.
                        break
                    elapsed += total
                    node = skip_to[node]
                    continue
            decisions += 1
            if halt[node]:
                halts += 1
                verdict = False
                break
            if pos == size:
                data = source.refill()
                pos = 0
                size = len(data)
            threshold = data[pos]
            pos += 1
            lo = offsets[node]
            index = offsets[node + 1] - 1
            while lo < index:
                if threshold < cum[lo]:
                    index = lo
                    break
                lo += 1
            elapsed += ideltas[index]
            node = targets[index]
            steps_taken += 1
        source.pos = pos
        if obs_on:
            if decisions:
                obs.incr("adversary.decisions", decisions)
            if halts:
                obs.incr("adversary.halts", halts)
        return verdict, steps_taken, elapsed

    def exact_reach(
        self, adversary_index: int, start_index: int, max_steps: int
    ) -> EventBounds:
        table = self.tables[adversary_index]
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
        ``Fraction`` arithmetic on the unflattened table; rational
        addition is associative, so factoring shared subtrees leaves
        both masses exactly equal to the per-path sums
        :func:`event_probability_bounds` computes.  The decision order
        per node mirrors the tree walk: classify (time-reject before
        target-accept), then adversary halt, then horizon.
        """
        bound = self._bound
        flags = self.flags
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


class _SpaceScope:
    """The compiled space one command keeps for its next check."""

    __slots__ = ("key", "space", "froze")

    def __init__(self) -> None:
        self.key: Optional[tuple] = None
        self.space: Optional[CompiledSpace] = None
        self.froze = False


#: The running command's scope; ``None`` outside :func:`compile_scope`.
#: Process-global like the obs registry: the checks run several calls
#: below the command, and a process runs one command at a time.
_scope: Optional[_SpaceScope] = None


@contextmanager
def compile_scope() -> Iterator[None]:
    """Let the checks of one command share a compiled space.

    Inside the block, :func:`build_engine` reuses the space of the
    previous check when the automaton is the same object and the spec,
    guard config and budget are equal; the check's adversary tables
    intern its starts into that space and tabulate what they reach, so
    the space grows and no outcome changes.  Each check's compile block
    (space, tables, flags) runs with the cyclic collector paused and,
    once it succeeds, is frozen out of later collections; a block that
    fails leaves the scope empty.  The scope holds at most one space,
    and nothing outlives the block: not the space, not the freeze, not
    the guard layer's validated-transition cache (``docs/statespace.md``,
    "Compile once per command").
    """
    global _scope
    outer = _scope
    scope = _scope = _SpaceScope()
    try:
        yield
    finally:
        _scope = outer
        if scope.froze:
            gc.unfreeze()
        forget_validated_transitions()


@contextmanager
def _compiling() -> Iterator[None]:
    """One check's compile block, run outside the cyclic collector.

    Inside a scope the block runs with the collector paused: the space,
    tables and flags form a large acyclic heap that reference counting
    alone frees, which full collections would only re-scan.  A block
    that succeeds is then ``gc.freeze()``d; one that raises freezes
    nothing and drops the scope's space, so reference counting frees a
    partial space as the error is handled.
    """
    scope = _scope
    if scope is None:
        yield
        return
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    except BaseException:
        scope.key = scope.space = None
        raise
    else:
        gc.freeze()
        scope.froze = True
    finally:
        if collecting:
            gc.enable()


def _space_for(
    automaton: ProbabilisticAutomaton,
    starts: Tuple[object, ...],
    spec: SpaceSpec,
    budget: int,
    guards: Optional[GuardConfig],
) -> CompiledSpace:
    """The command's space when the key matches, else a compile."""
    scope = _scope
    if scope is None:
        return compile_space(
            automaton, starts, spec, max_states=budget, guards=guards
        )
    key = (spec, guards, budget)
    held = scope.space
    if held is not None and held.automaton is automaton and scope.key == key:
        obs.incr("statespace.compile_reuses")
        return held
    # Drop it first, so a miss never holds two spaces at once.
    scope.key = scope.space = None
    space = compile_space(
        automaton, starts, spec, max_states=budget, guards=guards
    )
    scope.key, scope.space = key, space
    return space


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
    * ``batched`` — compile or die: a blown state budget propagates as
      :class:`StateBudgetExceeded`; ``--fuel`` is refused (fuel
      accounting is inherently per-fragment).  The compiled tables are
      then walked as flattened arrays.
    * ``auto`` — prefer the batched engine when everything fits the
      budget and guards permit, else silently use the tree walk.

    Inside :func:`compile_scope` the space comes from the previous
    check when the key matches, and grows.  The space tabulates only
    the states the adversary tables reach, and nothing tabulates once
    this returns (forked workers share the space read-only).

    A strict-mode :class:`ContractViolation` raised while tabulating
    sends only the adversaries that reach it to the history walk, which
    re-detects the identical violation per pair and quarantines it
    exactly as the tree walk does — keeping strict-mode reports
    byte-identical across engines even on broken models.
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
                "accounted per execution fragment, which compiled "
                "sampling never materialises; use --engine tree"
            )
        return tree
    budget = DEFAULT_STATE_BUDGET if state_budget is None else state_budget
    try:
        with obs.span(
            "statespace.compile",
            engine=engine,
            budget=budget,
            adversaries=len(tree.adversaries),
        ), _compiling():
            space = _space_for(
                automaton,
                tree.start_states,
                spec if spec is not None else IDENTITY_SPEC,
                budget,
                guards,
            )
            tables = tuple(
                compile_adversary(
                    space, adversary, tree.start_states, max_nodes=budget
                )
                for _, adversary in tree.adversaries
            )
            if obs.enabled():
                obs.gauge("statespace.states", space.n_states)
                obs.gauge("statespace.transitions", space.n_transitions)
            flags = space.flags(target)
    except StateBudgetExceeded:
        if engine != "auto":
            raise
        return tree
    batched = BatchedEngine(tree, tables, flags)
    if obs.enabled():
        obs.gauge("statespace.compiled_adversaries", batched.compiled_adversaries)
        obs.gauge("statespace.flat_nodes", batched.flat_nodes)
    return batched

"""The ``Engine`` protocol: one evaluation strategy per check.

Every verification command evaluates (adversary, start) pairs through
one of three operations — Monte-Carlo ``sample``, exact ``exact_reach``,
or ``time_to_target`` — and an :class:`Engine` bundles one strategy for
all three:

* :class:`TreeEngine` walks the live object graph exactly as the
  library always has (fragments, memoised transitions, policy replay).
  It is the reference oracle, and the only engine that runs
  history-dependent (coin-peeking) adversaries.
* :class:`BatchedEngine` walks the interned tables of
  :mod:`repro.statespace.compile` / :mod:`repro.statespace.product`
  flattened into CSR parallel arrays (:mod:`repro.statespace.arrays`),
  drawing uniforms in blocks — via the numpy state transplant of
  :mod:`repro.statespace.np_backend` when available, pure python
  otherwise — and fast-forwarding memoised deterministic runs.  It
  falls back to an embedded tree engine per adversary when that
  adversary could not be tabulated (history-dependent policies) or when
  a caller needs the final fragment (closure spot checks).

Both engines consume the *identical* randomness per sample — one
uniform draw per step, resolved against float partial sums accumulated
exactly as ``FiniteDistribution.sample`` accumulates them; the batched
engine merely fetches those same floats ahead of time — so reports are
byte-identical whichever engine ran, for every seed, guard mode, and
worker count.  The factory :func:`build_engine` implements the
``--engine {tree,batched,batched-pure,auto}`` selection rules:
``batched`` and ``batched-pure`` propagate
:class:`~repro.errors.StateBudgetExceeded`, ``auto`` prefers the
batched engine and silently falls back to the tree walk when the
compile fails.
"""

from __future__ import annotations

import abc
import weakref
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.contracts import OFF_CONFIG, GuardConfig
from repro.errors import (
    ContractViolation,
    StateBudgetExceeded,
    VerificationError,
)
from repro.events.reach import EventuallyReach, ReachWithinTime
from repro.execution import sampler
from repro.execution.automaton import ExecutionAutomaton
from repro.execution.measure import EventBounds, event_probability_bounds
from repro.execution.sampler import SampleResult
from repro.probability.space import as_fraction
from repro.statespace import np_backend
from repro.statespace.arrays import FlatTable, UniformSource, flatten_table
from repro.statespace.compile import (
    DEFAULT_STATE_BUDGET,
    IDENTITY_SPEC,
    SpaceSpec,
    compile_space,
)
from repro.statespace.product import AdversaryTable, compile_adversary

#: Engine names accepted by ``--engine``.  ``batched-pure`` is the
#: batched engine with the numpy block filler disabled — the exact path
#: numpy-less machines take, promoted to a first-class name so the
#: defect corpus (and users debugging a numpy divergence) can pin it.
ENGINE_NAMES = ("tree", "batched", "batched-pure", "auto")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def resolve_engine_name(engine: str) -> str:
    """Validate an ``--engine`` value, returning it unchanged."""
    if engine not in ENGINE_NAMES:
        raise VerificationError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    return engine


class Engine(abc.ABC):
    """One bound evaluation strategy for a fixed check.

    An engine is constructed for a specific (automaton, adversaries,
    start states, target) tuple; the three operations below then index
    into those sequences.  Engines ride the fork-inherited task
    contexts of :mod:`repro.parallel.backend`, so pooled workers reuse
    the parent's compiled tables and never recompile.
    """

    #: Short strategy label ("tree" / "batched").
    name: str = ""

    @abc.abstractmethod
    def sample(
        self,
        adversary_index: int,
        start_index: int,
        rng,
        *,
        want_fragment: bool = False,
    ) -> SampleResult:
        """One Monte-Carlo sample of the pair's reach-within-time event.

        ``want_fragment`` forces a result whose ``final`` fragment is
        populated (the batched engine otherwise returns ``final=None``
        since it never materialises fragments); callers needing the
        fragment — the execution-closure spot check — set it for that
        sample only, and both engines consume identical randomness
        either way.
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
        # behaviour the batched samplers implement when their bound is
        # ``None``.
        self._schema = (
            EventuallyReach(target)
            if time_bound is None
            else ReachWithinTime(
                target=target, time_bound=time_bound, time_of=time_of
            )
        )

    def sample(
        self,
        adversary_index: int,
        start_index: int,
        rng,
        *,
        want_fragment: bool = False,
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


class BatchedEngine(Engine):
    """Flat-array evaluation drawing uniforms in blocks.

    The fast path: the per-adversary tables are flattened into the CSR
    parallel arrays of :mod:`repro.statespace.arrays`, uniforms are
    fetched block-at-a-time per sampling stream (one
    :class:`UniformSource` per ``random.Random``, keyed weakly so
    abandoned streams free their buffers), and memoised deterministic
    runs are fast-forwarded in O(1).  Every consumed uniform is exactly
    the float :mod:`repro.execution.sampler` would have drawn at that
    point — numpy's transplanted twin generator is bit-identical to
    ``rng.random()``, and ``force_pure=True`` pins the pure-python
    filler for reference runs — so verdicts, step counts, and metric
    totals are byte-identical to :class:`TreeEngine`.

    Sources buffer *ahead* of the underlying python generator, which is
    safe because each stream is private to one (adversary, start) pair
    or one time-measurement task: the harness never draws from the rng
    directly once batched sampling has begun (the one direct use — the
    ``want_fragment`` closure probe — is always a pair's first sample).
    Adversaries that did not tabulate (``None`` in ``tables``) and
    ``want_fragment`` samples go through the embedded ``tree`` engine.
    """

    name = "batched"

    def __init__(
        self,
        tree: TreeEngine,
        tables: Tuple[Optional[AdversaryTable], ...],
        flags: List[bool],
        *,
        force_pure: bool = False,
    ):
        self.tree = tree
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
        self.force_pure = force_pure
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
            bulk = None if self.force_pure else np_backend.make_bulk(rng)
            source = UniformSource(rng, bulk=bulk)
            self._sources[rng] = source
        self._last_rng = rng
        self._last_source = source
        return source

    def sample(
        self,
        adversary_index: int,
        start_index: int,
        rng,
        *,
        want_fragment: bool = False,
    ) -> SampleResult:
        flat = self.flat_tables[adversary_index]
        if flat is None or want_fragment:
            return self.tree.sample(
                adversary_index, start_index, rng, want_fragment=want_fragment
            )
        return self._sample_flat(
            flat,
            flat.start_nodes[start_index],
            rng,
            self._ibounds[adversary_index],
        )

    def _sample_flat(self, flat: FlatTable, node: int, rng, bound):
        """Mirror of :func:`~repro.execution.sampler.sample_event`.

        Same decision order per step (bound-reject, target-accept,
        horizon, halt, draw), same single uniform draw per step resolved
        against identically accumulated partial sums, same metric
        totals — only the data representation differs, and guard checks
        already ran at compile time so they consume nothing here.
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
        result = SampleResult(verdict, steps_taken, None)
        if obs_on:
            if decisions:
                obs.incr("adversary.decisions", decisions)
            if halts:
                obs.incr("adversary.halts", halts)
            sampler._record_event_sample(result)
        return result

    def time_to_target(
        self, adversary_index: int, start_index: int, rng
    ) -> Optional[Fraction]:
        flat = self.flat_tables[adversary_index]
        if flat is None:
            return self.tree.time_to_target(adversary_index, start_index, rng)
        return self._time_flat(flat, flat.start_nodes[start_index], rng)

    def _time_flat(self, flat: FlatTable, node: int, rng):
        """Mirror of :func:`~repro.execution.sampler.sample_time_until`.

        Elapsed time accumulates as a scaled integer and is converted
        back to the identical ``Fraction`` on return (``Fraction(e, d)``
        normalises exactly like the sampler's ``Fraction`` sum).
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
        obs_on = obs.enabled()
        if node_flag[node]:
            if obs_on:
                sampler._record_time_sample(_ZERO, 0)
            return _ZERO
        source = self._source_for(rng)
        data = source.data
        pos = source.pos
        size = len(data)
        elapsed = 0
        reached: Optional[int] = None
        steps_taken = 0
        decisions = 0
        halts = 0
        while steps_taken < max_steps:
            run = skip_steps[node]
            if run:
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
                    # Horizon hit mid-run; interior nodes never flag.
                    break
                elapsed += skip_total[node]
                node = skip_to[node]
                if node_flag[node]:
                    reached = elapsed
                    break
                continue
            decisions += 1
            if halt[node]:
                halts += 1
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
            if node_flag[node]:
                reached = elapsed
                break
        source.pos = pos
        result = (
            None
            if reached is None
            else Fraction(reached, flat.denominator)
        )
        if obs_on:
            if decisions:
                obs.incr("adversary.decisions", decisions)
            if halts:
                obs.incr("adversary.halts", halts)
            sampler._record_time_sample(result, steps_taken)
        return result

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
      then walked as flattened arrays; the numpy block filler is
      auto-detected per sampling stream, with the pure-python filler as
      the always-present fallback.
    * ``batched-pure`` — the batched engine with the numpy block filler
      forced off; byte-identical to ``batched`` by construction and
      selectable explicitly so the pure path is testable on machines
      where numpy is installed.
    * ``auto`` — prefer the batched engine when everything fits the
      budget and guards permit, else silently use the tree walk.

    A strict-mode :class:`ContractViolation` raised *during compile*
    (including a quotient-invariance violation from the target-flag
    spot check) always falls back to the tree walk, which re-detects
    the identical violation per pair and quarantines it exactly as it
    always has — keeping strict-mode reports byte-identical across
    engines even on broken models.
    """
    resolve_engine_name(engine)
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
        ):
            space = compile_space(
                automaton,
                tree.start_states,
                spec if spec is not None else IDENTITY_SPEC,
                max_states=budget,
                guards=guards,
            )
            tables = tuple(
                compile_adversary(
                    space, adversary, tree.start_states, max_nodes=budget
                )
                for _, adversary in tree.adversaries
            )
            # Inside the try: the quotient-invariance spot check may
            # raise in strict mode, and the tree fallback below must
            # cover it like any other compile-time violation.
            flags = space.flags(target, guards)
    except StateBudgetExceeded:
        if engine != "auto":
            raise
        return tree
    except ContractViolation:
        return tree
    batched = BatchedEngine(
        tree, tables, flags, force_pure=(engine == "batched-pure")
    )
    if obs.enabled():
        obs.gauge("statespace.compiled_adversaries", batched.compiled_adversaries)
        obs.gauge("statespace.flat_nodes", batched.flat_nodes)
    return batched

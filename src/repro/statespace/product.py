"""Adversary decision tables over a compiled space.

A deterministic Unit-Time adversary built from a
:class:`~repro.adversary.unit_time.MarkovRoundPolicy` has finite memory:
the set of processes that already stepped this round plus (a bounded
view of) the completed-round count.  This module explores the product of
a :class:`~repro.statespace.compile.CompiledSpace` with that memory once
per adversary, producing per-node arrays: the chosen step's target ids,
exact probabilities, and clock advances.  The batched engine's
``exact_reach`` runs its dynamic programme over them; no sampling walk
reads them.

History-dependent adversaries (anything whose policy is not a
``MarkovRoundPolicy``, e.g. the coin-peeking hashed-random family) are
reported as uncompilable by returning ``None``; their exact values then
come from the tree engine's exact walk.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary
from repro.adversary.unit_time import (
    ADVANCE_TIME,
    HALT,
    MarkovRoundPolicy,
    RoundBasedAdversary,
)
from repro.automaton.signature import TIME_PASSAGE
from repro.automaton.transition import Transition
from repro.errors import AdversaryError, ContractViolation, StateBudgetExceeded
from repro.statespace.compile import CompiledSpace, CompiledStep

#: A product node's memory: (space state id, stepped set, round key).
_NodeKey = Tuple[int, FrozenSet[Hashable], int]


class AdversaryTable:
    """The compiled joint behaviour of one adversary over a space.

    Node-indexed parallel arrays; each node has exactly one choice
    (deterministic adversary).  ``choice_targets[i] is None`` means the
    adversary halts at node ``i``.
    """

    __slots__ = (
        "space",
        "start_nodes",
        "node_state",
        "choice_targets",
        "choice_weights",
        "choice_deltas",
    )

    def __init__(self, space: CompiledSpace):
        self.space = space
        self.start_nodes: List[int] = []
        self.node_state: List[int] = []
        self.choice_targets: List[Optional[Tuple[int, ...]]] = []
        self.choice_weights: List[Tuple[Fraction, ...]] = []
        self.choice_deltas: List[Tuple[Fraction, ...]] = []

    @property
    def n_nodes(self) -> int:
        """The number of explored product nodes."""
        return len(self.node_state)


def compile_adversary(
    space: CompiledSpace,
    adversary: Adversary,
    starts: Sequence[object],
    *,
    max_nodes: int,
) -> Optional[AdversaryTable]:
    """Tabulate ``adversary`` over ``space``, or ``None`` if impossible.

    Interns ``starts`` into ``space`` and tabulates the space's
    classes as the product reaches them (:meth:`CompiledSpace.steps_of`),
    so a space holds only what its tables need.  Returns ``None`` for
    adversaries outside the compilable class (non-round-based,
    history-dependent policies) and for adversaries whose policy raises,
    or whose reached steps violate a strict guard, while being
    tabulated — the tree engine's exact walk then reproduces the
    identical raise.  Budget
    overruns, of the space's states or of ``max_nodes`` product nodes,
    raise :class:`StateBudgetExceeded`.
    """
    if not isinstance(adversary, RoundBasedAdversary):
        return None
    policy = adversary.policy
    if not isinstance(policy, MarkovRoundPolicy):
        return None
    view = adversary.view
    max_rounds = adversary.max_rounds
    period = 1 if max_rounds is not None else max(1, policy.rounds_period(view))
    automaton = space.automaton
    processes = view.processes

    table = AdversaryTable(space)
    ids: Dict[_NodeKey, int] = {}
    order: List[_NodeKey] = []

    def intern(node: _NodeKey) -> int:
        found = ids.get(node)
        if found is not None:
            return found
        if len(order) >= max_nodes:
            raise StateBudgetExceeded(
                f"adversary {adversary!r} exceeded the product-node budget "
                f"of {max_nodes}; rerun with a larger --state-budget or "
                f"--engine tree",
                budget=max_nodes,
                explored=len(order),
            )
        new_id = len(order)
        ids[node] = new_id
        order.append(node)
        return new_id

    try:
        for start in starts:
            table.start_nodes.append(
                intern((space.intern(start), frozenset(), 0))
            )
        cursor = 0
        while cursor < len(order):
            state_id, stepped, rounds = order[cursor]
            cursor += 1
            table.node_state.append(state_id)
            rep = space.reps[state_id]

            if max_rounds is not None and rounds >= max_rounds:
                _append_halt(table)
                continue

            ready = view.ready(rep)
            pending = tuple(
                p for p in processes if p in ready and p not in stepped
            )
            move = policy.markov_move(automaton, rep, pending, view, rounds)

            if move is HALT:
                _append_halt(table)
                continue
            if move is ADVANCE_TIME:
                if pending:
                    raise AdversaryError(
                        f"policy tried to advance time with obligated "
                        f"processes pending: {pending!r}"
                    )
                step = _find_time_passage(space, state_id)
                next_rounds = (
                    min(rounds + 1, max_rounds)
                    if max_rounds is not None
                    else (rounds + 1) % period
                )
                _append_choice(
                    table, intern, step, frozenset(), next_rounds
                )
                continue
            if isinstance(move, Transition):
                if move.action == TIME_PASSAGE:
                    raise AdversaryError(
                        "policies must request time passage via ADVANCE_TIME"
                    )
                step = _match_step(space, state_id, move)
                process = view.process_of(move.action)
                next_stepped = (
                    stepped if process is None else stepped | {process}
                )
                _append_choice(table, intern, step, next_stepped, rounds)
                continue
            raise AdversaryError(f"policy returned an invalid move: {move!r}")
    except StateBudgetExceeded:
        raise
    except (AdversaryError, ContractViolation):
        # The policy misbehaved, or a step it reaches broke a strict
        # guard while being tabulated.  The tree engine's exact walk
        # hits the identical condition and reports it.
        return None
    return table


def _append_halt(table: AdversaryTable) -> None:
    table.choice_targets.append(None)
    table.choice_weights.append(())
    table.choice_deltas.append(())


def _append_choice(table, intern, step: CompiledStep, stepped, rounds) -> None:
    table.choice_targets.append(
        tuple(intern((target, stepped, rounds)) for target in step.targets)
    )
    table.choice_weights.append(step.weights)
    table.choice_deltas.append(step.deltas)


def _find_time_passage(space: CompiledSpace, state_id: int) -> CompiledStep:
    for step in space.steps_of(state_id):
        if step.action == TIME_PASSAGE:
            return step
    raise AdversaryError(
        f"no time-passage step enabled in {space.reps[state_id]!r}; "
        f"is this a timed automaton?"
    )


def _match_step(
    space: CompiledSpace, state_id: int, move: Transition
) -> CompiledStep:
    """The compiled step carrying ``move`` (identity first, then ==)."""
    tabulated = space.steps_of(state_id)
    for step in tabulated:
        if step.transition is move:
            return step
    matched = [step for step in tabulated if step.transition == move]
    if len(matched) == 1:
        return matched[0]
    if matched:
        # Two distinct enabled transitions compare equal: picking either
        # could disagree with the step the tree walk schedules, breaking
        # byte-identity.  Refuse to tabulate; compile_adversary returns
        # None and the pair's exact value takes the tree walk instead.
        raise AdversaryError(
            f"policy scheduled {move.action!r}, which matches "
            f"{len(matched)} distinct-but-equal compiled steps of "
            f"{space.reps[state_id]!r}; the match is ambiguous"
        )
    raise AdversaryError(
        f"policy scheduled {move.action!r}, which is not among the "
        f"compiled steps of {space.reps[state_id]!r}"
    )

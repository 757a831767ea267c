"""Exact extremal expected hitting times over round-synchronous play.

The paper derives 63 as an upper bound on the expected time for some
process to enter its critical region, for every Unit-Time adversary.
For the round-synchronous subclass we can do better than bounding: the
*exact* worst-case expected time satisfies the optimality equation

    V(s, stepped) = 0                                   if s in target
    V(s, stepped) = opt over moves:
        step of an unstepped process ->  sum_s' P(s') V(s', stepped+p)
        close the round (no pending) ->  1 + V(s, {})

and is computed here by value iteration from below over the reachable
``(untimed state, stepped set)`` space.  Convergence is guaranteed when
the target is reached with probability 1 under every strategy (which
for Lehmann-Rabin is the Zuck-Pnueli progress property the paper
refines); divergence is detected and reported instead of looping.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Set,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.adversary.unit_time import ProcessView
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.errors import VerificationError
from repro.mdp.bounded import round_moves

State = TypeVar("State", bound=Hashable)

Node = Tuple[Hashable, FrozenSet]


def extremal_expected_time_rounds(
    automaton: ProbabilisticAutomaton[State],
    view: ProcessView[State],
    target: Callable[[State], bool],
    start: State,
    strip_time: Callable[[State], Hashable],
    maximise: bool = True,
    tolerance: float = 1e-9,
    max_iterations: int = 100_000,
    max_nodes: int = 2_000_000,
    divergence_bound: float = 1e7,
) -> float:
    """The exact extremal expected time to ``target`` (in rounds).

    ``maximise=True`` gives the slowest scheduler of the
    round-synchronous Unit-Time subclass (the quantity the paper's 63
    upper-bounds); ``False`` the fastest.  Floats: value iteration
    converges monotonically from below, so the result is accurate to
    ``tolerance`` when it converges and raises
    :class:`VerificationError` past ``divergence_bound`` (a scheduler
    can then starve the target, i.e. progress fails).
    """
    select = max if maximise else min
    with obs.span("mdp.expected_time", maximise=maximise) as obs_span:
        return _solve(
            automaton, view, target, start, strip_time, select, tolerance,
            max_iterations, max_nodes, divergence_bound, obs_span,
        )


def _solve(
    automaton: ProbabilisticAutomaton[State],
    view: ProcessView[State],
    target: Callable[[State], bool],
    start: State,
    strip_time: Callable[[State], Hashable],
    select: Callable,
    tolerance: float,
    max_iterations: int,
    max_nodes: int,
    divergence_bound: float,
    obs_span,
) -> float:
    # ------------------------------------------------------------------
    # Enumerate the reachable (untimed state, stepped) space and record
    # each node's move structure once; value iteration then just sweeps.
    # ------------------------------------------------------------------
    representative: Dict[Hashable, State] = {}

    def node_of(state: State, stepped: FrozenSet) -> Node:
        key = strip_time(state)
        representative.setdefault(key, state)
        return (key, stepped)

    start_node = node_of(start, frozenset())
    moves: Dict[Node, List[object]] = {}
    is_target: Dict[Node, bool] = {}
    frontier = deque([start_node])
    seen: Set[Node] = {start_node}
    while frontier:
        node = frontier.popleft()
        key, stepped = node
        state = representative[key]
        if target(state):
            is_target[node] = True
            moves[node] = []
            continue
        is_target[node] = False
        node_moves: List[object] = []
        steps, may_close = round_moves(automaton, view, state, stepped)
        for process, step in steps:
            new_stepped = stepped | {process}
            outcome = []
            for successor, weight in step.target.items():
                child = node_of(successor, new_stepped)
                outcome.append((child, float(weight)))
                if child not in seen:
                    seen.add(child)
                    if len(seen) > max_nodes:
                        raise VerificationError(
                            f"expected-time exploration exceeded "
                            f"{max_nodes} nodes"
                        )
                    frontier.append(child)
            node_moves.append(("step", outcome))
        if may_close:
            child = (key, frozenset())
            node_moves.append(("advance", child))
            if child not in seen:
                seen.add(child)
                frontier.append(child)
        if not node_moves:
            raise VerificationError(
                f"dead node without moves at {state!r} / {stepped!r}"
            )
        moves[node] = node_moves

    # ------------------------------------------------------------------
    # Value iteration from below.
    # ------------------------------------------------------------------
    obs.gauge("mdp.expected_time.nodes", len(moves))
    values: Dict[Node, float] = {node: 0.0 for node in moves}
    sweeps = 0
    for _ in range(max_iterations):
        delta = 0.0
        for node, node_moves in moves.items():
            if is_target[node]:
                continue
            candidates = []
            for kind, payload in node_moves:
                if kind == "step":
                    candidates.append(
                        sum(w * values[child] for child, w in payload)
                    )
                else:
                    candidates.append(1.0 + values[payload])
            updated = select(candidates)
            delta = max(delta, abs(updated - values[node]))
            values[node] = updated
        sweeps += 1
        if obs.enabled():
            obs.incr("mdp.expected_time.sweeps")
            obs.incr("mdp.expected_time.states_touched", len(moves))
            obs.observe("mdp.expected_time.residual", delta)
        if values[start_node] > divergence_bound:
            raise VerificationError(
                "expected time diverges: some scheduler starves the target"
            )
        if delta < tolerance:
            obs_span.annotate(sweeps=sweeps, value=values[start_node])
            return values[start_node]
    raise VerificationError(
        f"value iteration did not converge in {max_iterations} sweeps"
    )

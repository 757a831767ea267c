"""Execution fragments (Section 2).

An execution fragment of ``M`` is an alternating sequence
``s0 a1 s1 a2 s2 ...`` of states and actions, beginning with a state
and, if finite, ending in one, where each ``(s_i, a_{i+1}, s_{i+1})``
instantiates a step of ``M``.  This module implements finite fragments
(infinite executions arise only as limits in the measure-theoretic
construction of :mod:`repro.execution.measure` and are never
materialised), together with the concatenation and prefix operations the
paper defines.
"""

from __future__ import annotations

from typing import (
    Generic,
    Hashable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.signature import Action
from repro.errors import ExecutionError

State = TypeVar("State", bound=Hashable)


class ExecutionFragment(Generic[State]):
    """A finite execution fragment ``s0 a1 s1 ... an sn``.

    Immutable and hashable; used directly as the *states* of execution
    automata (Definition 2.3, condition 1).  ``_body`` caches
    :meth:`rendered` once a history-reading adversary has asked for it.
    """

    __slots__ = ("_states", "_actions", "_hash", "_body")

    def __init__(self, states: Sequence[State], actions: Sequence[Action]):
        if not states:
            raise ExecutionError("an execution fragment needs at least one state")
        if len(actions) != len(states) - 1:
            raise ExecutionError(
                f"an alternating sequence with {len(states)} states needs "
                f"{len(states) - 1} actions, got {len(actions)}"
            )
        self._states: Tuple[State, ...] = tuple(states)
        self._actions: Tuple[Action, ...] = tuple(actions)
        self._hash: Optional[int] = None
        self._body: Optional[str] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def initial(cls, state: State) -> "ExecutionFragment[State]":
        """The length-zero fragment consisting of a single state."""
        return cls((state,), ())

    def extend(self, action: Action, state: State) -> "ExecutionFragment[State]":
        """The fragment ``self . a . s`` (one more step appended)."""
        obs.incr("fragment.extensions")
        child = ExecutionFragment(
            self._states + (state,), self._actions + (action,)
        )
        if self._body is not None:
            child._body = f"{self._body} . {action!r} . {state!r}"
        return child

    # ------------------------------------------------------------------
    # The paper's accessors
    # ------------------------------------------------------------------

    @property
    def fstate(self) -> State:
        """``fstate(alpha)``: the first state."""
        return self._states[0]

    @property
    def lstate(self) -> State:
        """``lstate(alpha)``: the last state."""
        return self._states[-1]

    @property
    def states(self) -> Tuple[State, ...]:
        """All states, in order (length = number of steps + 1)."""
        return self._states

    @property
    def actions(self) -> Tuple[Action, ...]:
        """All actions, in order."""
        return self._actions

    def __len__(self) -> int:
        """The number of steps (actions) in the fragment."""
        return len(self._actions)

    def steps(self) -> Iterator[Tuple[State, Action, State]]:
        """Iterate over ``(s_i, a_{i+1}, s_{i+1})`` triples."""
        for i, action in enumerate(self._actions):
            yield self._states[i], action, self._states[i + 1]

    # ------------------------------------------------------------------
    # Concatenation and prefix (Section 2)
    # ------------------------------------------------------------------

    def concat(
        self, other: "ExecutionFragment[State]"
    ) -> "ExecutionFragment[State]":
        """The concatenation ``alpha1 ^ alpha2``.

        Defined only when ``lstate(alpha1) == fstate(alpha2)``; the shared
        state appears once in the result, exactly as in the paper.
        """
        if self.lstate != other.fstate:
            raise ExecutionError(
                f"cannot concatenate: lstate {self.lstate!r} differs from "
                f"fstate {other.fstate!r}"
            )
        return ExecutionFragment(
            self._states + other._states[1:], self._actions + other._actions
        )

    def is_prefix_of(self, other: "ExecutionFragment[State]") -> bool:
        """``alpha1 <= alpha2``: prefix in the paper's sense."""
        if len(self._actions) > len(other._actions):
            return False
        return (
            other._states[: len(self._states)] == self._states
            and other._actions[: len(self._actions)] == self._actions
        )

    def suffix_after(
        self, prefix: "ExecutionFragment[State]"
    ) -> "ExecutionFragment[State]":
        """The unique ``alpha'`` with ``self == prefix ^ alpha'``.

        The inverse of :meth:`concat`; raises when ``prefix`` is not a
        prefix of this fragment.
        """
        if not prefix.is_prefix_of(self):
            raise ExecutionError(f"{prefix!r} is not a prefix of {self!r}")
        return ExecutionFragment(
            self._states[len(prefix._states) - 1 :],
            self._actions[len(prefix._actions) :],
        )

    def prefix_of_length(self, steps: int) -> "ExecutionFragment[State]":
        """The prefix with the given number of steps."""
        if not 0 <= steps <= len(self._actions):
            raise ExecutionError(
                f"no prefix with {steps} steps in a fragment of length "
                f"{len(self._actions)}"
            )
        return ExecutionFragment(
            self._states[: steps + 1], self._actions[:steps]
        )

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------

    def is_valid_in(self, automaton: ProbabilisticAutomaton[State]) -> bool:
        """Check each step instantiates some step of ``automaton``.

        A triple ``(s, a, s')`` is justified when ``M`` has a step
        ``(s, a, (Omega, F, P))`` with ``s'`` in ``Omega``.
        """
        for source, action, target in self.steps():
            justified = any(
                transition.action == action and target in transition.target
                for transition in automaton.transitions(source)
            )
            if not justified:
                return False
        return True

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionFragment):
            return NotImplemented
        return self._states == other._states and self._actions == other._actions

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._states, self._actions))
        return self._hash

    def rendered(self) -> str:
        """``s0 . a1 . s1 ...``, the inside of ``repr(self)``, kept.

        Rendered once; :meth:`extend` then appends only the new step,
        so a walk whose adversary digests its history
        (:func:`repro.adversary.search.fragment_digest`) renders each
        state once, and a walk whose adversary never does renders
        nothing.  ``repr`` reads the kept body but never keeps one.
        """
        if self._body is None:
            self._body = self._render()
        return self._body

    def _render(self) -> str:
        parts = [repr(self._states[0])]
        for i, action in enumerate(self._actions):
            parts.append(repr(action))
            parts.append(repr(self._states[i + 1]))
        return " . ".join(parts)

    def __repr__(self) -> str:
        body = self._body if self._body is not None else self._render()
        return f"ExecutionFragment({body})"

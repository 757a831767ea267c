"""States of the Lehmann-Rabin automaton (Section 6.1).

A state of ``M`` is a tuple ``(X_1,...,X_n, Res_1,...,Res_n, t)``: the
local state ``X_i = (pc_i, u_i)`` of each process, the value of each
shared resource, and the current time.  Program counters follow the
paper's suggestive naming:

====== ======= ============ ===========================================
Number ``pc``  Action       Informal meaning
====== ======= ============ ===========================================
0      ``R``   ``try_i``    Remainder region
1      ``F``   ``flip_i``   Ready to flip
2      ``W``   ``wait_i``   Waiting for first resource
3      ``S``   ``second_i`` Checking for second resource
4      ``D``   ``drop_i``   Dropping first resource
5      ``P``   ``crit_i``   Pre-critical region
6      ``C``   ``exit_i``   Critical region
7      ``EF``  ``dropf_i``  Exit: drop first resource
8      ``ES``  ``drops_i``  Exit: drop second resource
9      ``ER``  ``rem_i``    Exit: move to remainder region
====== ======= ============ ===========================================

Ring geometry: process ``i + 1`` is to the right of process ``i`` and
resource ``Res_i`` lies between processes ``i`` and ``i + 1`` (indices
modulo ``n``, zero-based here).  Hence process ``i``'s *right* resource
is ``Res_i`` and its *left* resource is ``Res_{i-1}``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.errors import AutomatonError


class Side(enum.Enum):
    """The value of the local variable ``u_i``: left or right."""

    LEFT = "left"
    RIGHT = "right"

    @property
    def opp(self) -> "Side":
        """The paper's ``opp`` operator: the other side."""
        return Side.RIGHT if self is Side.LEFT else Side.LEFT

    def __repr__(self) -> str:
        return self.value


class PC(enum.Enum):
    """Program counters of Figure 1, in the paper's letter notation."""

    R = "R"    # remainder region
    F = "F"    # ready to flip
    W = "W"    # waiting for first resource
    S = "S"    # checking for second resource
    D = "D"    # dropping first resource
    P = "P"    # pre-critical region
    C = "C"    # critical region
    EF = "EF"  # exit: drop first resource
    ES = "ES"  # exit: drop second resource
    ER = "ER"  # exit: move to remainder region

    def __repr__(self) -> str:
        return self.value


#: Program counters forming the trying region ``T`` (Section 6.1:
#: ``X_i = T`` stands for ``X_i in {F, W, S, D, P}``).
TRYING_PCS: FrozenSet[PC] = frozenset({PC.F, PC.W, PC.S, PC.D, PC.P})

#: Program counters forming the exit region ``E``.
EXIT_PCS: FrozenSet[PC] = frozenset({PC.EF, PC.ES, PC.ER})

#: The ``#`` symbol of Section 6.1: any of ``W``, ``S``, ``D``.
SHARP_PCS: FrozenSet[PC] = frozenset({PC.W, PC.S, PC.D})

#: Program counters at which the side ``u_i`` influences behaviour.
SIDED_PCS: FrozenSet[PC] = frozenset({PC.W, PC.S, PC.D, PC.ES})


@dataclass(frozen=True)
class ProcessState:
    """The pair ``X_i = (pc_i, u_i)``.

    The model builds its local states through :func:`process_state`,
    which hands out one shared instance per ``(pc, u)``; every instance
    hashes its pair once.  A separately built instance still compares
    equal to, and hashes like, the shared one.
    """

    pc: PC
    u: Side

    def __post_init__(self) -> None:
        # Enum members hash through Python code, and every ring-state
        # key hashes all n local states, so hash the pair once.  Same
        # value as the dataclass hash, hence the same set and dict order.
        object.__setattr__(self, "_hash", hash((self.pc, self.u)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The cached hash belongs to this process's hash seed: unpickle
        # to the receiving process's shared instance instead.
        return process_state, (self.pc, self.u)

    def with_pc(self, pc: PC) -> "ProcessState":
        """The shared state with a new program counter."""
        return _SHARED[pc._name_, self.u._name_]

    def points(self, side: Side) -> bool:
        """True when the side variable matters and equals ``side``.

        The paper's arrow notation ``W_<-`` is ``points(LEFT)`` with
        ``pc == W``; at sideless counters (``F``, ``R``, ...) this is
        False for both sides.
        """
        return self.pc in SIDED_PCS and self.u is side

    def __repr__(self) -> str:
        if self.pc in SIDED_PCS:
            arrow = "<-" if self.u is Side.LEFT else "->"
            return f"{self.pc.value}{arrow}"
        return self.pc.value


#: The shared ``ProcessState`` of each ``(pc, u)``, keyed by member
#: names: a str caches its hash, an Enum member recomputes it in Python.
_SHARED = {
    (pc._name_, u._name_): ProcessState(pc, u) for pc in PC for u in Side
}


def process_state(pc: PC, u: Side) -> ProcessState:
    """The shared local state ``(pc, u)``."""
    return _SHARED[pc._name_, u._name_]


#: Resource values: the paper's ``free``/``taken`` as a bool (taken=True).
FREE = False
TAKEN = True


@dataclass(frozen=True)
class LRState:
    """A global state ``(X_1,...,X_n, Res_1,...,Res_n, t)``."""

    processes: Tuple[ProcessState, ...]
    resources: Tuple[bool, ...]
    time: Fraction

    def __post_init__(self) -> None:
        if len(self.processes) != len(self.resources):
            raise AutomatonError(
                f"{len(self.processes)} processes but "
                f"{len(self.resources)} resources; the ring needs one "
                "resource per process"
            )
        if len(self.processes) < 2:
            raise AutomatonError("the ring needs at least two processes")

    def __hash__(self) -> int:
        # States are hashed constantly (transition memos, visited sets,
        # guard checks); the dataclass-generated hash rebuilds the field
        # tuple every call, so cache it on first use.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.processes, self.resources, self.time))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # Rebuild from the fields: a cached hash belongs to this
        # process's hash seed and must not travel.
        return type(self), (self.processes, self.resources, self.time)

    @property
    def n(self) -> int:
        """The number of processes (and resources) in the ring."""
        return len(self.processes)

    # ------------------------------------------------------------------
    # Ring geometry
    # ------------------------------------------------------------------

    def process(self, i: int) -> ProcessState:
        """``X_i`` (index modulo ``n``)."""
        return self.processes[i % self.n]

    def resource(self, j: int) -> bool:
        """``Res_j`` (index modulo ``n``); True means taken."""
        return self.resources[j % self.n]

    def resource_index(self, i: int, side: Side) -> int:
        """The index of ``Res_(i, side)``: process ``i``'s resource on ``side``.

        Right resource of process ``i`` is ``Res_i``; left is
        ``Res_{i-1}``.
        """
        if side is Side.RIGHT:
            return i % self.n
        return (i - 1) % self.n

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------

    def with_process(self, i: int, process_state: ProcessState) -> "LRState":
        """Copy with ``X_i`` replaced."""
        i %= self.n
        processes = (
            self.processes[:i] + (process_state,) + self.processes[i + 1 :]
        )
        return LRState(processes, self.resources, self.time)

    def with_resource(self, j: int, taken: bool) -> "LRState":
        """Copy with ``Res_j`` replaced."""
        j %= self.n
        resources = self.resources[:j] + (taken,) + self.resources[j + 1 :]
        return LRState(self.processes, resources, self.time)

    def with_time(self, time: Fraction) -> "LRState":
        """Copy with the clock replaced."""
        return LRState(self.processes, self.resources, time)

    def advanced(self, amount: Fraction) -> "LRState":
        """Copy with the clock advanced by ``amount``."""
        return self.with_time(self.time + amount)

    def untimed(self) -> Tuple[Tuple[ProcessState, ...], Tuple[bool, ...]]:
        """The state without its clock (memoisation key for dynamics)."""
        return (self.processes, self.resources)

    def __repr__(self) -> str:
        procs = " ".join(repr(p) for p in self.processes)
        res = "".join("T" if r else "." for r in self.resources)
        return f"LRState[{procs} | Res={res} | t={self.time}]"


def initial_state(n: int, sides: Optional[Sequence[Side]] = None) -> LRState:
    """The start state: all processes in ``R``, all resources free, time 0.

    The paper leaves each ``u_i`` arbitrary initially; callers may fix
    them via ``sides`` (default: all LEFT).
    """
    if sides is None:
        sides = [Side.LEFT] * n
    if len(sides) != n:
        raise AutomatonError(f"expected {n} sides, got {len(sides)}")
    return LRState(
        processes=tuple(process_state(PC.R, side) for side in sides),
        resources=tuple([FREE] * n),
        time=Fraction(0),
    )


def holds_right(process_state: ProcessState) -> bool:
    """Does a process in this local state hold its *right* resource?

    Lemma 6.1's first clause: ``Res_i`` is taken on account of process
    ``i`` iff ``X_i in {S->, D->, P, C, EF, ES->}``.
    """
    pc, u = process_state.pc, process_state.u
    if pc in (PC.P, PC.C, PC.EF):
        return True
    if pc in (PC.S, PC.D, PC.ES):
        return u is Side.RIGHT
    return False


def holds_left(process_state: ProcessState) -> bool:
    """Does a process in this local state hold its *left* resource?

    Lemma 6.1's second disjunct: ``Res_{i-1}`` is taken on account of
    process ``i`` iff ``X_i in {S<-, D<-, P, C, EF, ES<-}``.
    """
    pc, u = process_state.pc, process_state.u
    if pc in (PC.P, PC.C, PC.EF):
        return True
    if pc in (PC.S, PC.D, PC.ES):
        return u is Side.LEFT
    return False


def consistent_resources(
    processes: Sequence[ProcessState],
) -> Optional[Tuple[bool, ...]]:
    """Derive resource values from local states, if consistent.

    Returns the unique resource assignment making Lemma 6.1 hold, or
    ``None`` when two adjacent processes both claim the same resource
    (such a combination of local states is unreachable).  Used to build
    arbitrary invariant-respecting start states for experiments.
    """
    n = len(processes)
    resources = []
    for i in range(n):
        right_holder = holds_right(processes[i])
        left_holder = holds_left(processes[(i + 1) % n])
        if right_holder and left_holder:
            return None
        resources.append(TAKEN if (right_holder or left_holder) else FREE)
    return tuple(resources)


def make_state(
    local_states: Sequence[ProcessState], time: Fraction = Fraction(0)
) -> LRState:
    """Build a global state from local states, deriving the resources.

    Raises :class:`AutomatonError` when the local states are
    inconsistent (two adjacent holders of one resource) — by Lemma 6.1
    no such state is reachable, so refusing it keeps experiments honest.
    """
    resources = consistent_resources(local_states)
    if resources is None:
        raise AutomatonError(
            "inconsistent local states: two adjacent processes hold the "
            "same resource (unreachable by Lemma 6.1)"
        )
    return LRState(tuple(local_states), resources, time)

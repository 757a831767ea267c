"""The appendix lemmas (A.2, A.4–A.10, A.12, A.13) as executable claims.

The paper's detailed proof is a case analysis of conditional claims of
the form

    from any state satisfying H, if ``first(flip_j, side)`` (for one or
    two specific coins), then within time t a conclusion state is
    reached,

plus two probabilistic lemmas (A.12/A.13: probability at least 1/2).
This module encodes every one of them as data
(:class:`ConditionalLemma` / :class:`ProbabilisticLemma`) and checks
them *exactly*: hypothesis states are enumerated exhaustively from the
Lemma 6.1-consistent combinations of the constrained local states, and
:func:`check_lemma` minimises, over every strategy of the
round-synchronous Unit-Time subclass, the probability of reaching the
conclusion — for a conditional lemma, of reaching it or breaking a
``first(...)`` constraint (:func:`repro.mdp.bounded.min_reach_over_starts`
with ``watched``).  A conditional lemma passes when that minimum is 1,
i.e. its worst counterexample probability is zero; a probabilistic
lemma when the minimum meets its bound.

One transcription note: the symmetric clause of Lemma A.8 reads
``X_i in {E_R, R, F, D}`` in the paper; by the symmetry with the first
clause (whose ``D`` is annotated ``D->``, the side pointing *away* from
the shared resource) the intended set is ``{E_R, R, F, D<-}``, and that
is what we encode — with ``D->`` the claim is false (the adversary
fires ``i+1``'s doomed check first and nobody reaches ``P`` within
time 1), which our checker confirms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

from repro.algorithms.lehmann_rabin.automaton import (
    FLIP,
    LRProcessView,
    lehmann_rabin_automaton,
)
from repro.algorithms.lehmann_rabin.regions import (
    in_flip_ready,
    in_good,
    in_pre_critical,
)
from repro.algorithms.lehmann_rabin.state import (
    LRState,
    PC,
    ProcessState,
    SHARP_PCS,
    Side,
    consistent_resources,
    make_state,
    process_state,
)
from repro.automaton.signature import Action
from repro.errors import VerificationError
from repro.mdp.bounded import min_reach_over_starts

#: Every local state (pc, u) a process can occupy.
ALL_LOCALS: Tuple[ProcessState, ...] = tuple(
    process_state(pc, side) for pc in PC for side in Side
)


def locals_of(*pcs: PC) -> Tuple[ProcessState, ...]:
    """All local states whose counter is among ``pcs`` (both sides)."""
    return tuple(
        local for local in ALL_LOCALS if local.pc in pcs
    )


def pointing(pc: PC, side: Side) -> Tuple[ProcessState, ...]:
    """The single local state ``pc`` with the given side."""
    return (process_state(pc, side),)


#: ``{E_R, R, T}`` — the paper's "idle or trying" neighbour set.
ER_R_T = locals_of(PC.ER, PC.R, PC.F, PC.W, PC.S, PC.D, PC.P)
#: ``{E_R, R, F}``.
ER_R_F = locals_of(PC.ER, PC.R, PC.F)


def states_matching(
    n: int, constraints: Mapping[int, Sequence[ProcessState]]
) -> List[LRState]:
    """Every Lemma 6.1-consistent state meeting per-process constraints.

    Unconstrained processes range over all 20 local states, so the
    result covers the lemma's hypothesis exhaustively for ring size
    ``n``.  Keep ``n`` small (3 or 4): the product grows as 20^free.
    """
    menus = [
        tuple(constraints.get(i, ALL_LOCALS)) for i in range(n)
    ]
    states = []
    for combo in itertools.product(*menus):
        if consistent_resources(combo) is None:
            continue
        states.append(make_state(list(combo)))
    if not states:
        raise VerificationError("no consistent state satisfies the hypothesis")
    return states


@dataclass(frozen=True)
class ConditionalLemma:
    """A ``first(...) ⟹ reach-within-t`` claim over hypothesis states."""

    name: str
    description: str
    hypothesis_states: Tuple[LRState, ...]
    watched: Dict[Action, Callable[[LRState], bool]]
    time_bound: int
    conclusion: Callable[[LRState], bool]


@dataclass(frozen=True)
class ProbabilisticLemma:
    """A ``reach-within-t with probability >= p`` claim."""

    name: str
    description: str
    hypothesis_states: Tuple[LRState, ...]
    time_bound: int
    probability: Fraction
    conclusion: Callable[[LRState], bool]


def _flip_lands(i: int, side: Side) -> Callable[[LRState], bool]:
    """The first-occurrence constraint: ``flip_i`` yields ``side``."""

    def landed(state: LRState) -> bool:
        return state.process(i) == process_state(PC.W, side)

    return landed


def _any_in_p(*indices: int) -> Callable[[LRState], bool]:
    """Conclusion: one of the given processes is pre-critical."""

    def conclusion(state: LRState) -> bool:
        return any(state.process(i).pc is PC.P for i in indices)

    return conclusion


def lemma_a2(n: int, i: int = 0) -> ConditionalLemma:
    """A.2: a process in its exit region reaches ``R`` within time 3."""
    states = states_matching(n, {i: locals_of(PC.EF, PC.ES, PC.ER)})

    def conclusion(state: LRState, index: int = i) -> bool:
        return state.process(index).pc is PC.R

    return ConditionalLemma(
        name="A.2",
        description="an exiting process relinquishes and reaches R within 3",
        hypothesis_states=tuple(states),
        watched={},
        time_bound=3,
        conclusion=conclusion,
    )


def _a4_conclusion(n: int, i: int) -> Callable[[LRState], bool]:
    def conclusion(state: LRState) -> bool:
        return (
            state.process(i - 1).pc is PC.P
            or state.process(i).pc is PC.S
        )

    return conclusion


def lemma_a4(n: int, case: int, i: int = 1) -> ConditionalLemma:
    """A.4 items 1-4: neighbour sets {ER,R,F} / {D} / {S} / {W}.

    ``X_{i-1}`` in the case's set, ``X_i = W<-``, conditioned on
    ``first(flip_{i-1}, left)``; within time ``case`` either ``X_{i-1}``
    reaches ``P`` or ``X_i`` reaches ``S``.
    """
    neighbour_sets = {
        1: ER_R_F,
        2: locals_of(PC.D),
        3: locals_of(PC.S),
        4: locals_of(PC.W),
    }
    if case not in neighbour_sets:
        raise VerificationError(f"A.4 has items 1-4, not {case}")
    states = states_matching(
        n,
        {
            (i - 1) % n: neighbour_sets[case],
            i: pointing(PC.W, Side.LEFT),
        },
    )
    return ConditionalLemma(
        name=f"A.4.{case}",
        description=(
            "left-waiting process obtains its first resource, or the "
            "left neighbour enters P"
        ),
        hypothesis_states=tuple(states),
        watched={(FLIP, (i - 1) % n): _flip_lands((i - 1) % n, Side.LEFT)},
        time_bound=case,
        conclusion=_a4_conclusion(n, i),
    )


def lemma_a5(n: int, i: int = 1) -> ConditionalLemma:
    """A.5: the union of A.4's cases, with the uniform time bound 4."""
    states = states_matching(
        n, {(i - 1) % n: ER_R_T, i: pointing(PC.W, Side.LEFT)}
    )
    return ConditionalLemma(
        name="A.5",
        description="A.4 with X_{i-1} anywhere in {E_R, R, T}",
        hypothesis_states=tuple(states),
        watched={(FLIP, (i - 1) % n): _flip_lands((i - 1) % n, Side.LEFT)},
        time_bound=4,
        conclusion=_a4_conclusion(n, i),
    )


def lemma_a7(n: int, variant: str = "left", i: int = 0) -> ConditionalLemma:
    """A.7: two committed processes contesting one resource; no coins.

    ``X_i = S<-`` with ``X_{i+1}`` in {W->, S->} (variant "left"), or
    ``X_i`` in {W<-, S<-} with ``X_{i+1} = S->`` (variant "right"); one
    of the two enters ``P`` within time 1.
    """
    j = (i + 1) % n
    if variant == "left":
        constraints = {
            i: pointing(PC.S, Side.LEFT),
            j: pointing(PC.W, Side.RIGHT) + pointing(PC.S, Side.RIGHT),
        }
    elif variant == "right":
        constraints = {
            i: pointing(PC.W, Side.LEFT) + pointing(PC.S, Side.LEFT),
            j: pointing(PC.S, Side.RIGHT),
        }
    else:
        raise VerificationError(f"unknown A.7 variant {variant!r}")
    return ConditionalLemma(
        name=f"A.7 ({variant})",
        description="whoever tests the shared free resource first enters P",
        hypothesis_states=tuple(states_matching(n, constraints)),
        watched={},
        time_bound=1,
        conclusion=_any_in_p(i, j),
    )


def lemma_a8(n: int, variant: str = "left", i: int = 0) -> ConditionalLemma:
    """A.8: a committed process vs an uncommitted neighbour with a coin.

    Variant "left": ``X_i = S<-``, ``X_{i+1}`` in {E_R, R, F, D->},
    conditioned on ``first(flip_{i+1}, right)``.  Variant "right" is the
    mirror image (with the D annotated ``D<-``; see the module note on
    the paper's typo).
    """
    j = (i + 1) % n
    if variant == "left":
        constraints = {
            i: pointing(PC.S, Side.LEFT),
            j: ER_R_F + pointing(PC.D, Side.RIGHT),
        }
        watched = {(FLIP, j): _flip_lands(j, Side.RIGHT)}
    elif variant == "right":
        constraints = {
            i: ER_R_F + pointing(PC.D, Side.LEFT),
            j: pointing(PC.S, Side.RIGHT),
        }
        watched = {(FLIP, i): _flip_lands(i, Side.LEFT)}
    else:
        raise VerificationError(f"unknown A.8 variant {variant!r}")
    return ConditionalLemma(
        name=f"A.8 ({variant})",
        description=(
            "the committed process tests the shared resource within 1; "
            "the neighbour's constrained coin keeps it clear"
        ),
        hypothesis_states=tuple(states_matching(n, constraints)),
        watched=watched,
        time_bound=1,
        conclusion=_any_in_p(i, j),
    )


def _needs_three_processes(name: str, n: int) -> None:
    """A.9 and A.10 constrain three ring positions; on a smaller ring
    two of them are the same process and a different claim results."""
    if n < 3:
        raise VerificationError(
            f"lemma {name} names three processes and needs a ring of at "
            f"least 3, got {n}"
        )


def lemma_a9(n: int, i: int = 1) -> ConditionalLemma:
    """A.9: the three-process configuration around a left-waiting process.

    ``X_{i-1}`` in {E_R,R,T}, ``X_i = W<-``, ``X_{i+1}`` in
    {E_R,R,F,W->,D->}; conditioned on ``first(flip_{i-1}, left)`` and
    ``first(flip_{i+1}, right)``, one of the three enters ``P`` within
    time 5.
    """
    _needs_three_processes("A.9", n)
    h, j = (i - 1) % n, (i + 1) % n
    constraints = {
        h: ER_R_T,
        i: pointing(PC.W, Side.LEFT),
        j: ER_R_F
        + pointing(PC.W, Side.RIGHT)
        + pointing(PC.D, Side.RIGHT),
    }
    return ConditionalLemma(
        name="A.9",
        description="the paper's central three-process progress argument",
        hypothesis_states=tuple(states_matching(n, constraints)),
        watched={
            (FLIP, h): _flip_lands(h, Side.LEFT),
            (FLIP, j): _flip_lands(j, Side.RIGHT),
        },
        time_bound=5,
        conclusion=_any_in_p(h, i, j),
    )


def lemma_a10(n: int, i: int = 0) -> ConditionalLemma:
    """A.10: the mirror image of A.9."""
    _needs_three_processes("A.10", n)
    j, k = (i + 1) % n, (i + 2) % n
    constraints = {
        i: ER_R_F
        + pointing(PC.W, Side.LEFT)
        + pointing(PC.D, Side.LEFT),
        j: pointing(PC.W, Side.RIGHT),
        k: ER_R_T,
    }
    return ConditionalLemma(
        name="A.10",
        description="the symmetric case of A.9",
        hypothesis_states=tuple(states_matching(n, constraints)),
        watched={
            (FLIP, i): _flip_lands(i, Side.LEFT),
            (FLIP, k): _flip_lands(k, Side.RIGHT),
        },
        time_bound=5,
        conclusion=_any_in_p(i, j, k),
    )


def _goal_g_or_p(state: LRState) -> bool:
    return in_good(state) or in_pre_critical(state)


def lemma_a12(n: int) -> ProbabilisticLemma:
    """A.12: a flip-ready process with a non-surrounding neighbourhood.

    States of ``F`` containing a process ``i`` with ``X_i = F`` and
    ``(X_{i-1}, X_{i+1}) != (#->, #<-)``: with probability at least 1/2
    a state of ``G ∪ P`` is reached within time 1.
    """

    def hypothesis(state: LRState) -> bool:
        if not in_flip_ready(state):
            return False
        for i in range(state.n):
            if state.process(i).pc is not PC.F:
                continue
            left, right = state.process(i - 1), state.process(i + 1)
            surrounded = (
                left.pc in SHARP_PCS and left.u is Side.RIGHT
                and right.pc in SHARP_PCS and right.u is Side.LEFT
            )
            if not surrounded:
                return True
        return False

    states = [
        state
        for state in states_matching(n, {})
        if hypothesis(state)
    ]
    return ProbabilisticLemma(
        name="A.12",
        description="an unsurrounded flipper creates a good process",
        hypothesis_states=tuple(states),
        time_bound=1,
        probability=Fraction(1, 2),
        conclusion=_goal_g_or_p,
    )


def lemma_a13(n: int) -> ProbabilisticLemma:
    """A.13: every flip-ready process surrounded by opposing arrows.

    States of ``F`` where some ``X_i = F`` has
    ``(X_{i-1}, X_{i+1}) = (#->, #<-)``: with probability at least 1/2
    a state of ``G ∪ P`` is reached within time 2.
    """

    def hypothesis(state: LRState) -> bool:
        if not in_flip_ready(state):
            return False
        for i in range(state.n):
            if state.process(i).pc is not PC.F:
                continue
            left, right = state.process(i - 1), state.process(i + 1)
            if (
                left.pc in SHARP_PCS and left.u is Side.RIGHT
                and right.pc in SHARP_PCS and right.u is Side.LEFT
            ):
                return True
        return False

    states = [
        state
        for state in states_matching(n, {})
        if hypothesis(state)
    ]
    return ProbabilisticLemma(
        name="A.13",
        description="a surrounded flipper: the wrap-around case analysis",
        hypothesis_states=tuple(states),
        time_bound=2,
        probability=Fraction(1, 2),
        conclusion=_goal_g_or_p,
    )


def conditional_lemmas(n: int) -> List[ConditionalLemma]:
    """Every conditional appendix lemma, instantiated for ring size ``n``."""
    return [
        lemma_a2(n),
        lemma_a4(n, 1),
        lemma_a4(n, 2),
        lemma_a4(n, 3),
        lemma_a4(n, 4),
        lemma_a5(n),
        lemma_a7(n, "left"),
        lemma_a7(n, "right"),
        lemma_a8(n, "left"),
        lemma_a8(n, "right"),
        lemma_a9(n),
        lemma_a10(n),
    ]


def probabilistic_lemmas(n: int) -> List[ProbabilisticLemma]:
    """The two probabilistic appendix lemmas for ring size ``n``."""
    return [lemma_a12(n), lemma_a13(n)]


@dataclass(frozen=True)
class LemmaCheckResult:
    """Outcome of exactly checking one lemma over all hypothesis states."""

    name: str
    states_checked: int
    worst_value: Fraction
    holds: bool
    witness: object = None


def check_lemma(
    lemma: Union[ConditionalLemma, ProbabilisticLemma],
    n: int,
    max_states: int = 10_000,
) -> LemmaCheckResult:
    """Check one lemma exactly over (at most ``max_states`` of) its
    hypothesis states and every round-synchronous Unit-Time strategy.

    One sweep computes the minimum probability of reaching the
    conclusion — or, for a conditional lemma, of reaching it or
    breaking a watched constraint.  A conditional lemma reports the
    worst counterexample probability ``1 - minimum`` and holds iff the
    minimum is 1; a probabilistic lemma reports the minimum and holds
    iff it meets the lemma's bound.
    """
    states = lemma.hypothesis_states[:max_states]
    conditional = isinstance(lemma, ConditionalLemma)
    minimum, witness = min_reach_over_starts(
        lehmann_rabin_automaton(n),
        LRProcessView(n),
        lemma.conclusion,
        states,
        lemma.time_bound,
        strip_time=lambda s: s.untimed(),
        watched=lemma.watched if conditional else None,
    )
    return LemmaCheckResult(
        name=lemma.name,
        states_checked=len(states),
        worst_value=1 - minimum if conditional else minimum,
        holds=minimum == 1 if conditional else minimum >= lemma.probability,
        witness=witness,
    )

"""Exhaustive verification of the Section 6.2 statements (small rings).

For ``n = 3`` the set of Lemma 6.1-consistent states is small (4382),
so each leaf proposition can be checked over *every* state of its
region — no sampling — against *every* strategy of the
round-synchronous Unit-Time subclass.  This is the strongest statement
this reproduction makes: within the subclass, the propositions are
theorems of the model, machine-checked state by state.

The exhaustive sweep also reveals exactly how tight each bound is:
the true minimum of Proposition A.11 on the full ``G`` region is 1/2
(attained at ``F W<- W<-``), twice the paper's 1/4; the other four
leaves are deterministic (minimum 1) as the paper claims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from repro.algorithms.lehmann_rabin.automaton import (
    LRProcessView,
    lehmann_rabin_automaton,
    lr_time_of,
)
from repro.algorithms.lehmann_rabin.proof import leaf_statements
from repro.algorithms.lehmann_rabin.regions import T_CLASS, in_critical
from repro.algorithms.lehmann_rabin.state import (
    LRState,
    PC,
    Side,
    consistent_resources,
    make_state,
    process_state,
)
from repro.errors import StateBudgetExceeded, VerificationError
from repro.mdp.bounded import min_reach_over_starts
from repro.proofs.statements import StateClass
from repro.statespace.compile import CompiledSpace, compile_space, untimed_spec

_ALL_LOCALS = tuple(
    process_state(pc, side) for pc in PC for side in Side
)

_STATE_CACHE: Dict[int, Tuple[LRState, ...]] = {}


def all_consistent_states(n: int) -> Tuple[LRState, ...]:
    """Every Lemma 6.1-consistent global state for ring size ``n``.

    Grows as ~20^n before consistency filtering; intended for n <= 4.
    Results are cached per ``n``.
    """
    if n > 4:
        raise VerificationError(
            f"exhaustive enumeration is intended for n <= 4, got {n}"
        )
    cached = _STATE_CACHE.get(n)
    if cached is None:
        states: List[LRState] = []
        for combo in itertools.product(_ALL_LOCALS, repeat=n):
            if consistent_resources(combo) is None:
                continue
            states.append(make_state(list(combo)))
        cached = tuple(states)
        _STATE_CACHE[n] = cached
    return cached


@dataclass(frozen=True)
class ExhaustiveResult:
    """One proposition checked over its whole region."""

    name: str
    region: str
    states_checked: int
    bound: Fraction
    exact_minimum: Fraction
    witness: Optional[LRState]

    @property
    def holds(self) -> bool:
        """Does the exhaustive minimum meet the paper's bound?"""
        return self.exact_minimum >= self.bound

    @property
    def slack(self) -> Fraction:
        """How far above the paper's bound the true minimum sits."""
        return self.exact_minimum - self.bound


_LEAVES = leaf_statements()

#: name -> (region class, target predicate, rounds, paper bound) of the
#: five leaf propositions, in the row order ``repro exact`` prints (and
#: draws its start states in).
LEAF_SPECS: Dict[str, Tuple[StateClass, Callable, int, Fraction]] = {
    name: (
        _LEAVES[name].source,
        _LEAVES[name].target.contains,
        int(_LEAVES[name].time_bound),
        _LEAVES[name].probability,
    )
    for name in ("A.1", "A.3", "A.15", "A.14", "A.11")
}


def _exhaustive_space(
    automaton, members: List[LRState]
) -> Optional[CompiledSpace]:
    """One interned space shared by every start of a sweep.

    Compiled up to the clock from all region members at once; ``None``
    (falling back to rich-key memoisation) when the closure does not
    fit the default budget, so sweeps degrade instead of failing.
    """
    try:
        return compile_space(
            automaton,
            members,
            untimed_spec(lr_time_of),
        )
    except StateBudgetExceeded:
        return None


def _sweep(
    name: str,
    region: StateClass,
    target: Callable,
    rounds: int,
    bound: Fraction,
    n: int,
    limit: Optional[int] = None,
) -> ExhaustiveResult:
    """The exact minimum of ``region --rounds--> target`` over the region.

    The region's reachable space is compiled once and its interned ids
    key the memo table :func:`min_reach_over_starts` shares across all
    member states — neighbouring starts reuse almost every subproblem,
    which is what makes the full sweeps fast enough for the tier-1
    suite.
    """
    automaton = lehmann_rabin_automaton(n)
    members = [s for s in all_consistent_states(n) if region.contains(s)]
    if limit is not None:
        members = members[:limit]
    if not members:
        raise VerificationError(f"region {region.name!r} is empty for n={n}")
    minimum, witness = min_reach_over_starts(
        automaton, LRProcessView(n), target, members, rounds,
        strip_time=lambda s: s.untimed(),
        space=_exhaustive_space(automaton, members),
    )
    return ExhaustiveResult(
        name=name,
        region=region.name,
        states_checked=len(members),
        bound=bound,
        exact_minimum=minimum,
        witness=witness,
    )


def exhaustive_leaf_check(name: str, n: int = 3) -> ExhaustiveResult:
    """Check one leaf proposition over its entire region, exactly."""
    spec = LEAF_SPECS.get(name)
    if spec is None:
        raise VerificationError(
            f"unknown proposition {name!r}; choose from {sorted(LEAF_SPECS)}"
        )
    return _sweep(name, *spec, n)


def exhaustive_composed_check(
    n: int = 3, rounds: int = 13, limit: Optional[int] = None
) -> ExhaustiveResult:
    """``T --13--> C`` over (optionally the first ``limit``) T states.

    The full sweep over all 3896 T states takes about 12 seconds at
    n = 3 on a 2-CPU host; the tier-1 suite runs it with a limit.
    """
    return _sweep(
        "composed", T_CLASS, in_critical, rounds, Fraction(1, 8), n, limit
    )

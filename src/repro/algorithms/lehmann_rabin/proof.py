"""The Section 6.2 proof, reconstructed mechanically.

Five leaf statements (proved by hand in the paper's appendix, verified
empirically by this library's benchmarks) are combined with
Proposition 3.2 and Theorem 3.4 into ``T --13-->_{1/8} C``, and the
retry recursion of Section 6.2 yields the expected-time bound of 63.

This module also provides generators of invariant-consistent start
states inside each region, which the verification experiments sample
from (the paper's statements quantify over all reachable states of a
region; Lemma 6.1 characterises the reachable combinations of local
states, so sampling its solutions covers the quantifier fairly).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.algorithms.lehmann_rabin.regions import (
    C_CLASS,
    F_CLASS,
    G_CLASS,
    P_CLASS,
    RT_CLASS,
    T_CLASS,
)
from repro.algorithms.lehmann_rabin.state import (
    LRState,
    PC,
    Side,
    consistent_resources,
    make_state,
    process_state,
)
from repro.errors import VerificationError
from repro.proofs.expected_time import (
    RetryBranch,
    RetryRecursion,
    expected_time_upper_bound,
)
from repro.proofs.ledger import ProofLedger, StatementId
from repro.proofs.statements import ArrowStatement, StateClass

#: The adversary schema the whole proof quantifies over.
SCHEMA_NAME = "Unit-Time"


@dataclass(frozen=True)
class LRProofChain:
    """The reconstructed proof: ledger, leaf ids, and the final result."""

    ledger: ProofLedger
    leaf_ids: Dict[str, StatementId]
    final_id: StatementId

    @property
    def final_statement(self) -> ArrowStatement:
        """``T --13-->_{1/8} C``."""
        return self.ledger.statement(self.final_id)

    def leaf_statements(self) -> Dict[str, ArrowStatement]:
        """The five appendix propositions as arrow statements."""
        return {
            name: self.ledger.statement(statement_id)
            for name, statement_id in self.leaf_ids.items()
        }


def leaf_statements() -> Dict[str, ArrowStatement]:
    """The five phase statements of Section 6.2, as stated in the paper."""
    return {
        "A.3": ArrowStatement(T_CLASS, RT_CLASS | C_CLASS, 2, 1, SCHEMA_NAME),
        "A.15": ArrowStatement(
            RT_CLASS, F_CLASS | G_CLASS | P_CLASS, 3, 1, SCHEMA_NAME
        ),
        "A.14": ArrowStatement(
            F_CLASS, G_CLASS | P_CLASS, 2, Fraction(1, 2), SCHEMA_NAME
        ),
        "A.11": ArrowStatement(G_CLASS, P_CLASS, 5, Fraction(1, 4), SCHEMA_NAME),
        "A.1": ArrowStatement(P_CLASS, C_CLASS, 1, 1, SCHEMA_NAME),
    }


def lehmann_rabin_proof() -> LRProofChain:
    """Re-derive ``T --13-->_{1/8} C`` exactly as Section 6.2 does.

    The chain::

        T  --2-->_1    RT | C                    (Prop A.3)
        RT --3-->_1    F | G | P                 (Prop A.15)
        F  --2-->_1/2  G | P                     (Prop A.14)
        G  --5-->_1/4  P                         (Prop A.11)
        P  --1-->_1    C                         (Prop A.1)

    with Proposition 3.2 lifting the third and fourth statements to the
    needed unions, and Theorem 3.4 composing everything (Unit-Time is
    execution closed).
    """
    ledger = ProofLedger(SCHEMA_NAME, execution_closed=True)
    leaves = leaf_statements()
    ids = {
        name: ledger.assume(statement, evidence=f"Proposition {name}")
        for name, statement in leaves.items()
    }

    # F | G | P  --2-->_1/2  G | P   (Prop 3.2 with U'' = G | P)
    lifted_f = ledger.union(ids["A.14"], G_CLASS | P_CLASS)
    # G | P  --5-->_1/4  P           (Prop 3.2 with U'' = P)
    lifted_g = ledger.union(ids["A.11"], P_CLASS)
    # RT --11-->_1/8 C               (Thm 3.4, three compositions)
    rt_to_c = ledger.chain([ids["A.15"], lifted_f, lifted_g, ids["A.1"]])
    # RT | C --11-->_1/8 C           (Prop 3.2 with U'' = C; C ∪ C = C)
    lifted_rt = ledger.union(rt_to_c, C_CLASS)
    # T --13-->_1/8 C                (Thm 3.4 with Prop A.3)
    final = ledger.compose(ids["A.3"], lifted_rt)

    chain = LRProofChain(ledger=ledger, leaf_ids=ids, final_id=final)
    expected = ArrowStatement(
        T_CLASS, C_CLASS, 13, Fraction(1, 8), SCHEMA_NAME
    )
    if chain.final_statement != expected:
        raise VerificationError(
            f"derivation produced {chain.final_statement!r}, "
            f"expected {expected!r}"
        )
    return chain


def section_6_2_recursion() -> RetryRecursion:
    """The paper's retry recursion from ``RT``.

    ``V = 1/8 * 10 + 1/2 * (5 + V1) + 3/8 * (10 + V2)``:

    * success (reaching ``P`` within the window) with probability at
      least 1/8, after at most time 10;
    * failure at the third arrow (``F --2--> G|P`` misses) with
      probability at most 1/2, after time 5;
    * failure at the fourth arrow (``G --5--> P`` misses) with the
      remaining probability 3/8, after time 10.

    Solves to ``E[V] = 60``.
    """
    return RetryRecursion(
        [
            RetryBranch.of(Fraction(1, 8), 10, retries=False),
            RetryBranch.of(Fraction(1, 2), 5, retries=True),
            RetryBranch.of(Fraction(3, 8), 10, retries=True),
        ]
    )


def expected_time_bound() -> Fraction:
    """The paper's constant expected-time bound from ``T``: 63.

    2 (``T`` to ``RT``, Prop A.3) + 60 (the recursion, ``RT`` to ``P``)
    + 1 (``P`` to ``C``, Prop A.1).
    """
    return expected_time_upper_bound(2, section_6_2_recursion(), 1)


# ----------------------------------------------------------------------
# Start-state generators for the experiments
# ----------------------------------------------------------------------

#: Local states a process may occupy in an ``RT`` state.
_RT_PCS = (PC.R, PC.ER, PC.F, PC.W, PC.S, PC.D, PC.P)
#: All local program counters.
_ALL_PCS = tuple(PC)


def random_consistent_state(
    n: int,
    rng: random.Random,
    pcs: Sequence[PC] = _ALL_PCS,
    time: Fraction = Fraction(0),
) -> Optional[LRState]:
    """One random invariant-consistent state, or ``None`` on a clash.

    Draws each process's program counter and side uniformly from the
    menu and derives the resources; returns ``None`` when the drawn
    local states are unreachable (two adjacent holders).
    """
    locals_ = [
        process_state(rng.choice(pcs), rng.choice((Side.LEFT, Side.RIGHT)))
        for _ in range(n)
    ]
    if consistent_resources(locals_) is None:
        return None
    return make_state(locals_, time)


def sample_states_in(
    region: StateClass,
    n: int,
    count: int,
    rng: random.Random,
    pcs: Sequence[PC] = _ALL_PCS,
    max_attempts: int = 100_000,
) -> List[LRState]:
    """``count`` distinct invariant-consistent states inside ``region``.

    Rejection sampling over random consistent states; raises
    :class:`VerificationError` when the region appears too sparse for
    the attempt budget (a symptom of an inconsistent region/menu pair).
    """
    found: List[LRState] = []
    seen = set()
    for _ in range(max_attempts):
        if len(found) >= count:
            break
        state = random_consistent_state(n, rng, pcs)
        if state is None or not region.contains(state):
            continue
        key = state.untimed()
        if key in seen:
            continue
        seen.add(key)
        found.append(state)
    if len(found) < count:
        raise VerificationError(
            f"only found {len(found)}/{count} states in {region.name!r} "
            f"after {max_attempts} attempts"
        )
    return found


def canonical_states(n: int) -> Dict[str, LRState]:
    """Hand-picked representative states for each region.

    These are the configurations the paper's case analysis revolves
    around; experiments use them alongside random samples.
    """
    all_flip = make_state([process_state(PC.F, Side.LEFT)] * n)
    one_trying = make_state(
        [process_state(PC.F, Side.LEFT)]
        + [process_state(PC.R, Side.LEFT)] * (n - 1)
    )
    # A good process: 0 committed left, its left neighbour (n-1)
    # harmless (R), so 0's second resource (on the left) is clear.
    good_pair = make_state(
        [process_state(PC.W, Side.LEFT)]
        + [process_state(PC.W, Side.RIGHT)]
        + [process_state(PC.R, Side.LEFT)] * (n - 2)
    )
    # Everyone waiting, alternating sides where possible: heavy
    # contention, in RT.
    contended = make_state(
        [
            process_state(PC.W, Side.LEFT if i % 2 == 0 else Side.RIGHT)
            for i in range(n)
        ]
    )
    # A process about to enter: pre-critical.
    pre_critical = make_state(
        [process_state(PC.P, Side.LEFT)]
        + [process_state(PC.R, Side.LEFT)] * (n - 1)
    )
    # Trying but not reduced: a neighbour still holds both resources in
    # its exit region.
    with_exiter = make_state(
        [process_state(PC.F, Side.LEFT)]
        + [process_state(PC.EF, Side.LEFT)]
        + [process_state(PC.R, Side.LEFT)] * (n - 2)
    )
    return {
        "all_flip": all_flip,
        "one_trying": one_trying,
        "good_pair": good_pair,
        "contended": contended,
        "pre_critical": pre_critical,
        "with_exiter": with_exiter,
    }

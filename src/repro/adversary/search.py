"""Derandomised "random" policies: history-hashed round orders.

The paper's adversaries are deterministic functions of the history
(footnote 1 excludes randomised adversaries).  To explore the adversary
space broadly we still want arbitrary-looking strategies; the trick is
to *derandomise*: a :class:`HashedRandomRoundPolicy` derives every
choice from a cryptographic digest of the seed and the full history, so
it is a legitimate deterministic adversary, yet a family indexed by
seeds behaves like a random sample of scheduling strategies.

Because the statements under test are universally quantified lower
bounds, searching over many such adversaries and keeping the *minimum*
observed success probability is the empirical analogue of the paper's
"for all adversaries in the schema".
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Tuple, TypeVar

from repro.adversary.unit_time import (
    ADVANCE_TIME,
    Move,
    ProcessView,
    RoundPolicy,
    steps_of_process,
)
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.errors import AdversaryError

State = TypeVar("State", bound=Hashable)


def fragment_digest(seed: int, fragment: ExecutionFragment, extra: str = "") -> int:
    """A stable pseudo-random integer derived from ``(seed, fragment)``.

    Uses blake2b over the fragment's repr, so the value is a pure
    deterministic function of the history — independent of Python hash
    randomisation and stable across processes, which keeps experiments
    reproducible from their seeds.  The repr's body comes from
    :meth:`ExecutionFragment.rendered`, which the fragment keeps and
    its extensions grow, so a walk renders each state once.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(seed).encode())
    digest.update(b"ExecutionFragment(")
    digest.update(fragment.rendered().encode())
    digest.update(b")")
    digest.update(extra.encode())
    return int.from_bytes(digest.digest(), "big")


class HashedRandomRoundPolicy(RoundPolicy[State]):
    """A deterministic policy whose choices look random.

    At each decision point the pending process and (when a process has
    several enabled steps, e.g. the nondeterministic exit choice of
    Lehmann-Rabin) the step index are selected by hashing the seed with
    the entire history.  Distinct seeds give effectively independent
    scheduling strategies; every one of them is a valid Unit-Time
    adversary because only pending processes are scheduled and time
    advances only when no obligation remains.
    """

    def __init__(self, seed: int):
        self._seed = seed

    @property
    def seed(self) -> int:
        """The seed identifying this policy within the family."""
        return self._seed

    def next_move(
        self,
        automaton: ProbabilisticAutomaton[State],
        fragment: ExecutionFragment[State],
        pending: Tuple[Hashable, ...],
        view: ProcessView[State],
    ) -> Move:
        if not pending:
            return ADVANCE_TIME
        # A digest taken mod 1 is 0, so a lone candidate needs none.
        process = pending[0]
        if len(pending) > 1:
            pick = fragment_digest(self._seed, fragment, extra="process")
            process = pending[pick % len(pending)]
        steps = steps_of_process(automaton, fragment.lstate, view, process)
        if not steps:
            raise AdversaryError(
                f"process {process!r} is pending but has no enabled steps"
            )
        if len(steps) == 1:
            return steps[0]
        which = fragment_digest(self._seed, fragment, extra="step")
        return steps[which % len(steps)]

    def __repr__(self) -> str:
        return f"HashedRandomRoundPolicy(seed={self._seed})"


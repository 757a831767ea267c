"""Event schemas (Definition 2.5) as three-valued classifiers.

An event schema associates with each execution automaton ``H`` an event
of ``F_H`` — a measurable set of maximal executions of ``H``.  All the
events the paper uses (time-bounded reachability ``e_{U',t}``,
``first(a, U)``, ``next(...)``, and their boolean combinations) share a
convenient structure: membership of a maximal execution is determined by
a *finite-prefix classifier* plus a rule for executions in which the
deciding trigger never occurs.  We exploit that structure to compute
exact probabilities by walking the execution tree and pruning decided
subtrees.

A schema must implement:

* :meth:`EventSchema.classify` — for a finite fragment, return

  - ``ACCEPT`` when *every* maximal execution extending the fragment is
    in the event,
  - ``REJECT`` when *none* is,
  - ``UNDECIDED`` otherwise;

* :meth:`EventSchema.decide_maximal` — the verdict for a *maximal*
  execution whose every prefix classified ``UNDECIDED`` (for
  ``first(a, U)`` this is ``True``: the event contains executions where
  ``a`` never occurs; for reachability it is ``False``).

It may also override :meth:`EventSchema.classify_step`, the same
verdict for a fragment whose prefix is known to be ``UNDECIDED``; the
reachability schemas answer it from the last state alone.

Soundness requirement (checked property-style in the tests): once a
fragment classifies ``ACCEPT`` or ``REJECT``, every extension classifies
the same way.  The measure computation in
:mod:`repro.execution.measure` relies on this monotonicity.
"""

from __future__ import annotations

import abc
import enum
from typing import Generic, Hashable, TypeVar

from repro.automaton.execution import ExecutionFragment

State = TypeVar("State", bound=Hashable)


class EventStatus(enum.Enum):
    """Three-valued verdict of a finite-prefix event classifier."""

    ACCEPT = "accept"
    REJECT = "reject"
    UNDECIDED = "undecided"

    def negate(self) -> "EventStatus":
        """Swap ACCEPT and REJECT (complement of the event)."""
        if self is EventStatus.ACCEPT:
            return EventStatus.REJECT
        if self is EventStatus.REJECT:
            return EventStatus.ACCEPT
        return EventStatus.UNDECIDED


class EventSchema(Generic[State], abc.ABC):
    """Definition 2.5, in finite-prefix classifier form."""

    @abc.abstractmethod
    def classify(self, fragment: ExecutionFragment[State]) -> EventStatus:
        """The verdict determined by this finite prefix alone."""

    def classify_step(self, fragment: ExecutionFragment[State]) -> EventStatus:
        """:meth:`classify` for a fragment whose prefix is UNDECIDED.

        The caller guarantees that ``fragment`` minus its last step
        classifies UNDECIDED, as it does after every step of the
        sampler's walk.  The default re-runs :meth:`classify`; schemas
        whose verdict then depends on the last state alone override
        this, so classifying a sampled execution costs time linear in
        its length.
        """
        return self.classify(fragment)

    def decide_maximal(self, fragment: ExecutionFragment[State]) -> bool:
        """Verdict for a maximal execution still UNDECIDED at its end.

        Default ``False``: an event that waits for a trigger does not
        contain executions where the trigger never fires.  ``first`` and
        ``next`` override this (they *do* contain such executions).
        """
        return False

    def holds_on(self, fragment: ExecutionFragment[State], maximal: bool) -> bool:
        """Resolve a (possibly maximal) finite execution to a verdict.

        For use by samplers: ``maximal`` says whether the run ended
        because the adversary halted (True) or because sampling was
        truncated (False — then an UNDECIDED verdict is resolved
        pessimistically to False, keeping estimated lower bounds sound).
        """
        status = self.classify(fragment)
        if status is EventStatus.ACCEPT:
            return True
        if status is EventStatus.REJECT:
            return False
        if maximal:
            return self.decide_maximal(fragment)
        return False

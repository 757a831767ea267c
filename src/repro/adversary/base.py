"""Adversaries and adversary schemas (Definitions 2.2, 2.6, 3.3).

An adversary for ``M`` is a function taking a finite execution fragment
and returning either nothing (the adversary stops the system) or one of
the steps enabled in the fragment's last state.  Following the paper's
footnote 1, adversaries here are deterministic: the same fragment always
yields the same choice.

An *adversary schema* is a subset of the adversaries, represented
intensionally by a membership test plus a name.  The key structural
property is *execution closure* (Definition 3.3): for each adversary
``A`` in the schema and each finite fragment ``alpha`` there must be an
adversary ``A'`` in the schema with ``A'(alpha') = A(alpha ^ alpha')``.
The function :func:`shift` builds exactly that ``A'`` as a wrapper; a
schema declares itself execution closed when shifting does not leave it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    Callable,
    Generic,
    Hashable,
    Iterable,
    Optional,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.automaton.transition import Transition
from repro.errors import AdversaryError

State = TypeVar("State", bound=Hashable)


class Adversary(Generic[State], abc.ABC):
    """A deterministic adversary (Definition 2.2).

    Subclasses implement :meth:`choose`.  Returning ``None`` means the
    adversary halts the system (the paper's "nothing"); any returned
    step must be enabled in ``lstate(fragment)``, which
    :meth:`checked_choose` enforces.
    """

    @abc.abstractmethod
    def choose(
        self,
        automaton: ProbabilisticAutomaton[State],
        fragment: ExecutionFragment[State],
    ) -> Optional[Transition[State]]:
        """The step this adversary schedules after ``fragment``."""

    def checked_choose(
        self,
        automaton: ProbabilisticAutomaton[State],
        fragment: ExecutionFragment[State],
    ) -> Optional[Transition[State]]:
        """Like :meth:`choose` but validates the adversary's contract."""
        step = self.choose(automaton, fragment)
        if obs.enabled():
            obs.incr("adversary.decisions")
            if step is None:
                obs.incr("adversary.halts")
        if step is None:
            return None
        if step.source != fragment.lstate:
            raise AdversaryError(
                f"adversary returned a step from {step.source!r}, but the "
                f"fragment ends in {fragment.lstate!r}"
            )
        if step not in automaton.transitions(fragment.lstate):
            raise AdversaryError(
                f"adversary returned a step not enabled in {fragment.lstate!r}: "
                f"{step!r}"
            )
        return step


class FunctionAdversary(Adversary[State]):
    """Wrap a plain function as an adversary."""

    def __init__(
        self,
        fn: Callable[
            [ProbabilisticAutomaton[State], ExecutionFragment[State]],
            Optional[Transition[State]],
        ],
        name: str = "function-adversary",
    ):
        self._fn = fn
        self.name = name

    def choose(
        self,
        automaton: ProbabilisticAutomaton[State],
        fragment: ExecutionFragment[State],
    ) -> Optional[Transition[State]]:
        return self._fn(automaton, fragment)

    def __repr__(self) -> str:
        return f"FunctionAdversary({self.name})"


class ShiftedAdversary(Adversary[State]):
    """The adversary ``A'`` of Definition 3.3 for a given prefix.

    ``A'(alpha') = A(prefix ^ alpha')`` whenever
    ``lstate(prefix) == fstate(alpha')``.  This wrapper witnesses that
    *functional* execution closure always holds; whether the wrapper
    stays inside a particular schema is the schema's own claim.
    """

    def __init__(self, base: Adversary[State], prefix: ExecutionFragment[State]):
        self._base = base
        self._prefix = prefix

    @property
    def base(self) -> Adversary[State]:
        """The adversary being shifted."""
        return self._base

    @property
    def prefix(self) -> ExecutionFragment[State]:
        """The fragment prepended to every query."""
        return self._prefix

    def choose(
        self,
        automaton: ProbabilisticAutomaton[State],
        fragment: ExecutionFragment[State],
    ) -> Optional[Transition[State]]:
        if self._prefix.lstate != fragment.fstate:
            raise AdversaryError(
                "shifted adversary queried with a fragment that does not "
                f"start at {self._prefix.lstate!r}"
            )
        return self._base.choose(automaton, self._prefix.concat(fragment))


def shift(
    adversary: Adversary[State], prefix: ExecutionFragment[State]
) -> Adversary[State]:
    """Build the Definition 3.3 witness ``A'`` for ``adversary``.

    Shifting a shifted adversary composes the prefixes rather than
    nesting wrappers, keeping query cost linear.
    """
    if isinstance(adversary, ShiftedAdversary):
        return ShiftedAdversary(adversary.base, adversary.prefix.concat(prefix))
    return ShiftedAdversary(adversary, prefix)


@dataclass(frozen=True)
class AdversarySchema(Generic[State]):
    """A named subset of ``Advs_M`` (Definition 2.6).

    ``contains`` is the membership test.  ``execution_closed`` records
    the schema's claim that shifting stays inside it (Definition 3.3) —
    the hypothesis Theorem 3.4 needs.  ``generators`` optionally lists
    representative adversaries used by verifiers to approximate the
    universal quantification.
    """

    name: str
    contains: Callable[[Adversary[State]], bool]
    execution_closed: bool = False
    generators: Tuple[Adversary[State], ...] = field(default_factory=tuple)

    def check_membership(self, adversary: Adversary[State]) -> None:
        """Raise :class:`AdversaryError` when ``adversary`` is outside."""
        if not self.contains(adversary):
            raise AdversaryError(
                f"adversary {adversary!r} is not a member of schema {self.name!r}"
            )

    def spot_check_closure(
        self,
        adversary: Adversary[State],
        fragment: ExecutionFragment[State],
        rng,
        probes: int = 1,
    ) -> None:
        """Probe this schema's execution-closure claim (Definition 3.3).

        For ``probes`` seeded choices of a nonempty prefix of
        ``fragment``, shifts ``adversary`` by the prefix and asserts
        the shift is still a member by this schema's own ``contains``
        test.  Raises :class:`~repro.errors.ExecutionClosureError` on
        the first failure.  (The defining equation
        ``A'(alpha') = A(alpha ^ alpha')`` holds by construction for
        the :func:`shift` wrapper, so membership is the only claim
        left to test.)

        A passing check is evidence, not proof — the quantifiers in
        Definition 3.3 range over all members and all fragments.  A
        *failing* check is a definite counterexample: this schema is
        not execution closed, and Theorem 3.4 compositions proved
        against it are unsound.
        """
        from repro.errors import ExecutionClosureError

        if not self.execution_closed or len(fragment) == 0:
            return
        for _ in range(probes):
            cut = rng.randint(1, len(fragment))
            prefix = fragment.prefix_of_length(cut)
            shifted = shift(adversary, prefix)
            if not self.contains(shifted):
                raise ExecutionClosureError(
                    f"schema {self.name!r} claims execution_closed=True but "
                    f"rejects the shift of {adversary!r} by a sampled "
                    f"{cut}-step prefix",
                    state=prefix.lstate,
                    prefix=prefix,
                    site=f"closure:{self.name}",
                )

    def with_generators(
        self, generators: Iterable[Adversary[State]]
    ) -> "AdversarySchema[State]":
        """A copy of this schema with the given representative adversaries."""
        new_generators = tuple(generators)
        for adversary in new_generators:
            self.check_membership(adversary)
        return AdversarySchema(
            name=self.name,
            contains=self.contains,
            execution_closed=self.execution_closed,
            generators=new_generators,
        )


def all_adversaries_schema(name: str = "Advs") -> AdversarySchema:
    """The schema of *all* deterministic adversaries.

    Trivially execution closed: shifting any adversary yields another
    adversary.
    """
    return AdversarySchema(
        name=name, contains=lambda adversary: True, execution_closed=True
    )


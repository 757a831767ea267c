"""The pluggable model protocol: what a case study must provide.

The paper's proof technique — Unit-Time arrow statements, expected-time
composition, MDP lower bounds — is model-agnostic, and so is the whole
verification stack below :mod:`repro.analysis`: engines, guards,
parallel pools, the corpus runner, and the job service all operate on an
automaton, an adversary family, and a handful of predicates.  A
:class:`Model` packages those ingredients declaratively so every
subsystem works on any registered case study; the registry in
:mod:`repro.models.registry` maps ``--model`` names to instances.

Only code under :mod:`repro.models` and :mod:`repro.algorithms` may
import a registered case study's algorithm package (enforced by
``tools/lint.py``); the rest of the stack reaches them exclusively
through this protocol.  ``repro.algorithms.coins`` (Example 4.1) and
``repro.algorithms.ordered`` are not registered models and stay
outside the rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Tuple,
)

from repro.adversary.base import Adversary, AdversarySchema
from repro.errors import VerificationError
from repro.proofs.ledger import ProofLedger, StatementId
from repro.proofs.statements import ArrowStatement, StateClass
from repro.statespace.compile import SpaceSpec, untimed_key, untimed_spec


@dataclass(frozen=True)
class ProofChain:
    """A minimal composed-proof handle: a ledger and its final claim.

    The Lehmann-Rabin and election case studies build richer chain
    objects; models whose end-to-end claim is a single hand-derived
    statement (Ben-Or, Herman) wrap it in this one-assumption chain so
    ``repro chain`` can explain every model uniformly.
    """

    ledger: ProofLedger
    final_id: StatementId

    @property
    def final_statement(self) -> ArrowStatement:
        return self.ledger.statement(self.final_id)


@dataclass(frozen=True)
class Model:
    """One registered case study, described declaratively.

    The callables are keyed by the instance size ``n`` so a single
    registry entry covers a whole family of instances.  Prose fields
    (``size_noun``, ``target_label``, ...) parameterize CLI banners —
    the ``lr`` model's values reproduce the historical Lehmann-Rabin
    output byte for byte.
    """

    #: Registry key, e.g. ``"lr"`` — also the span-name prefix
    #: (``lr.setup_build``, ``lr.check_leaf``, ``lr.expected_time``).
    name: str
    #: Human title used in banners, e.g. ``"Lehmann-Rabin"``.
    title: str
    #: One-line description for ``repro models``.
    description: str
    #: What ``n`` counts, as used in banners: ``"ring size"``.
    size_noun: str
    #: Capitalised sweep banner prefix: ``"Ring-size"``.
    sweep_noun: str
    #: The expected-time target, as used in banners: ``"the critical
    #: region"``.
    target_label: str
    #: The adversary schema name claims are proved against.
    schema_name: str
    #: Default instance size and the human-readable legal range.
    n_default: int
    n_range: str
    #: The proposition ``repro check`` verifies when ``--prop`` is
    #: omitted.
    default_prop: str
    #: Instance-size validation; raises VerificationError on a size
    #: outside the model's legal range.
    validate_n: Callable[[int], None]
    #: Build the full experiment setup (automaton, view, adversary
    #: family, schema) for one instance.
    build: Callable[[int], "ExperimentSetup"]
    #: Read a state's clock.
    time_of: Callable[[Any], Fraction]
    #: The checkable leaf statements, keyed by proposition name.
    leaf_statements: Callable[[int], Dict[str, ArrowStatement]]
    #: The composed end-to-end proof.
    proof_chain: Callable[[int], Any]
    #: The claimed expected-time bound to :attr:`target`.
    expected_time_bound: Callable[[int], Fraction]
    #: The statement whose source region seeds the expected-time
    #: measurement (``A.3``'s ``T`` region for Lehmann-Rabin).
    time_source_statement: Callable[[int], ArrowStatement]
    #: The expected-time target predicate (e.g. "in the critical
    #: region", "a leader is elected", "stabilized").
    target: Callable[[Any], bool]
    #: Named pivotal configurations, always included as start states
    #: when they fall in a checked statement's source region.
    canonical_states: Callable[[int], Dict[str, Any]]
    #: Sample states in a region: ``(region, n, count, rng) -> states``.
    sample_states_in: Callable[
        [StateClass, int, int, random.Random], List[Any]
    ]
    #: The reference start state for MDP value iteration.
    mdp_reference: Callable[[int], Any]
    #: Strip a state to its untimed interning/dedup key.
    untimed: Callable[[Any], Hashable] = untimed_key
    #: Default sweep sizes for ``repro sweep`` when ``--sizes`` is
    #: omitted.
    sweep_sizes: Tuple[int, ...] = (3, 4, 5)


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything needed to run verification experiments on one instance.

    The automaton, the process view backing Unit-Time scheduling, the
    named adversary family, and the declared schema, as a model's
    ``build(n)`` returns them.  ``model`` back-references the registry
    entry so the generic analysis layer can reach the model's
    predicates and its compile quotient.
    """

    n: int
    automaton: Any
    view: Any
    adversaries: Tuple[Tuple[str, Adversary], ...]
    #: The schema the family is declared to range over; the guard layer
    #: checks membership and probes execution closure against it.
    schema: Optional[AdversarySchema] = None
    #: The registry entry this setup was built from.
    model: Optional[Model] = field(default=None, repr=False)

    def space_spec(self) -> SpaceSpec:
        """The compile quotient for this instance: states up to the
        clock, by the model's own ``untimed`` and ``time_of``."""
        model = require_model(self)
        return untimed_spec(model.time_of, model.untimed)


def require_model(setup: ExperimentSetup) -> Model:
    """The setup's model, or a typed error for hand-rolled setups."""
    if setup.model is None:
        raise VerificationError(
            "experiment setup carries no model; build setups through "
            "repro.models.get_model(name).build(n)"
        )
    return setup.model


def single_statement_chain(
    schema_name: str, statement: ArrowStatement, evidence: str
) -> ProofChain:
    """Wrap one hand-derived statement as a ledger-backed chain."""
    ledger = ProofLedger(schema_name, execution_closed=True)
    final = ledger.assume(statement, evidence=evidence)
    return ProofChain(ledger=ledger, final_id=final)


def sample_states_by_walk(
    automaton: Any,
    region: StateClass,
    count: int,
    rng: random.Random,
    *,
    advance_time: bool = False,
    untimed: Callable[[Any], Hashable] = untimed_key,
    max_steps: int = 10_000,
) -> List[Any]:
    """Harvest distinct region states from a random walk.

    A generic region sampler for models without a closed-form state
    generator: walk the automaton from a random start, taking uniformly
    random enabled steps and resolving each target distribution with
    ``rng``, and collect distinct (up to ``untimed``) states the region
    contains.  Harvested states are reachable by construction, hence
    consistent with every model invariant.  ``advance_time`` keeps or
    skips pure time-passage self-advances (skipped by default so the
    walk spends its budget on structural progress).
    """
    found: List[Any] = []
    seen: set = set()
    state = rng.choice(automaton.start_states)
    for _ in range(max_steps):
        if len(found) >= count:
            break
        if region.contains(state):
            key = untimed(state)
            if key not in seen:
                seen.add(key)
                found.append(state)
                if len(found) >= count:
                    break
        steps = [
            step
            for step in automaton.transitions(state)
            if advance_time or len(step.target.support) > 1
            or untimed(next(iter(step.target.support))) != untimed(state)
        ]
        if not steps:
            state = rng.choice(automaton.start_states)
            continue
        step = rng.choice(steps)
        state = step.target.sample(rng)
    return found

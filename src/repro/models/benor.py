"""Ben-Or randomized consensus as a registered model.

The method-generality case study for asynchronous consensus with crash
faults: the registered instance runs on the adversarially hardest
split-input vector (alternating 0/1) with the default crash tolerance
``f = (n-1)//2``, checks the hand-derived progress statement of
:mod:`repro.algorithms.benor.claims`, and measures expected decision
time from the protocol start.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro import obs
from repro.adversary.unit_time import (
    FifoRoundPolicy,
    ReversedRoundPolicy,
    RotatingRoundPolicy,
    RoundBasedAdversary,
    unit_time_schema,
)
from repro.algorithms import benor
from repro.errors import VerificationError
from repro.models.base import (
    ExperimentSetup,
    Model,
    single_statement_chain,
)
from repro.models.registry import register_model
from repro.proofs.statements import StateClass


def _validate_n(n: int) -> None:
    if n < 2:
        raise VerificationError(
            f"Ben-Or consensus needs at least two processes, got {n}"
        )


def _split_inputs(n: int) -> Tuple[int, ...]:
    """The alternating input vector: maximal initial disagreement."""
    return tuple(i % 2 for i in range(n))


def _build(n: int) -> ExperimentSetup:
    """Automaton, view, and round-based adversary family for ``n``."""
    _validate_n(n)
    with obs.span("benor.setup_build", n=n):
        view = benor.BenOrProcessView(n)
        adversaries = tuple(
            (name, RoundBasedAdversary(view, policy))
            for name, policy in (
                ("fifo", FifoRoundPolicy()),
                ("reversed", ReversedRoundPolicy()),
                ("rotating", RotatingRoundPolicy()),
            )
        )
        return ExperimentSetup(
            n=n,
            automaton=benor.benor_automaton(_split_inputs(n)),
            view=view,
            adversaries=adversaries,
            schema=unit_time_schema(view),
            model=BENOR_MODEL,
        )


def _canonical_states(n: int) -> dict:
    """Protocol starts for the pivotal input vectors."""
    return {
        "split_inputs": benor.benor_initial_state(_split_inputs(n)),
        "all_zero": benor.benor_initial_state((0,) * n),
        "all_one": benor.benor_initial_state((1,) * n),
    }


def _sample_states_in(
    region: StateClass, n: int, count: int, rng: random.Random
) -> List[benor.BenOrState]:
    """Region sampler: protocol starts over random input vectors.

    The only source region of the shipped claims is ``Init`` (the
    protocol has not begun), whose members are exactly the per-input
    start states; sampling a random input vector per attempt covers it.
    """
    found = []
    for _ in range(count):
        inputs = tuple(rng.randint(0, 1) for _ in range(n))
        state = benor.benor_initial_state(inputs)
        if region.contains(state):
            found.append(state)
    return found


BENOR_MODEL = register_model(
    Model(
        name="benor",
        title="Ben-Or consensus",
        description=(
            "Ben-Or randomized binary consensus with crash faults "
            "(f = (n-1)//2, split inputs)"
        ),
        size_noun="system size",
        sweep_noun="System-size",
        target_label="a first decision",
        schema_name=benor.BENOR_SCHEMA,
        n_default=3,
        n_range="n >= 2 (state space grows quickly; n <= 4 recommended)",
        default_prop="B.1",
        validate_n=_validate_n,
        build=_build,
        time_of=benor.benor_time_of,
        leaf_statements=lambda n: {
            "B.1": benor.benor_progress_statement(n)
        },
        proof_chain=lambda n: single_statement_chain(
            benor.BENOR_SCHEMA,
            benor.benor_progress_statement(n),
            evidence=(
                "two Unit-Time rounds (4 units each, plus 2 of "
                "crash-induced stutter); with probability >= 2^-n all "
                "estimates agree after one adversarial round and a "
                "unanimous round decides deterministically"
            ),
        ),
        expected_time_bound=lambda n: benor.benor_expected_time_bound(n),
        time_source_statement=lambda n: benor.benor_progress_statement(n),
        target=benor.some_decided,
        canonical_states=_canonical_states,
        sample_states_in=_sample_states_in,
        mdp_reference=lambda n: benor.benor_initial_state(_split_inputs(n)),
        sweep_sizes=(2, 3),
    )
)

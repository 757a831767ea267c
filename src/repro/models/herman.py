"""Herman's self-stabilizing token ring as a registered model.

The new case study shipped with the pluggable front-end: an odd ring of
bit-holding processes, a fair coin by default (the biased variants are
one ``bias`` argument away) and the ``Top -> Reduced`` collapse
statement.  See
:mod:`repro.algorithms.herman.claims` for the derivation and the
``n > 3`` caveat.
"""

from __future__ import annotations

import random
from typing import List

from repro import obs
from repro.adversary.unit_time import (
    FifoRoundPolicy,
    ReversedRoundPolicy,
    RotatingRoundPolicy,
    RoundBasedAdversary,
    unit_time_schema,
)
from repro.algorithms import herman
from repro.errors import VerificationError
from repro.models.base import (
    ExperimentSetup,
    Model,
    sample_states_by_walk,
    single_statement_chain,
)
from repro.models.registry import register_model
from repro.proofs.statements import StateClass


def _validate_n(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise VerificationError(
            f"Herman's ring needs an odd number of processes >= 3, got {n}"
        )


def _build(n: int) -> ExperimentSetup:
    """Automaton, view, and round-based adversary family for ``n``."""
    _validate_n(n)
    with obs.span("herman.setup_build", n=n):
        view = herman.HermanProcessView(n)
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
            automaton=herman.herman_automaton(n),
            view=view,
            adversaries=adversaries,
            schema=unit_time_schema(view),
            model=HERMAN_MODEL,
        )


def _canonical_states(n: int) -> dict:
    """The pivotal configurations: both all-token starts, one legal."""
    single = (0,) * (n - 1) + (1,)
    return {
        "all_ones": herman.herman_initial_state(n, 1),
        "all_zeros": herman.herman_initial_state(n, 0),
        "single_token": herman.herman_fresh_state(single),
    }


def _sample_states_in(
    region: StateClass, n: int, count: int, rng: random.Random
) -> List[herman.HermanState]:
    """Region sampler: fresh coin fills first, then a reachability walk.

    The ``Top`` source region contains exactly the two fresh all-equal
    configurations, so coin-filled fresh states cover it outright; any
    other region (``Reduced``, ``Stable``) is harvested from a random
    walk, whose states are reachable hence invariant-consistent.
    """
    found = []
    for _ in range(count):
        state = herman.herman_initial_state(n, rng.randint(0, 1))
        if region.contains(state):
            found.append(state)
    if found:
        return found
    return sample_states_by_walk(
        herman.herman_automaton(n), region, count, rng
    )


HERMAN_MODEL = register_model(
    Model(
        name="herman",
        title="Herman self-stabilization",
        description=(
            "Herman's probabilistic self-stabilizing token ring "
            "(odd ring, coin-flipping token holders)"
        ),
        size_noun="ring size",
        sweep_noun="Ring-size",
        target_label="the reduced-token region",
        schema_name=herman.HERMAN_SCHEMA,
        n_default=3,
        n_range="odd n >= 3 (n <= 5 compiles within the default budget)",
        default_prop="H.1",
        validate_n=_validate_n,
        build=_build,
        time_of=herman.herman_time_of,
        leaf_statements=lambda n: {
            "H.1": herman.herman_progress_statement(n)
        },
        proof_chain=lambda n: single_statement_chain(
            herman.HERMAN_SCHEMA,
            herman.herman_progress_statement(n),
            evidence=(
                "one synchronous round from the all-tokens region "
                "commits n independent coin flips; the pattern survives "
                "only when all n agree (probability p^n + (1-p)^n)"
            ),
        ),
        expected_time_bound=lambda n: herman.herman_expected_time_bound(n),
        time_source_statement=lambda n: herman.herman_progress_statement(n),
        target=herman.in_reduced,
        canonical_states=_canonical_states,
        sample_states_in=_sample_states_in,
        mdp_reference=lambda n: herman.herman_initial_state(n),
        sweep_sizes=(3, 5),
    )
)

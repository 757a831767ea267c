"""The coin-flipping leader election as a registered model.

Section 7's method-generality case study: candidates repeatedly flip
synchronized coin rounds, losers withdraw, and the level statements
``D_k --3-->_{1/2} D_{k-1} | L`` compose into an end-to-end election
bound (:mod:`repro.algorithms.election.proof`).  Mid-race start states
for the inner level statements are harvested from reachability walks,
so every sampled configuration is consistent by construction.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro import obs
from repro.adversary.unit_time import (
    FifoRoundPolicy,
    ReversedRoundPolicy,
    RotatingRoundPolicy,
    RoundBasedAdversary,
    unit_time_schema,
)
from repro.algorithms import election
from repro.errors import VerificationError
from repro.models.base import ExperimentSetup, Model, sample_states_by_walk
from repro.models.registry import register_model
from repro.proofs.statements import ArrowStatement, StateClass


def _validate_n(n: int) -> None:
    if n < 2:
        raise VerificationError(
            f"an election needs at least two candidates, got {n}"
        )


def _build(n: int) -> ExperimentSetup:
    """Automaton, view, and round-based adversary family for ``n``."""
    _validate_n(n)
    with obs.span("election.setup_build", n=n):
        view = election.ElectionProcessView(n)
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
            automaton=election.election_automaton(n),
            view=view,
            adversaries=adversaries,
            schema=unit_time_schema(view),
            model=ELECTION_MODEL,
        )


def _leaf_statements(n: int) -> Dict[str, ArrowStatement]:
    """``E.k`` is the level-``k`` statement; ``E.1`` the base case."""
    _validate_n(n)
    leaves: Dict[str, ArrowStatement] = {}
    for k in range(n, 1, -1):
        leaves[f"E.{k}"] = election.level_statement(k)
    leaves["E.1"] = election.base_statement()
    return leaves


def _sample_states_in(
    region: StateClass, n: int, count: int, rng: random.Random
) -> List[election.ElectionState]:
    """Harvest region states from a reachability walk.

    Mid-race configurations (the ``D_k`` sources for ``k < n``) have
    nontrivial invariants — withdrawn candidates, barrier phases — so
    rather than a closed-form generator the sampler walks the automaton
    and keeps distinct region members it encounters.
    """
    return sample_states_by_walk(
        election.election_automaton(n), region, count, rng
    )


def _canonical_states(n: int) -> dict:
    """The all-active start: the worst (slowest) configuration."""
    return {"initial": election.election_initial_state(n)}


ELECTION_MODEL = register_model(
    Model(
        name="election",
        title="leader election",
        description=(
            "coin-flipping leader election among n candidates "
            "(Section 7 method generality)"
        ),
        size_noun="candidate count",
        sweep_noun="Candidate-count",
        target_label="a declared leader",
        schema_name=election.ELECTION_SCHEMA,
        n_default=4,
        n_range="n >= 2",
        default_prop="composed",
        validate_n=_validate_n,
        build=_build,
        time_of=election.election_time_of,
        leaf_statements=_leaf_statements,
        proof_chain=lambda n: election.election_proof(n),
        expected_time_bound=lambda n: (
            election.election_expected_time_bound(n)
        ),
        time_source_statement=lambda n: election.level_statement(n),
        target=election.leader_elected,
        canonical_states=_canonical_states,
        sample_states_in=_sample_states_in,
        mdp_reference=lambda n: election.election_initial_state(n),
        sweep_sizes=(3, 4, 5),
    )
)

"""High-level Monte-Carlo experiment runner for arrow statements.

Wraps :mod:`repro.proofs.verifier` with the model-level specifics:
building the automaton and adversary family for an instance size,
sampling region start states, and aggregating per-claim results into
the rows the benchmarks print.  All model knowledge flows through the
:class:`~repro.models.base.Model` protocol: a setup comes from
``get_model(name).build(n)``, and the same functions serve every
registered model.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro import obs
from repro.contracts import GuardConfig
from repro.errors import VerificationError
from repro.models.base import ExperimentSetup, require_model
from repro.parallel.pool import RunPolicy
from repro.parallel.seeds import derive_rng, derive_seed
from repro.proofs.statements import ArrowStatement
from repro.proofs.verifier import (
    ArrowCheckReport,
    TimeToTargetReport,
    check_arrow_by_sampling,
    measure_time_to_target,
)

__all__ = [
    "check_all_leaves",
    "check_statement",
    "measure_expected_time",
    "start_states_for",
]


def start_states_for(
    statement: ArrowStatement,
    setup: ExperimentSetup,
    rng: random.Random,
    random_count: int = 6,
) -> List:
    """Start states in the statement's source region: canonical + random.

    Canonical states that happen to fall in the source region are always
    included so the model's pivotal configurations are covered; random
    invariant-consistent states fill out the quantifier.
    """
    model = require_model(setup)
    states = [
        state
        for state in model.canonical_states(setup.n).values()
        if statement.source.contains(state)
    ]
    seen = {model.untimed(state) for state in states}
    if random_count > 0:
        for state in model.sample_states_in(
            statement.source, setup.n, random_count, rng
        ):
            if model.untimed(state) not in seen:
                seen.add(model.untimed(state))
                states.append(state)
    if not states:
        raise VerificationError(
            f"no start states found in {statement.source.name!r}"
        )
    return states


def check_statement(
    statement: ArrowStatement,
    setup: ExperimentSetup,
    seed: int = 0,
    samples_per_pair: int = 120,
    random_starts: int = 6,
    max_steps: int = 400,
    *,
    workers: int = 1,
    early_stop: bool = False,
    policy: Optional[RunPolicy] = None,
    guards: Optional[GuardConfig] = None,
    engine: str = "tree",
    state_budget: Optional[int] = None,
) -> ArrowCheckReport:
    """Monte-Carlo check of one arrow statement on a model instance.

    Start-state selection and pair sampling draw from *independent*
    child seeds of ``seed``: changing ``random_starts`` only adds or
    removes start states, it never perturbs the sample streams of the
    pairs both configurations share — so configs are comparable and
    the sequential and parallel backends agree.

    ``policy`` (timeouts, retries, checkpoint/resume, fault injection)
    hardens the run without changing the report — see
    ``docs/robustness.md``.  ``guards`` selects the contract-check mode
    (``docs/contracts.md``); the setup's declared schema backs the
    membership and execution-closure checks.  ``engine`` selects the
    evaluation strategy and ``state_budget`` the compile cap
    (``docs/statespace.md``); reports are byte-identical across engines.
    """
    model = require_model(setup)
    starts_rng = derive_rng(seed, "starts")
    starts = start_states_for(statement, setup, starts_rng, random_starts)
    return check_arrow_by_sampling(
        setup.automaton,
        statement,
        list(setup.adversaries),
        starts,
        model.time_of,
        samples_per_pair=samples_per_pair,
        max_steps=max_steps,
        seed=derive_seed(seed, "pairs"),
        workers=workers,
        early_stop=early_stop,
        policy=policy,
        schema=setup.schema,
        guards=guards,
        engine=engine,
        space_spec=setup.space_spec(),
        state_budget=state_budget,
    )


def check_all_leaves(
    setup: ExperimentSetup,
    seed: int = 0,
    samples_per_pair: int = 120,
    *,
    workers: int = 1,
    early_stop: bool = False,
    policy: Optional[RunPolicy] = None,
    guards: Optional[GuardConfig] = None,
    engine: str = "tree",
    state_budget: Optional[int] = None,
) -> Dict[str, ArrowCheckReport]:
    """Check every leaf statement of the model; keyed by proposition."""
    model = require_model(setup)
    reports: Dict[str, ArrowCheckReport] = {}
    for name, statement in model.leaf_statements(setup.n).items():
        with obs.span(f"{model.name}.check_leaf", proposition=name):
            reports[name] = check_statement(
                statement, setup, seed=seed,
                samples_per_pair=samples_per_pair, workers=workers,
                early_stop=early_stop, policy=policy, guards=guards,
                engine=engine, state_budget=state_budget,
            )
    return reports


def measure_expected_time(
    setup: ExperimentSetup,
    seed: int = 0,
    samples: int = 150,
    max_steps: int = 30_000,
    *,
    workers: int = 1,
    policy: Optional[RunPolicy] = None,
    guards: Optional[GuardConfig] = None,
    engine: str = "tree",
    state_budget: Optional[int] = None,
) -> Dict[str, TimeToTargetReport]:
    """Measure time-to-target from source states under every adversary.

    The model's claimed bound (``Model.expected_time_bound``) must
    dominate every Unit-Time adversary's mean; for Lehmann-Rabin that
    is the paper's 63 to the critical region from ``T`` states.
    Reports per-adversary sample means and maxima.  As in
    :func:`check_statement`, start selection and each adversary's time
    sampling use independent child seeds of ``seed``.
    """
    model = require_model(setup)
    starts_rng = derive_rng(seed, "starts")
    final = model.time_source_statement(setup.n)
    starts = start_states_for(final, setup, starts_rng, random_count=6)
    reports: Dict[str, TimeToTargetReport] = {}
    with obs.span(
        f"{model.name}.expected_time", n=setup.n, samples=samples
    ):
        for name, adversary in setup.adversaries:
            reports[name] = measure_time_to_target(
                setup.automaton,
                name,
                adversary,
                starts,
                model.target,
                model.time_of,
                samples=samples,
                max_steps=max_steps,
                seed=derive_seed(seed, "time", name),
                workers=workers,
                policy=policy,
                schema=setup.schema,
                guards=guards,
                engine=engine,
                space_spec=setup.space_spec(),
                state_budget=state_budget,
            )
    return reports


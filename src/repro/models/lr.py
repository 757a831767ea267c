"""The Lehmann-Rabin dining-philosophers model (the paper's subject).

Registers the original case study — the automaton of Section 5, the
Unit-Time adversary family and the Section 6.2 proof chain — under the
name ``lr``, which is also the ``--model`` default.  Building through
the registry is byte-identical to the historical hard-wired pipeline:
span names, banner prose, seed derivations, and start-state selection
are all unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs
from repro.adversary.unit_time import unit_time_schema
from repro.algorithms import lehmann_rabin as lr
from repro.errors import VerificationError
from repro.models.base import ExperimentSetup, Model
from repro.models.registry import register_model


def _build(
    n: int,
    max_rounds: Optional[int] = None,
    random_seeds: Sequence[int] = (1, 2, 3),
) -> ExperimentSetup:
    """Automaton, view, and Unit-Time adversary family for ``n``.

    ``max_rounds`` caps the round-based adversaries and
    ``random_seeds`` picks the derandomised-random members of the
    family; the registry calls it with ``n`` alone.
    """
    with obs.span("lr.setup_build", n=n):
        view = lr.LRProcessView(n)
        return ExperimentSetup(
            n=n,
            automaton=lr.lehmann_rabin_automaton(n),
            view=view,
            adversaries=tuple(
                lr.lr_adversary_family(
                    view, max_rounds=max_rounds, random_seeds=random_seeds
                )
            ),
            schema=unit_time_schema(view),
            model=LR_MODEL,
        )


def _validate_n(n: int) -> None:
    if n < 2:
        raise VerificationError(
            f"the Lehmann-Rabin ring needs at least two processes, got {n}"
        )


def lr_exact_commands():
    """The Lehmann-Rabin-specific exact CLI subcommands (lazy import).

    ``prove``/``exact``/``appendix``/``exhaustive`` are about the
    paper's Section 6.2 derivation specifically and have no generic
    model counterpart; :mod:`repro.cli` reaches their implementations
    through this accessor so it never imports the algorithm package
    directly (the lint rule that keeps the rest of the stack
    model-agnostic).
    """
    from repro.algorithms.lehmann_rabin import commands

    return commands


LR_MODEL = register_model(
    Model(
        name="lr",
        title="Lehmann-Rabin",
        description=(
            "Lehmann-Rabin randomized dining philosophers "
            "(the paper's Section 5 case study)"
        ),
        size_noun="ring size",
        sweep_noun="Ring-size",
        target_label="the critical region",
        schema_name=lr.SCHEMA_NAME,
        n_default=3,
        n_range="n >= 2 (n <= 4 compiles within the default state budget)",
        default_prop="composed",
        validate_n=_validate_n,
        build=_build,
        time_of=lr.lr_time_of,
        leaf_statements=lambda n: lr.leaf_statements(),
        proof_chain=lambda n: lr.lehmann_rabin_proof(),
        expected_time_bound=lambda n: lr.expected_time_bound(),
        time_source_statement=lambda n: lr.leaf_statements()["A.3"],
        target=lr.in_critical,
        canonical_states=lr.canonical_states,
        sample_states_in=lr.sample_states_in,
        mdp_reference=lambda n: lr.canonical_states(n)["one_trying"],
        sweep_sizes=(3, 4, 5),
    )
)

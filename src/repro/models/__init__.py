"""The pluggable model front-end: registry of verifiable case studies.

Importing this package registers every shipped model — ``lr`` (the
paper's Lehmann-Rabin ring, and the ``--model`` default), ``benor``,
``election``, and ``herman`` — and exposes the registry API the CLI,
corpus runner, fuzzer, and job service resolve ``--model`` names
through.  The protocol a model implements lives in
:mod:`repro.models.base`; registration is one
:func:`~repro.models.registry.register_model` call with a declarative
:class:`~repro.models.base.Model` record (docs/models.md walks through
adding a new one).
"""

from repro.models.base import (
    ExperimentSetup,
    Model,
    ProofChain,
    require_model,
    sample_states_by_walk,
    single_statement_chain,
)
from repro.models.registry import (
    get_model,
    register_model,
    registered_models,
)

# Importing a model module registers it; `lr` first so it is the
# default and leads every listing.
from repro.models.lr import LR_MODEL
from repro.models.benor import BENOR_MODEL
from repro.models.election import ELECTION_MODEL
from repro.models.herman import HERMAN_MODEL

__all__ = [
    "BENOR_MODEL",
    "ELECTION_MODEL",
    "ExperimentSetup",
    "HERMAN_MODEL",
    "LR_MODEL",
    "Model",
    "ProofChain",
    "get_model",
    "register_model",
    "registered_models",
    "require_model",
    "sample_states_by_walk",
    "single_statement_chain",
]

"""The declarative model registry behind ``--model``.

Case studies register themselves at import time (the package
``__init__`` imports every shipped model module); the CLI, the corpus
runner, the fuzzer, and the job service resolve names through
:func:`get_model` and surface the typed :class:`UnknownModelError` on a
miss so an unregistered name maps to the usage exit status, exactly
like an unknown proposition.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import UnknownModelError, VerificationError
from repro.models.base import Model

_REGISTRY: Dict[str, Model] = {}


def register_model(model: Model) -> Model:
    """Add ``model`` to the registry; names are unique and stable."""
    existing = _REGISTRY.get(model.name)
    if existing is not None and existing is not model:
        raise VerificationError(
            f"model name {model.name!r} is already registered"
        )
    _REGISTRY[model.name] = model
    return model


def get_model(name: str) -> Model:
    """Resolve a ``--model`` name, raising :class:`UnknownModelError`."""
    model = _REGISTRY.get(name)
    if model is None:
        raise UnknownModelError(name, tuple(_REGISTRY))
    return model


def registered_models() -> Tuple[Model, ...]:
    """Registered models in registration order."""
    return tuple(_REGISTRY.values())

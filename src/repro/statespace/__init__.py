"""Compile-once state spaces and the engine protocol built on them.

See ``docs/statespace.md`` for the compile pipeline, the
``--engine {tree,batched,auto}`` selection rules, the history walk
behind the batched engine, and the fallback behaviour that keeps
reports byte-identical across engines.
"""

from repro.statespace.compile import (
    DEFAULT_STATE_BUDGET,
    IDENTITY_SPEC,
    CompiledSpace,
    CompiledStep,
    SpaceSpec,
    compile_space,
)
from repro.statespace.engine import (
    ENGINE_NAMES,
    BatchedEngine,
    Engine,
    TreeEngine,
    build_engine,
    resolve_engine_name,
    resolve_state_budget,
)
from repro.statespace.product import AdversaryTable, compile_adversary

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "IDENTITY_SPEC",
    "CompiledSpace",
    "CompiledStep",
    "SpaceSpec",
    "compile_space",
    "ENGINE_NAMES",
    "BatchedEngine",
    "Engine",
    "TreeEngine",
    "build_engine",
    "resolve_engine_name",
    "resolve_state_budget",
    "AdversaryTable",
    "compile_adversary",
]

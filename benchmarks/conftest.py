"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one experiment row from DESIGN.md's index
(the paper has no numbered tables; every quantitative claim of
Sections 4 and 6.2 and the appendix is reproduced here).  Benchmarks
assert the paper's *shape* — measured worst-case probabilities meet the
claimed lower bounds, measured expected times stay under the claimed
constants — and time the verification machinery itself.
"""

from __future__ import annotations

import pytest

from repro.models import ExperimentSetup, get_model


@pytest.fixture(scope="session")
def setup3() -> ExperimentSetup:
    """The standard ring-of-3 experiment setup."""
    return get_model("lr").build(3, random_seeds=(1, 2, 3))


@pytest.fixture(scope="session")
def setup4() -> ExperimentSetup:
    """The ring-of-4 experiment setup."""
    return get_model("lr").build(4, random_seeds=(1, 2))

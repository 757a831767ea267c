"""Herman's self-stabilizing ring: model registration and golden counts.

The first case study shipped entirely through the pluggable model
front-end.  Beyond the protocol-level tests these pin the *compiled*
footprint: the untimed state counts of the n=3 and n=5 rings, plain
and under the dihedral quotient, are golden numbers — a change means
the automaton, the quotient, or the compiler changed semantics.
"""

from __future__ import annotations

import pytest

from repro.corpus.runner import report_digest
from repro.errors import VerificationError
from repro.models import get_model
from repro.statespace.compile import compile_space


@pytest.fixture(scope="module")
def herman():
    return get_model("herman")


class TestRegistration:
    def test_registered_with_expected_surface(self, herman):
        assert herman.name == "herman"
        assert herman.n_default == 3
        assert herman.default_prop == "H.1"
        assert "H.1" in herman.leaf_statements(3)
        assert herman.symmetry_spec is not None

    def test_odd_ring_sizes_only(self, herman):
        herman.validate_n(3)
        herman.validate_n(5)
        with pytest.raises(VerificationError):
            herman.validate_n(4)
        with pytest.raises(VerificationError):
            herman.validate_n(1)

    def test_setup_carries_three_round_adversaries(self, herman):
        setup = herman.build(3)
        assert [name for name, _ in setup.adversaries] == [
            "fifo", "reversed", "rotating",
        ]
        assert setup.n == 3 and setup.schema is not None


class TestGoldenCounts:
    """Compiled-space sizes are part of the model's contract."""

    @pytest.mark.parametrize(
        "n, plain_states, plain_steps, sym_states, sym_steps",
        [
            (3, 98, 248, 30, 78),
            (5, 2882, 9132, 524, 1602),
        ],
    )
    def test_untimed_and_symmetry_counts(
        self, herman, n, plain_states, plain_steps, sym_states, sym_steps
    ):
        setup = herman.build(n)
        roots = list(herman.canonical_states(n).values())
        plain = compile_space(setup.automaton, roots, herman.space_spec(n))
        assert (plain.n_states, plain.n_transitions) == (
            plain_states, plain_steps,
        )
        sym = compile_space(setup.automaton, roots, herman.symmetry_spec(n))
        assert (sym.n_states, sym.n_transitions) == (sym_states, sym_steps)

    def test_symmetry_quotient_shrinks_the_space(self, herman):
        setup = herman.build(3)
        roots = list(herman.canonical_states(3).values())
        plain = compile_space(setup.automaton, roots, herman.space_spec(3))
        sym = compile_space(setup.automaton, roots, herman.symmetry_spec(3))
        assert sym.n_states < plain.n_states


class TestEndToEnd:
    def test_progress_statement_supported_identically_per_engine(
        self, herman
    ):
        from repro.analysis.montecarlo import check_statement

        setup = herman.build(3)
        statement = herman.leaf_statements(3)["H.1"]
        digests = set()
        for engine in ("tree", "batched", "batched-pure"):
            report = check_statement(
                statement, setup, seed=0, samples_per_pair=8,
                max_steps=60, engine=engine,
            )
            assert not report.refuted
            digests.add(report_digest(report.to_dict()))
        assert len(digests) == 1

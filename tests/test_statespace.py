"""Cross-engine equivalence suite for the compiled state-space core.

The contract under test (``docs/statespace.md``): a verification report
is a pure function of the problem and the root seed — *never* of the
evaluation strategy.  ``--engine tree``, ``--engine batched``, and
``--engine auto`` must produce byte-identical reports (the CLI matrix
over worker counts and guard modes lives in ``tests/test_batched.py``),
and the interned representation itself is pinned by golden
state/transition counts for the n=3 ring.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import LRExperimentSetup, check_lr_statement
from repro.cli import main
from repro.contracts import OFF_CONFIG, WARN, GuardConfig
from repro.errors import StateBudgetExceeded, VerificationError
from repro.service import JobSpec
from repro.statespace import (
    BatchedEngine,
    SpaceSpec,
    TreeEngine,
    build_engine,
    compile_adversary,
    compile_space,
    resolve_engine_name,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SAMPLES = 12
ENGINES = ("tree", "batched", "auto")


@pytest.fixture(scope="module")
def setup3() -> LRExperimentSetup:
    return LRExperimentSetup.build(3, random_seeds=(1,))


@pytest.fixture(scope="module")
def space3(setup3):
    starts = tuple(lr.canonical_states(3).values())
    return compile_space(setup3.automaton, starts, setup3.space_spec())


@pytest.fixture(scope="module")
def statement():
    return lr.lehmann_rabin_proof().final_statement


def engine_for(setup3, statement, **kwargs):
    return build_engine(
        setup3.automaton,
        setup3.adversaries,
        tuple(lr.canonical_states(3).values()),
        statement.target.contains,
        lr.lr_time_of,
        statement.time_bound,
        200,
        spec=setup3.space_spec(),
        **kwargs,
    )


class TestGoldenCounts:
    """The interned n=3 space is pinned exactly.

    These counts change only when the model itself changes — any drift
    here means the Lehmann-Rabin dynamics (or the untimed quotient)
    moved, which invalidates every cached intuition about the space.
    """

    def test_state_count(self, space3):
        assert space3.n_states == 4338

    def test_transition_count(self, space3):
        assert sum(len(steps) for steps in space3.steps) == 18024

    def test_probabilities_are_exact_and_normalised(self, space3):
        for steps in space3.steps:
            for step in steps:
                total = sum(step.weights, Fraction(0))
                assert total == 1
                assert step.cum[-1] == pytest.approx(1.0)


class TestCompileUnit:
    def test_budget_exceeded_raises(self, setup3):
        starts = tuple(lr.canonical_states(3).values())
        with pytest.raises(StateBudgetExceeded):
            compile_space(
                setup3.automaton, starts, setup3.space_spec(), max_states=10
            )

    def test_markov_adversary_compiles(self, setup3, space3):
        by_name = dict(setup3.adversaries)
        starts = tuple(lr.canonical_states(3).values())
        table = compile_adversary(
            space3, by_name["fifo"], starts, max_nodes=200_000
        )
        assert table is not None
        assert len(table.start_nodes) == len(starts)

    def test_hashed_random_adversary_does_not_compile(self, setup3, space3):
        by_name = dict(setup3.adversaries)
        starts = tuple(lr.canonical_states(3).values())
        assert compile_adversary(
            space3, by_name["hashed-1"], starts, max_nodes=200_000
        ) is None

    def test_resolve_engine_name_rejects_unknown(self):
        with pytest.raises(VerificationError):
            resolve_engine_name("quantum")


class TestEngineSelection:
    def test_tree_requested_gives_tree(self, setup3, statement):
        engine = engine_for(setup3, statement, engine="tree")
        assert type(engine) is TreeEngine

    def test_batched_requested_gives_batched(self, setup3, statement):
        engine = engine_for(setup3, statement, engine="batched")
        assert type(engine) is BatchedEngine

    def test_auto_prefers_batched(self, setup3, statement):
        engine = engine_for(setup3, statement, engine="auto")
        assert type(engine) is BatchedEngine

    def test_batched_with_fuel_is_refused(self, setup3, statement):
        fuelled = GuardConfig(mode=WARN, fuel_steps=500).validate()
        with pytest.raises(VerificationError):
            engine_for(
                setup3, statement, engine="batched", guards=fuelled
            )

    def test_batched_with_tiny_budget_raises(self, setup3, statement):
        with pytest.raises(StateBudgetExceeded):
            engine_for(
                setup3, statement, engine="batched", state_budget=10
            )

    def test_auto_with_fuel_falls_back_to_tree(self, setup3, statement):
        fuelled = GuardConfig(mode=WARN, fuel_steps=500).validate()
        engine = engine_for(setup3, statement, engine="auto", guards=fuelled)
        assert type(engine) is TreeEngine

    def test_auto_with_tiny_budget_falls_back_to_tree(self, setup3, statement):
        engine = engine_for(
            setup3, statement, engine="auto", state_budget=10
        )
        assert type(engine) is TreeEngine

    def test_identity_spec_blows_budget_on_timed_states(self, setup3, statement):
        # Without the untimed quotient the clock makes the space
        # unbounded; auto must notice and walk the tree instead.
        engine = build_engine(
            setup3.automaton,
            setup3.adversaries,
            tuple(lr.canonical_states(3).values()),
            statement.target.contains,
            lr.lr_time_of,
            statement.time_bound,
            200,
            engine="auto",
            state_budget=20_000,
            guards=OFF_CONFIG,
        )
        assert type(engine) is TreeEngine


class TestReportEquivalence:
    """API-level: the report object is identical whichever engine ran."""

    @pytest.mark.parametrize("seed", (0, 11))
    def test_check_reports_identical(self, setup3, statement, seed):
        reports = {
            engine: check_lr_statement(
                statement, setup3, seed=seed,
                samples_per_pair=SAMPLES, random_starts=2, engine=engine,
            )
            for engine in ENGINES
        }
        baseline = json.dumps(reports["tree"].to_dict(), sort_keys=True)
        for engine in ("batched", "auto"):
            assert baseline == json.dumps(
                reports[engine].to_dict(), sort_keys=True
            ), f"engine {engine!r} diverged from tree at seed {seed}"


class TestCliByteIdentity:
    """CLI-level exit statuses; the stdout-identity matrix across
    engines, workers, and guards lives in ``tests/test_batched.py``."""

    def test_state_budget_exit_code(self, capsys):
        code = main([
            "check", "--prop", "composed", "--n", "3",
            "--seed", "5", "--samples", "4",
            "--engine", "batched", "--state-budget", "10", "--json",
        ])
        capsys.readouterr()
        assert code == 2

    def test_removed_compiled_engine_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["check", "--engine", "compiled"])
        assert raised.value.code == 2
        assert "invalid choice: 'compiled'" in capsys.readouterr().err

    def test_job_spec_rejects_removed_compiled_engine(self):
        with pytest.raises(VerificationError):
            JobSpec.parse(["check", "--engine", "compiled"])


class TestSpaceSpecQuotient:
    def test_quotient_keys_drop_time(self, setup3):
        spec = setup3.space_spec()
        state = next(iter(lr.canonical_states(3).values()))
        advanced = state.advanced(Fraction(7))
        assert spec.key(state) == spec.key(advanced)
        assert spec.time_of(advanced) - spec.time_of(state) == 7


def test_space_spec_requires_callables():
    spec = SpaceSpec(key=lambda s: s, time_of=lambda s: Fraction(0))
    assert spec.key("x") == "x"

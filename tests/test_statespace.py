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

import gc
import json
import weakref
from fractions import Fraction

import pytest

from repro import obs
from repro.adversary.deterministic import FirstEnabledAdversary
from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import LRExperimentSetup, check_lr_statement
from repro.cli import main
from repro.contracts import OFF_CONFIG, STRICT, WARN, GuardConfig
from repro.contracts import guards as guards_module
from repro.corpus.cases import broken_automaton
from repro.errors import StateBudgetExceeded, VerificationError
from repro.service import JobSpec
from repro.statespace import (
    BatchedEngine,
    CompiledSpace,
    SpaceSpec,
    TreeEngine,
    build_engine,
    compile_adversary,
    compile_scope,
    compile_space,
    resolve_engine_name,
)
from repro.statespace import engine as engine_module

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


@pytest.fixture
def compiles(monkeypatch):
    """The roots of every compile ``build_engine`` runs."""
    roots = []

    def counting(automaton, starts, *args, **kwargs):
        roots.append(tuple(starts))
        return compile_space(automaton, starts, *args, **kwargs)

    monkeypatch.setattr(engine_module, "compile_space", counting)
    return roots


def _chain_engine(automaton, starts, engine="batched", **kwargs):
    return build_engine(
        automaton, [("first", FirstEnabledAdversary())], starts,
        lambda state: state == 3, lambda state: Fraction(0), None, 10,
        engine=engine, **kwargs,
    )


def _live_spaces():
    gc.collect()
    return sum(isinstance(o, CompiledSpace) for o in gc.get_objects())


class TestCompileScope:
    """One command's checks share one compiled space (the reuse rule in
    ``docs/statespace.md``); nothing outlives the command."""

    def test_checks_in_a_scope_share_the_space(
        self, setup3, statement, compiles
    ):
        with obs.recording() as registry, compile_scope():
            first = engine_for(setup3, statement, engine="batched")
            second = engine_for(setup3, statement, engine="auto")
        assert len(compiles) == 1
        assert type(second) is BatchedEngine
        assert first.tables[0].space is second.tables[0].space
        assert first.tables[0] is not second.tables[0]
        metrics = registry.metrics
        assert metrics.counters["statespace.compile_reuses"].value == 1
        assert metrics.histograms["statespace.compile_ms"].count == 1

    def test_without_a_scope_every_check_compiles(
        self, setup3, statement, compiles
    ):
        engine_for(setup3, statement, engine="batched")
        engine_for(setup3, statement, engine="batched")
        assert len(compiles) == 2

    def test_a_different_key_compiles_again(
        self, setup3, statement, compiles
    ):
        warn = GuardConfig(mode=WARN).validate()
        with compile_scope():
            engine_for(setup3, statement, engine="batched")
            engine_for(setup3, statement, engine="batched", guards=warn)
            engine_for(
                setup3, statement, engine="batched", guards=warn,
                state_budget=150_000,
            )
            engine_for(
                setup3, statement, engine="batched", guards=warn,
                state_budget=150_000,
            )
        assert len(compiles) == 3

    def test_an_uncovered_start_compiles_from_its_own_roots(
        self, deterministic_chain, compiles
    ):
        with compile_scope():
            _chain_engine(deterministic_chain, (1,))
            _chain_engine(deterministic_chain, (2,))  # inside {1, 2, 3}
            _chain_engine(deterministic_chain, (0,))  # 0 was never interned
            _chain_engine(deterministic_chain, (1,))  # inside {0, ..., 3}
        assert compiles == [(1,), (0,)]

    def test_a_failed_compile_is_retried_and_not_kept(
        self, deterministic_chain, compiles
    ):
        with compile_scope():
            _chain_engine(deterministic_chain, (0,))
            with pytest.raises(StateBudgetExceeded):
                _chain_engine(deterministic_chain, (0,), state_budget=2)
            with pytest.raises(StateBudgetExceeded):
                _chain_engine(deterministic_chain, (0,), state_budget=2)
            # The miss dropped the first space before compiling.
            _chain_engine(deterministic_chain, (0,))
            _chain_engine(deterministic_chain, (0,))
        assert compiles == [(0,)] * 4

    def test_trace_counts_one_compile_and_five_reuses(self, capsys):
        assert main([
            "trace", "verify", "--model", "lr", "--n", "3",
            "--engine", "batched", "--samples", "4",
        ]) == 0
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("statespace.")
        }
        assert rows["statespace.compile_reuses"] == ["5"]
        assert rows["statespace.compile_ms"][0] == "1"

    def test_no_space_outlives_the_command(self, capsys):
        before = _live_spaces()
        assert main([
            "verify", "--n", "3", "--samples", "2", "--engine", "batched",
            "--no-manifest",
        ]) == 0
        capsys.readouterr()
        assert engine_module._scope is None
        # gc.get_objects() skips frozen objects: a frozen space would
        # pass the count below unseen.
        assert gc.get_freeze_count() == 0
        assert _live_spaces() == before

    def test_the_guard_cache_closes_with_the_command(self, capsys):
        assert main([
            "check", "--n", "3", "--samples", "2", "--engine", "batched",
            "--no-manifest",
        ]) == 0
        capsys.readouterr()
        assert guards_module._validated_transitions == {}


class TestCompileCollector:
    """A scoped compile runs outside the cyclic collector and stays
    frozen out of it until the scope closes; nothing else changes."""

    def test_a_scoped_compile_runs_no_collection(
        self, setup3, statement, monkeypatch
    ):
        compiling, collecting, collections = [False], [], []

        def paused(automaton, starts, *args, **kwargs):
            compiling[0] = True
            collecting.append(gc.isenabled())
            try:
                return compile_space(automaton, starts, *args, **kwargs)
            finally:
                compiling[0] = False

        def watch(phase, info):
            if phase == "start" and compiling[0]:
                collections.append(info["generation"])

        monkeypatch.setattr(engine_module, "compile_space", paused)
        gc.callbacks.append(watch)
        try:
            with compile_scope():
                engine = engine_for(setup3, statement, engine="batched")
                assert type(engine) is BatchedEngine
                assert gc.get_freeze_count() > 0
        finally:
            gc.callbacks.remove(watch)
        assert collecting == [False]
        assert collections == []
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()

    def test_a_compile_outside_a_scope_is_unchanged(
        self, setup3, statement
    ):
        engine_for(setup3, statement, engine="batched")
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()

    @pytest.mark.parametrize("collecting", (True, False))
    def test_a_blown_budget_freezes_nothing(
        self, deterministic_chain, collecting
    ):
        keys = []

        class Key:
            """An interning key the test can watch die."""

            def __init__(self, state):
                self.state = state
                keys.append(weakref.ref(self))

            def __eq__(self, other):
                return self.state == other.state

            def __hash__(self):
                return hash(self.state)

        if not collecting:
            gc.disable()
        try:
            with compile_scope():
                engine = _chain_engine(
                    deterministic_chain, (0,), spec=SpaceSpec(key=Key),
                    state_budget=2, engine="auto",
                )
                assert type(engine) is TreeEngine
                assert gc.get_freeze_count() == 0
                assert gc.isenabled() is collecting
                # Reference counting freed the partial space already.
                assert keys and all(ref() is None for ref in keys)
        finally:
            gc.enable()

    def test_a_strict_violation_freezes_nothing(self):
        strict = GuardConfig(mode=STRICT).validate()
        with compile_scope():
            engine = build_engine(
                broken_automaton(), [("first", FirstEnabledAdversary())],
                ("a",), lambda state: state == "c",
                lambda state: Fraction(0), None, 10,
                engine="batched", guards=strict,
            )
            assert type(engine) is TreeEngine
            assert gc.get_freeze_count() == 0
            assert gc.isenabled()


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

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

from repro.adversary.unit_time import (
    HALT,
    MarkovRoundPolicy,
    ProcessView,
    RoundBasedAdversary,
)
from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement
from repro.automaton.signature import TIME_PASSAGE
from repro.cli import main
from repro.contracts import OFF_CONFIG, STRICT, WARN, GuardConfig
from repro.contracts import guards as guards_module
from repro.corpus.cases import (
    TINY_STATEMENT,
    broken_automaton,
    zero_time,
)
from repro.errors import StateBudgetExceeded, VerificationError
from repro.models import ExperimentSetup, get_model
from repro.parallel.seeds import rng_from_seed
from repro.proofs.verifier import check_arrow_by_sampling
from repro.service import JobSpec
from repro.statespace import (
    BatchedEngine,
    CompiledSpace,
    SpaceSpec,
    TreeEngine,
    build_engine,
    compile_adversary,
    compile_space,
    resolve_engine_name,
)
from repro.statespace import engine as engine_module

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SAMPLES = 12
ENGINES = ("tree", "batched", "auto")


@pytest.fixture(scope="module")
def setup3() -> ExperimentSetup:
    return get_model("lr").build(3, random_seeds=(1,))


@pytest.fixture(scope="module")
def space3(setup3):
    starts = tuple(lr.canonical_states(3).values())
    return compile_space(
        setup3.automaton, starts, setup3.space_spec()
    ).explore()


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
    """The explored n=3 space is pinned exactly.

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


class TestCompileUnit:
    def test_budget_exceeded_raises(self, setup3):
        starts = tuple(lr.canonical_states(3).values())
        space = compile_space(
            setup3.automaton, starts, setup3.space_spec(), max_states=10
        )
        with pytest.raises(StateBudgetExceeded):
            compile_adversary(
                space, dict(setup3.adversaries)["fifo"], starts,
                max_nodes=200_000,
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
        # The budget cannot hold the six canonical starts.
        with pytest.raises(StateBudgetExceeded):
            engine_for(
                setup3, statement, engine="batched", state_budget=2
            )

    def test_auto_with_fuel_falls_back_to_tree(self, setup3, statement):
        fuelled = GuardConfig(mode=WARN, fuel_steps=500).validate()
        engine = engine_for(setup3, statement, engine="auto", guards=fuelled)
        assert type(engine) is TreeEngine

    def test_auto_with_tiny_budget_falls_back_to_tree(self, setup3, statement):
        engine = engine_for(
            setup3, statement, engine="auto", state_budget=2
        )
        assert type(engine) is TreeEngine

    def test_identity_spec_blows_budget_on_timed_states(self, setup3, statement):
        # Without the untimed quotient the clock makes the space
        # unbounded.  Sampling needs no table, but an exact value's
        # table blows the budget: auto takes the tree's exact walk
        # instead, and batched raises.
        def identity(engine):
            return build_engine(
                setup3.automaton,
                setup3.adversaries,
                tuple(lr.canonical_states(3).values()),
                statement.target.contains,
                lr.lr_time_of,
                statement.time_bound,
                200,
                engine=engine,
                state_budget=2_000,
                guards=OFF_CONFIG,
            )

        fifo = [name for name, _ in setup3.adversaries].index("fifo")
        auto = identity("auto")
        assert type(auto) is BatchedEngine
        assert auto.exact_reach(fifo, 0, 4) == auto.tree.exact_reach(
            fifo, 0, 4
        )
        assert auto._tables[fifo] is None
        with pytest.raises(StateBudgetExceeded):
            identity("batched").exact_reach(fifo, 0, 4)


@pytest.fixture
def compiles(monkeypatch):
    """The roots of every compile ``build_engine`` runs."""
    roots = []

    def counting(automaton, starts, *args, **kwargs):
        roots.append(tuple(starts))
        return compile_space(automaton, starts, *args, **kwargs)

    monkeypatch.setattr(engine_module, "compile_space", counting)
    return roots


class _AlwaysReady(ProcessView):
    """One process that never closes its round: every step is its."""

    @property
    def processes(self):
        return ("p",)

    def ready(self, state):
        return frozenset(("p",))

    def process_of(self, action):
        return None

    def time_of(self, state):
        return Fraction(0)


class _FirstEnabled(MarkovRoundPolicy):
    """Takes the first enabled step; halts where none is."""

    def markov_move(self, automaton, state, pending, view, rounds):
        enabled = automaton.transitions(state)
        return enabled[0] if enabled else HALT


def _first_enabled():
    """A first-enabled adversary that tabulates, on untimed automata."""
    return RoundBasedAdversary(_AlwaysReady(), _FirstEnabled())


def _chain_engine(automaton, starts, engine="batched", **kwargs):
    return build_engine(
        automaton, [("first", _first_enabled())], starts,
        lambda state: state == 3, lambda state: Fraction(0), None, 10,
        engine=engine, **kwargs,
    )


def _statespace_rows(trace_out):
    """``repro trace`` metric rows named ``statespace.*``, by name."""
    return {
        line.split()[0]: line.split()[1:]
        for line in trace_out.splitlines()
        if line.startswith("statespace.")
    }


def _live_spaces():
    gc.collect()
    return sum(isinstance(o, CompiledSpace) for o in gc.get_objects())


class TestCompileScope:
    """Each check compiles a space of its own starts, and nothing
    outlives the command."""

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
        spaces = [
            engine_for(setup3, statement, engine="batched").space,
            engine_for(
                setup3, statement, engine="batched", guards=warn
            ).space,
            engine_for(
                setup3, statement, engine="batched", guards=warn,
                state_budget=150_000,
            ).space,
        ]
        assert len(compiles) == 3
        assert [(space.guards, space.max_states) for space in spaces] == [
            (OFF_CONFIG, 200_000), (warn, 200_000), (warn, 150_000),
        ]

    def test_a_failed_compile_is_retried_and_not_kept(
        self, deterministic_chain, compiles
    ):
        with pytest.raises(StateBudgetExceeded):
            _chain_engine(deterministic_chain, (0, 1, 2), state_budget=2)
        engine = _chain_engine(deterministic_chain, (0, 1, 2))
        assert engine.space.reps == [0, 1, 2]
        assert compiles == [(0, 1, 2)] * 2

    def test_trace_counts_one_compile_per_check(self, capsys):
        assert main([
            "trace", "verify", "--model", "lr", "--n", "3",
            "--engine", "batched", "--samples", "4",
        ]) == 0
        rows = _statespace_rows(capsys.readouterr().out)
        assert rows["statespace.compile_ms"][0] == "6"

    def test_no_space_outlives_the_command(self, capsys):
        before = _live_spaces()
        assert main([
            "verify", "--n", "3", "--samples", "2", "--engine", "batched",
            "--no-manifest",
        ]) == 0
        capsys.readouterr()
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
    """Building an engine leaves the cyclic collector as it found it."""

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
            engine = _chain_engine(
                deterministic_chain, (0, 1, 2), spec=SpaceSpec(key=Key),
                state_budget=2, engine="auto",
            )
            assert type(engine) is TreeEngine
            assert gc.get_freeze_count() == 0
            assert gc.isenabled() is collecting
            # Reference counting freed the partial space already.
            assert keys and all(ref() is None for ref in keys)
        finally:
            gc.enable()


class _Idle(MarkovRoundPolicy):
    """Halts at once: its table tabulates nothing."""

    def markov_move(self, automaton, state, pending, view, rounds):
        return HALT


class TestDemandDrivenCompile:
    """Sampling tabulates nothing, and an exact value only the classes
    its adversary table reaches; :meth:`CompiledSpace.explore` still
    reaches the golden space."""

    def test_only_what_the_tables_reach_is_tabulated(
        self, setup3, statement
    ):
        engine = engine_for(setup3, statement, engine="batched")
        space = engine.space
        engine.sample(0, 0, rng_from_seed(0))
        assert not any(space.steps)
        for adversary_index in range(len(engine.adversaries)):
            engine.exact_reach(adversary_index, 0, 2)
        tables = [
            table for table in engine._tables.values() if table is not None
        ]
        assert tables and all(table.space is space for table in tables)
        visited = {state for table in tables for state in table.node_state}
        chosen = {
            table.node_state[node]
            for table in tables
            for node, targets in enumerate(table.choice_targets)
            if targets is not None
        }
        tabulated = {
            state_id
            for state_id, steps in enumerate(space.steps)
            if steps is not None
        }
        assert chosen <= tabulated <= visited
        assert space.n_states < 4338
        reps = list(space.reps)
        space.explore()
        assert space.n_states == 4338
        assert space.n_transitions == 18024
        assert all(kept is rep for kept, rep in zip(space.reps, reps))
        assert all(
            space.intern(rep) == state_id
            for state_id, rep in enumerate(reps)
        )

    def test_deltas_are_the_clock_advance(self, setup3, space3):
        time_of = setup3.space_spec().time_of
        passages = 0
        for state_id, rep in enumerate(space3.reps):
            for step in space3.steps_of(state_id):
                assert step.deltas == tuple(
                    time_of(point) - time_of(rep)
                    for point, _ in step.transition.target.items()
                )
                if step.action == TIME_PASSAGE:
                    passages += 1
                    assert set(step.deltas) == {1}
        assert passages

    def test_a_strict_violation_while_tabulating_is_per_adversary(self):
        strict = GuardConfig(mode=STRICT).validate()
        adversaries = [
            ("first", _first_enabled()),
            ("idle", RoundBasedAdversary(_AlwaysReady(), _Idle())),
        ]
        engine = build_engine(
            broken_automaton(), adversaries, ("a",),
            lambda state: state == "c", lambda state: Fraction(0), None, 10,
            engine="batched", guards=strict,
        )
        assert type(engine) is BatchedEngine
        assert engine._table_for(0) is None  # reaches the broken step
        assert engine._table_for(1) is not None
        reports = {
            name: check_arrow_by_sampling(
                broken_automaton(), TINY_STATEMENT, adversaries, ["a"],
                zero_time, samples_per_pair=6, max_steps=10, seed=3,
                guards=strict, engine=name,
            ).to_dict()
            for name in ("tree", "batched")
        }
        assert reports["batched"] == reports["tree"]
        assert reports["tree"]["quarantined"]

    def test_the_parents_space_size_still_admits_the_check(self, capsys):
        argv = [
            "check", "--prop", "composed", "--n", "3", "--seed", "5",
            "--samples", "4", "--json", "--no-manifest",
        ]
        assert main(argv + ["--engine", "tree"]) == 0
        tree = capsys.readouterr().out
        assert main(
            argv + ["--engine", "batched", "--state-budget", "4338"]
        ) == 0
        assert capsys.readouterr().out == tree

    def test_trace_gauges_count_the_commands_space(
        self, capsys, monkeypatch
    ):
        spaces = []

        def keeping(*args, **kwargs):
            spaces.append(compile_space(*args, **kwargs))
            return spaces[-1]

        monkeypatch.setattr(engine_module, "compile_space", keeping)
        assert main([
            "trace", "check", "--n", "3", "--engine", "batched",
            "--samples", "2",
        ]) == 0
        rows = _statespace_rows(capsys.readouterr().out)
        [space] = spaces
        # The check's starts, and nothing tabulated.
        assert int(rows["statespace.states"][0]) == space.n_states
        assert space.n_states == len(space.reps) and not any(space.steps)
        assert "statespace.transitions" not in rows


class TestReportEquivalence:
    """API-level: the report object is identical whichever engine ran."""

    @pytest.mark.parametrize("seed", (0, 11))
    def test_check_reports_identical(self, setup3, statement, seed):
        reports = {
            engine: check_statement(
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

    def test_n4_composed_check_is_engine_independent(self, capsys):
        argv = [
            "check", "--model", "lr", "--n", "4", "--prop", "composed",
            "--samples", "4", "--seed", "7", "--json", "--no-manifest",
        ]
        runs = {}
        for engine in ENGINES:
            code = main(argv + ["--engine", engine])
            runs[engine] = (code, capsys.readouterr().out)
        assert runs["tree"][1]
        assert runs["batched"] == runs["tree"] == runs["auto"]

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

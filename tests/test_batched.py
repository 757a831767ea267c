"""Batched-engine and compiled-table correctness suite.

Two concerns share these fixtures:

* regression tests for the compiled-table correctness fixes (the
  unbounded time-bound crash, the ambiguous ``==``-match in
  ``_match_step``);
* the cross-engine byte-identity matrix — ``check`` / ``verify`` /
  ``expected-time`` stdout must be identical for
  tree == batched == auto across workers x guards — and the batched
  engine's history walk, which samples every adversary.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from repro import obs
from repro.algorithms import lehmann_rabin as lr
from repro.adversary.unit_time import (
    HALT,
    MarkovRoundPolicy,
    ProcessView,
    RoundBasedAdversary,
)
from repro.automaton.automaton import ExplicitAutomaton
from repro.automaton.signature import ActionSignature
from repro.automaton.transition import Transition
from repro.cli import main
from repro.models import ExperimentSetup, get_model
from repro.parallel import fork_available
from repro.parallel.seeds import rng_from_seed
from repro.statespace import (
    BatchedEngine,
    build_engine,
    compile_adversary,
    compile_space,
)
from repro.statespace import engine as engine_module

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def setup3() -> ExperimentSetup:
    return get_model("lr").build(3, random_seeds=(1,))


@pytest.fixture(scope="module")
def statement():
    return lr.lehmann_rabin_proof().final_statement


def build_for(setup, statement, *, time_bound="statement", **kwargs):
    bound = statement.time_bound if time_bound == "statement" else time_bound
    return build_engine(
        setup.automaton,
        setup.adversaries,
        tuple(lr.canonical_states(setup.n).values()),
        statement.target.contains,
        lr.lr_time_of,
        bound,
        200,
        spec=setup.space_spec(),
        **kwargs,
    )


class TestUnboundedTimeBound:
    """Regression: a bound-free check must not crash the compiled tables.

    The table walkers once compared ``elapsed > bound`` with
    ``self._bound = None`` whenever the check carried no time bound — a
    ``TypeError`` on the first sampled step (and in the exact DP).
    """

    def test_compiled_sample_without_bound(self, setup3, statement):
        batched = build_for(
            setup3, statement, time_bound=None, engine="batched"
        )
        tree = build_for(setup3, statement, time_bound=None, engine="tree")
        for seed in (0, 1, 2):
            got = batched.sample(0, 0, rng_from_seed(seed))
            want = tree.sample(0, 0, rng_from_seed(seed))
            assert (got.verdict, got.steps) == (want.verdict, want.steps)

    def test_compiled_exact_reach_without_bound(self, setup3, statement):
        batched = build_for(
            setup3, statement, time_bound=None, engine="batched"
        )
        tree = build_for(setup3, statement, time_bound=None, engine="tree")
        got = batched.exact_reach(0, 0, 40)
        want = tree.exact_reach(0, 0, 40)
        assert (got.lower, got.upper) == (want.lower, want.upper)


# ---------------------------------------------------------------------------
# Ambiguous ``==`` matches in the adversary product
# ---------------------------------------------------------------------------


class _OneProcessView(ProcessView):
    """A single process, obligated only in the start state ``"a"``."""

    @property
    def processes(self):
        return ("p",)

    def ready(self, state):
        return frozenset(("p",)) if state == "a" else frozenset()

    def process_of(self, action):
        return "p"

    def time_of(self, state):
        return Fraction(0)


class _FreshEqualMove(MarkovRoundPolicy):
    """Schedules a *fresh* transition object equal to the tabulated ones."""

    def markov_move(self, automaton, state, pending, view, rounds):
        if not pending:
            return HALT
        return Transition.deterministic("a", "go", "b")


def _ambiguous_automaton():
    """Two distinct-but-``==`` transitions enabled in the start state."""
    return ExplicitAutomaton(
        states=("a", "b"),
        start_states=("a",),
        signature=ActionSignature(internal=frozenset(("go",))),
        steps=(
            Transition.deterministic("a", "go", "b"),
            Transition.deterministic("a", "go", "b"),
        ),
    )


class TestAmbiguousMatch:
    """Regression: ``_match_step`` silently took the first ``==`` match.

    With two distinct enabled transitions comparing equal, the compiled
    product could tabulate a different step than the tree walk replays;
    the compile must refuse (return ``None``) so the pair samples
    through the tree.
    """

    def test_ambiguous_adversary_does_not_compile(self):
        automaton = _ambiguous_automaton()
        space = compile_space(automaton, ("a",))
        adversary = RoundBasedAdversary(_OneProcessView(), _FreshEqualMove())
        assert compile_adversary(space, adversary, ("a",), max_nodes=64) is None

    def test_unambiguous_adversary_still_compiles(self):
        automaton = ExplicitAutomaton(
            states=("a", "b"),
            start_states=("a",),
            signature=ActionSignature(internal=frozenset(("go",))),
            steps=(Transition.deterministic("a", "go", "b"),),
        )
        space = compile_space(automaton, ("a",))
        adversary = RoundBasedAdversary(_OneProcessView(), _FreshEqualMove())
        table = compile_adversary(space, adversary, ("a",), max_nodes=64)
        assert table is not None
        assert table.choice_targets[table.start_nodes[0]] is not None


# ---------------------------------------------------------------------------
# Batched sampling: engine-level byte identity
# ---------------------------------------------------------------------------


def _hashed4_engine(statement) -> BatchedEngine:
    """The n=4 composed check's batched engine for the coin-peeking
    ``hashed-*`` adversaries alone."""
    setup = get_model("lr").build(4)
    hashed = replace(setup, adversaries=tuple(
        (name, adversary)
        for name, adversary in setup.adversaries
        if name.startswith("hashed-")
    ))
    engine = build_for(hashed, statement, engine="batched")
    assert len(engine.adversaries) == 3
    return engine


@pytest.fixture(scope="module")
def hashed4(statement) -> BatchedEngine:
    return _hashed4_engine(statement)


class TestBatchedByteIdentity:
    """Engine API level: batched == tree."""

    def _engines(self, setup3, statement, hashed4):
        """``(tree, batched)``: the n=3 family, then n=4 ``hashed-*``."""
        batched = build_for(setup3, statement, engine="batched")
        return [(batched.tree, batched), (hashed4.tree, hashed4)]

    def test_sample_stream_identical(self, setup3, statement, hashed4):
        for tree, batched in self._engines(setup3, statement, hashed4):
            for adversary_index in range(len(batched.adversaries)):
                for start_index in range(len(batched.start_states)):
                    streams = []
                    for engine in (tree, batched):
                        rng = rng_from_seed(
                            31 + adversary_index + 10 * start_index
                        )
                        streams.append([
                            (result.verdict, result.steps, result.final)
                            for result in (
                                engine.sample(adversary_index, start_index, rng)
                                for _ in range(40)
                            )
                        ])
                    assert streams[0] == streams[1]

    def test_time_stream_identical(self, setup3, statement, hashed4):
        for tree, batched in self._engines(setup3, statement, hashed4):
            for adversary_index in range(len(batched.adversaries)):
                for start_index in range(len(batched.start_states)):
                    streams = []
                    for engine in (tree, batched):
                        rng = rng_from_seed(
                            77 + adversary_index + 10 * start_index
                        )
                        streams.append([
                            engine.time_to_target(
                                adversary_index, start_index, rng
                            )
                            for _ in range(25)
                        ])
                    assert streams[0] == streams[1]

    def test_finished_streams_are_released(self, setup3, statement):
        # Each task samples from its own generator and drops it; the
        # engine keeps no reference to a stream between calls.
        batched = build_for(setup3, statement, engine="batched")
        streams = []
        for seed in range(6):
            rng = rng_from_seed(seed)
            batched.sample(0, 0, rng)
            batched.time_to_target(0, 0, rng)
            streams.append(weakref.ref(rng))
        del rng
        assert all(stream() is None for stream in streams)

    def test_batched_without_bound(self, setup3, statement):
        # The unbounded-time regression, on the history walk too.
        batched = build_for(
            setup3, statement, time_bound=None, engine="batched"
        )
        tree = build_for(setup3, statement, time_bound=None, engine="tree")
        for seed in (0, 1, 2):
            got = batched.sample(0, 0, rng_from_seed(seed))
            want = tree.sample(0, 0, rng_from_seed(seed))
            assert (got.verdict, got.steps) == (want.verdict, want.steps)


def _metric_totals(argv):
    """The ``adversary.*`` and ``sampler.*`` counters ``main`` records."""
    with obs.recording() as registry:
        assert main(argv) == 0
    return {
        name: value
        for name, value in registry.metrics.snapshot()["counters"].items()
        if name.startswith(("adversary.", "sampler."))
    }


def _live_history_trees():
    gc.collect()
    return sum(
        isinstance(o, engine_module._HistoryTree) for o in gc.get_objects()
    )


class TestHistoryWalk:
    """Every adversary samples through one memoised tree per pair."""

    def test_verify_records_the_tree_walks_totals(self, capsys):
        totals = {
            engine: _metric_totals([
                "verify", "--model", "lr", "--n", "3", "--engine", engine,
                "--samples", "4", "--workers", "1", "--no-manifest",
            ])
            for engine in ("tree", "batched")
        }
        capsys.readouterr()
        assert totals["tree"]["adversary.decisions"] > 0
        assert totals["batched"] == totals["tree"]

    def test_sampling_several_pairs_holds_one_tree(self, statement):
        engine = _hashed4_engine(statement)
        before = _live_history_trees()
        for adversary_index in range(len(engine.adversaries)):
            for start_index in (0, 1):
                rng = rng_from_seed(adversary_index + 10 * start_index)
                engine.sample(adversary_index, start_index, rng)
                engine.time_to_target(adversary_index, start_index, rng)
        assert _live_history_trees() - before == 1


def test_batched_check_never_imports_numpy(tmp_path):
    # The history walk is pure python: a batched run, and everything
    # ``import repro`` pulls in, leave numpy unloaded.
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "code = main(['check', '--prop', 'A.14', '--engine', 'batched',"
        " '--samples', '4', '--no-manifest'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 False"


CLI_MATRIX = [
    (workers, guards)
    for workers in (1, 4)
    for guards in ("off", "warn", "strict")
]

CLI_ENGINES = ("tree", "batched", "auto")


def _run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestNoFiniteProduct:
    """``--engine batched`` tabulates no product to sample, so a check
    whose product would blow the state budget runs as under the tree."""

    @pytest.mark.parametrize("argv", [
        ["check", "--model", "lr", "--n", "5", "--samples", "4"],
        ["verify", "--model", "benor", "--samples", "8",
         "--state-budget", "20000"],
    ], ids=["lr-n5-check", "benor-verify"])
    def test_batched_matches_tree(self, capsys, argv):
        runs = {
            engine: _run_cli(capsys, argv + [
                "--engine", engine, "--seed", "0", "--no-manifest",
            ])
            for engine in ("tree", "batched")
        }
        assert runs["tree"][0] == 0
        assert runs["tree"][1].strip(), "empty stdout"
        assert runs["batched"] == runs["tree"]


class TestCliBackendMatrix:
    """CLI stdout is byte-identical across every backend combination."""

    @pytest.mark.parametrize("workers,guards", CLI_MATRIX)
    def test_check_matrix(self, capsys, workers, guards):
        if workers > 1 and not fork_available():
            pytest.skip("parallel backend needs the fork method")
        argv_tail = [
            "--n", "3", "--seed", "7", "--samples", "10",
            "--workers", str(workers), "--guards", guards,
            "--json", "--no-manifest",
        ]
        runs = {}
        for engine in CLI_ENGINES:
            runs[engine] = _run_cli(capsys, [
                "check", "--prop", "composed", "--engine", engine,
            ] + argv_tail)
        baseline = runs["tree"]
        assert baseline[1].strip(), "empty stdout"
        for engine, run in runs.items():
            assert run == baseline, (
                f"{engine} diverged at workers={workers} guards={guards}"
            )

    @pytest.mark.parametrize("workers", (1, 4))
    def test_verify_identical(self, capsys, workers):
        if workers > 1 and not fork_available():
            pytest.skip("parallel backend needs the fork method")
        argv_tail = [
            "--n", "3", "--seed", "3", "--samples", "4",
            "--workers", str(workers), "--no-manifest",
        ]
        runs = {}
        for engine in CLI_ENGINES:
            runs[engine] = _run_cli(
                capsys, ["verify", "--engine", engine] + argv_tail
            )
        baseline = runs["tree"]
        assert baseline[1].strip(), "empty stdout"
        for engine, run in runs.items():
            assert run == baseline, f"{engine} diverged at workers={workers}"

    @pytest.mark.parametrize("workers", (1, 4))
    def test_expected_time_identical(self, capsys, workers):
        if workers > 1 and not fork_available():
            pytest.skip("parallel backend needs the fork method")
        argv_tail = [
            "--n", "3", "--seed", "2", "--samples", "3",
            "--workers", str(workers), "--no-manifest",
        ]
        runs = {}
        for engine in CLI_ENGINES:
            runs[engine] = _run_cli(
                capsys, ["expected-time", "--engine", engine] + argv_tail
            )
        baseline = runs["tree"]
        assert baseline[1].strip(), "empty stdout"
        for engine, run in runs.items():
            assert run == baseline, f"{engine} diverged at workers={workers}"

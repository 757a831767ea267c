"""Batched-engine, symmetry-quotient, and compiled-table correctness suite.

Three concerns share these fixtures:

* regression tests for the compiled-table correctness fixes (the
  unbounded time-bound crash, the ambiguous ``==``-match in
  ``_match_step``, the unchecked quotient-invariance of ``flags``);
* the cross-backend byte-identity matrix — ``check`` / ``verify`` /
  ``expected-time`` stdout must be identical for
  tree == batched(pure) == batched(numpy) == auto across
  workers x guards;
* the ring-rotation quotient: golden quotiented n=3 counts and the
  n=5 exact-reach feasibility smoke test.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import LRExperimentSetup
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
from repro.contracts import OFF_CONFIG, STRICT, WARN, GuardConfig
from repro.errors import QuotientInvarianceError
from repro.parallel import fork_available
from repro.parallel.seeds import rng_from_seed
from repro.statespace import (
    BatchedEngine,
    UniformSource,
    build_engine,
    compile_adversary,
    compile_space,
)
from repro.statespace import np_backend

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def setup3() -> LRExperimentSetup:
    return LRExperimentSetup.build(3, random_seeds=(1,))


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
        pure = build_for(
            setup3, statement, time_bound=None, engine="batched-pure"
        )
        tree = build_for(setup3, statement, time_bound=None, engine="tree")
        for seed in (0, 1, 2):
            got = pure.sample(0, 0, rng_from_seed(seed))
            want = tree.sample(0, 0, rng_from_seed(seed))
            assert (got.verdict, got.steps) == (want.verdict, want.steps)

    def test_compiled_exact_reach_without_bound(self, setup3, statement):
        pure = build_for(
            setup3, statement, time_bound=None, engine="batched-pure"
        )
        tree = build_for(setup3, statement, time_bound=None, engine="tree")
        got = pure.exact_reach(0, 0, 40)
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
# Batched sampling: uniform sources and engine-level byte identity
# ---------------------------------------------------------------------------


class TestUniformSource:
    @staticmethod
    def _reference(seed, count):
        rng = rng_from_seed(seed)
        return [rng.random() for _ in range(count)]

    def test_numpy_block_matches_python_stream(self):
        if not np_backend.available():
            pytest.skip("numpy not installed")
        reference = self._reference(9, 3000)
        source = UniformSource(
            rng_from_seed(9),
            block=128,
            bulk=np_backend.make_bulk(rng_from_seed(9)),
        )
        drawn = []
        while len(drawn) < 3000:
            drawn.extend(source.refill())
        assert drawn[:3000] == reference

    def test_pure_block_matches_python_stream(self):
        reference = self._reference(9, 300)
        source = UniformSource(rng_from_seed(9), block=300)
        assert source.refill() == reference

    def test_skip_discards_exactly(self):
        reference = self._reference(4, 500)
        source = UniformSource(rng_from_seed(4), block=100)
        data = source.refill()
        first = data[0]
        source.pos = 1
        source.skip(250)  # crosses two block boundaries
        data = source.refill()
        assert first == reference[0]
        assert data[0] == reference[251]


class TestBatchedByteIdentity:
    """Engine API level: batched(pure) == batched(numpy) == tree."""

    def _engines(self, setup3, statement):
        batched = build_for(setup3, statement, engine="batched")
        pure = BatchedEngine(
            batched.tree, batched.tables, batched.flags, force_pure=True
        )
        return batched.tree, batched, pure

    def test_sample_stream_identical(self, setup3, statement):
        tree, batched, pure = self._engines(setup3, statement)
        for adversary_index in range(len(setup3.adversaries)):
            streams = []
            for engine in (tree, batched, pure):
                rng = rng_from_seed(31 + adversary_index)
                streams.append([
                    (result.verdict, result.steps)
                    for result in (
                        engine.sample(adversary_index, 0, rng)
                        for _ in range(40)
                    )
                ])
            assert streams[0] == streams[1] == streams[2]

    def test_time_stream_identical(self, setup3, statement):
        tree, batched, pure = self._engines(setup3, statement)
        for adversary_index in range(len(setup3.adversaries)):
            streams = []
            for engine in (tree, batched, pure):
                rng = rng_from_seed(77 + adversary_index)
                streams.append([
                    engine.time_to_target(adversary_index, 0, rng)
                    for _ in range(25)
                ])
            assert streams[0] == streams[1] == streams[2]

    def test_batched_without_bound(self, setup3, statement):
        # The unbounded-time regression, on the flat walker too.
        batched = build_for(
            setup3, statement, time_bound=None, engine="batched"
        )
        tree = build_for(setup3, statement, time_bound=None, engine="tree")
        for seed in (0, 1, 2):
            got = batched.sample(0, 0, rng_from_seed(seed))
            want = tree.sample(0, 0, rng_from_seed(seed))
            assert (got.verdict, got.steps) == (want.verdict, want.steps)

    def test_numpy_absent_machine_takes_pure_path(
        self, setup3, statement, monkeypatch
    ):
        # A machine without numpy: available() is False and make_bulk
        # degrades to None.  Both the implicit fallback under
        # --engine batched and the explicit batched-pure engine name
        # must build and match the tree walk byte for byte.
        monkeypatch.setattr(np_backend, "available", lambda: False)
        monkeypatch.setattr(np_backend, "make_bulk", lambda rng: None)
        tree = build_for(setup3, statement, engine="tree")
        batched = build_for(setup3, statement, engine="batched")
        pure = build_for(setup3, statement, engine="batched-pure")
        for seed in (0, 1, 2):
            want = tree.sample(0, 0, rng_from_seed(seed))
            for engine in (batched, pure):
                got = engine.sample(0, 0, rng_from_seed(seed))
                assert (got.verdict, got.steps) == (
                    want.verdict, want.steps
                )

    def test_flat_chain_arrays_are_consistent(self, setup3, statement):
        batched = build_for(setup3, statement, engine="batched")
        flats = [flat for flat in batched.flat_tables if flat is not None]
        assert flats, "no adversary flattened"
        for flat in flats:
            assert len(flat.offsets) == flat.n_nodes + 1
            assert len(flat.targets) == len(flat.cum) == len(flat.ideltas)
            for node in range(flat.n_nodes):
                run = flat.skip_steps[node]
                if not run:
                    continue
                # Replaying the run stepwise must land on skip_to with
                # the memoised total and cross only single-outcome,
                # unflagged, non-halt interior nodes.
                cursor, total = node, 0
                for _ in range(run):
                    assert not flat.node_flag[cursor]
                    assert not flat.halt[cursor]
                    lo, hi = flat.offsets[cursor], flat.offsets[cursor + 1]
                    assert hi - lo == 1
                    total += flat.ideltas[lo]
                    cursor = flat.targets[lo]
                assert cursor == flat.skip_to[node]
                assert total == flat.skip_total[node]


CLI_MATRIX = [
    (workers, guards)
    for workers in (1, 4)
    for guards in ("off", "warn", "strict")
]

CLI_ENGINES = ("tree", "batched", "auto")


def _run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestCliBackendMatrix:
    """CLI stdout is byte-identical across every backend combination.

    ``batched-pure`` is exercised by disabling the numpy transplant via
    monkeypatch — fork-started workers inherit the patched module, so
    the pure path is pinned for parallel runs too.
    """

    @pytest.mark.parametrize("workers,guards", CLI_MATRIX)
    def test_check_matrix(self, capsys, monkeypatch, workers, guards):
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
        monkeypatch.setattr(np_backend, "make_bulk", lambda rng: None)
        runs["batched-pure"] = _run_cli(capsys, [
            "check", "--prop", "composed", "--engine", "batched",
        ] + argv_tail)
        baseline = runs["tree"]
        assert baseline[1].strip(), "empty stdout"
        for engine, run in runs.items():
            assert run == baseline, (
                f"{engine} diverged at workers={workers} guards={guards}"
            )

    @pytest.mark.parametrize("workers", (1, 4))
    def test_verify_identical(self, capsys, monkeypatch, workers):
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
        monkeypatch.setattr(np_backend, "make_bulk", lambda rng: None)
        runs["batched-pure"] = _run_cli(
            capsys, ["verify", "--engine", "batched"] + argv_tail
        )
        baseline = runs["tree"]
        assert baseline[1].strip(), "empty stdout"
        for engine, run in runs.items():
            assert run == baseline, f"{engine} diverged at workers={workers}"

    @pytest.mark.parametrize("workers", (1, 4))
    def test_expected_time_identical(self, capsys, monkeypatch, workers):
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
        monkeypatch.setattr(np_backend, "make_bulk", lambda rng: None)
        runs["batched-pure"] = _run_cli(
            capsys, ["expected-time", "--engine", "batched"] + argv_tail
        )
        baseline = runs["tree"]
        assert baseline[1].strip(), "empty stdout"
        for engine, run in runs.items():
            assert run == baseline, f"{engine} diverged at workers={workers}"


# ---------------------------------------------------------------------------
# Ring-symmetry quotient
# ---------------------------------------------------------------------------


def _comparable(state):
    """A state as plain comparable data (enums are not orderable)."""
    return (
        tuple((p.pc.value, p.u.value) for p in state.processes),
        state.resources,
    )


class TestRingSymmetryAlgebra:
    def _sample_states(self, n, count=25):
        states = list(lr.canonical_states(n).values())
        rng = rng_from_seed(1234)
        while count > 0:
            state = lr.random_consistent_state(n, rng)
            if state is not None:
                states.append(state)
                count -= 1
        return states

    def test_rotation_and_reflection_are_involutive_group_ops(self):
        for state in self._sample_states(3):
            assert state.rotated(state.n) == state
            assert state.reflected().reflected() == state
            assert state.rotated(1).rotated(state.n - 1) == state

    def test_canonical_maps_are_constant_on_orbits(self):
        for state in self._sample_states(3):
            canon = _comparable(lr.canonical_rotation(state))
            for member in lr.rotation_orbit(state):
                assert _comparable(lr.canonical_rotation(member)) == canon
            canon = _comparable(lr.canonical_symmetry(state))
            for member in lr.symmetry_orbit(state):
                assert _comparable(lr.canonical_symmetry(member)) == canon

    def test_region_predicates_are_quotient_invariant(self):
        # The tentpole's validity spot check: every region predicate
        # used as a target or flag is constant on dihedral orbits.
        predicates = (
            lr.in_critical,
            lr.in_trying,
            lr.in_good,
            lr.in_flip_ready,
            lr.in_pre_critical,
            lr.in_reduced_trying,
        )
        for state in self._sample_states(3):
            for predicate in predicates:
                value = predicate(state)
                assert all(
                    predicate(member) == value
                    for member in lr.symmetry_orbit(state)
                ), f"{predicate.__name__} not invariant on {state!r}"

    def test_reflection_is_a_bisimulation_on_samples(self):
        # Transitions of the mirrored state are exactly the mirrored
        # transitions: matching (weights, mirrored targets) multisets.
        automaton = lr.lehmann_rabin_automaton(3)

        def signature(source, mirror):
            rows = []
            for transition in automaton.transitions(source):
                outcomes = sorted(
                    (
                        weight,
                        _comparable(
                            target.reflected() if mirror else target
                        ),
                    )
                    for target, weight in transition.target.items()
                )
                rows.append(tuple(outcomes))
            rows.sort()
            return rows

        for state in self._sample_states(3, count=10):
            assert signature(state.reflected(), False) == signature(
                state, True
            )


class TestQuotientGoldenCounts:
    """The quotiented n=3 spaces are pinned exactly (~n and ~2n smaller)."""

    @pytest.fixture(scope="class")
    def starts3(self):
        return tuple(lr.canonical_states(3).values())

    def test_rotation_quotient_counts(self, starts3):
        automaton = lr.lehmann_rabin_automaton(3)
        space = compile_space(
            automaton, starts3, lr.rotation_space_spec()
        )
        assert space.n_states == 1454
        assert sum(len(steps) for steps in space.steps) == 6040

    def test_dihedral_quotient_counts(self, starts3):
        automaton = lr.lehmann_rabin_automaton(3)
        space = compile_space(
            automaton, starts3, lr.ring_symmetry_spec()
        )
        assert space.n_states == 727
        assert sum(len(steps) for steps in space.steps) == 3020


class TestQuotientInvarianceGuard:
    """``flags`` spot-checks predicates across sampled orbit members."""

    @pytest.fixture(scope="class")
    def quotient_space(self):
        automaton = lr.lehmann_rabin_automaton(3)
        starts = tuple(lr.canonical_states(3).values())
        return compile_space(automaton, starts, lr.ring_symmetry_spec())

    def _broken_predicate(self, state):
        # Depends on the representative's labelling, not the orbit:
        # process 0's counter is not preserved by rotation.
        return state.processes[0].pc is lr.PC.R

    def test_invariant_predicate_passes_strict(self, quotient_space):
        strict = GuardConfig(mode=STRICT).validate()
        flags = quotient_space.flags(lr.in_critical, strict)
        assert len(flags) == quotient_space.n_states

    def test_mutated_predicate_raises_in_strict(self, quotient_space):
        strict = GuardConfig(mode=STRICT).validate()
        with pytest.raises(QuotientInvarianceError):
            quotient_space.flags(self._broken_predicate, strict)

    def test_mutated_predicate_warns_and_returns_in_warn(self, quotient_space):
        warn = GuardConfig(mode=WARN).validate()
        flags = quotient_space.flags(self._broken_predicate, warn)
        assert len(flags) == quotient_space.n_states

    def test_mutated_predicate_is_silent_when_off(self, quotient_space):
        flags = quotient_space.flags(self._broken_predicate, OFF_CONFIG)
        assert len(flags) == quotient_space.n_states
        flags = quotient_space.flags(self._broken_predicate)
        assert len(flags) == quotient_space.n_states

    def test_strict_violation_falls_back_to_tree_in_build(self, statement):
        # End to end: a non-invariant target under the quotient must
        # not silently ship a batched engine in auto mode.
        setup = LRExperimentSetup.build(3, random_seeds=())
        strict = GuardConfig(mode=STRICT).validate()
        engine = build_engine(
            setup.automaton,
            setup.adversaries,
            tuple(lr.canonical_states(3).values()),
            self._broken_predicate,
            lr.lr_time_of,
            statement.time_bound,
            200,
            engine="auto",
            spec=lr.ring_symmetry_spec(),
            guards=strict,
        )
        assert engine.name == "tree"


class TestQuotientFeasibilityN5:
    """The dihedral quotient fits n=5 inside the default state budget."""

    def test_exact_reach_completes_at_n5(self):
        setup = LRExperimentSetup.build(5, random_seeds=())
        fifo_only = [pair for pair in setup.adversaries if pair[0] == "fifo"]
        assert fifo_only, "fifo adversary missing"
        start = lr.initial_state(5)
        engine = build_engine(
            setup.automaton,
            fifo_only,
            (start,),
            lr.in_critical,
            lr.lr_time_of,
            None,
            60,
            engine="batched",  # compile-or-die: budget blowouts fail loudly
            spec=setup.symmetry_spec(),
        )
        assert isinstance(engine, BatchedEngine)
        space = engine.tables[0].space if engine.tables[0] else None
        assert space is not None, "fifo did not tabulate at n=5"
        # The quotiented space fits the 200k default budget (the raw
        # untimed space does not).
        assert space.n_states == 116_990
        bounds = engine.exact_reach(0, 0, 40)
        assert 0 <= bounds.lower <= bounds.upper <= 1
        assert bounds.upper > 0

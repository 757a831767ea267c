"""Model-contract guard suite: Definitions 2.1/2.2/3.3 enforcement.

The contract under test: deliberately broken models — a transition
distribution summing to 99/100, an adversary scheduling a non-enabled
step, a schema falsely claiming execution closure, a nonterminating
run — are *caught* in ``strict`` mode (quarantined with diagnostics
naming the state/action), *counted* in ``warn`` mode, and *invisible*
in ``off`` mode; and on healthy models every guard mode produces
byte-identical reports for every worker count.

The mutated models themselves live in :mod:`repro.corpus.cases` and
are registered, with their expected classifications, in the standing
defect corpus (:mod:`repro.corpus.registry`).  The mutation-matrix
tests here consume those registry entries rather than carrying private
copies — adding a defect to the corpus is what adds it here.
"""

from __future__ import annotations

import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from repro import contracts, obs
from repro.adversary.base import AdversarySchema, shift
from repro.adversary.deterministic import FirstEnabledAdversary
from repro.automaton.automaton import (
    ExplicitAutomaton,
    FunctionalAutomaton,
)
from repro.automaton.execution import ExecutionFragment
from repro.automaton.signature import ActionSignature
from repro.automaton.transition import Transition
from repro.cli import main
from repro.contracts import (
    Fuel,
    GuardConfig,
    audit_automaton,
    check_chosen_step,
    check_schema_membership,
    check_transition_distribution,
    spot_check_closure,
)
from repro.corpus.cases import (
    A_CLASS,
    TINY_STATEMENT,
    broken_automaton,
    honest_schema,
    liar_schema,
    rogue_adversary,
    smuggled_distribution,
    tiny_automaton,
    zero_time,
)
from repro.corpus.registry import entry_by_name
from repro.errors import (
    AdversaryContractError,
    AutomatonError,
    DistributionError,
    ExecutionClosureError,
    FuelExhaustedError,
    VerificationError,
)
from repro.parallel import fork_available
from repro.parallel.seeds import derive_rng
from repro.probability.space import FiniteDistribution
from repro.proofs.statements import ArrowStatement
from repro.proofs.verifier import (
    check_arrow_by_sampling,
    measure_time_to_target,
)
from repro.statespace import compile_scope, compile_space
from repro.statespace.engine import TreeEngine

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the pooled paths need the fork method"
)

WORKER_COUNTS = [1, pytest.param(4, marks=needs_fork)]

OFF = GuardConfig(mode="off")
WARN = GuardConfig(mode="warn")
STRICT = GuardConfig(mode="strict")


@pytest.fixture(autouse=True)
def _fresh_warning_sites():
    contracts.reset_warnings()
    yield
    contracts.reset_warnings()


# ----------------------------------------------------------------------
# The tiny model and its mutations (from the shared defect corpus)
# ----------------------------------------------------------------------


def corpus_case(name):
    """The registry entry and a freshly built case for one mutation."""
    entry = entry_by_name(name)
    return entry, entry.build()


def run_case(case, guards, workers=1):
    """Replay a corpus :class:`CheckCase` through the sampling checker."""
    return run_check(
        case.automaton_factory(),
        list(case.adversaries_factory()),
        guards,
        statement=case.statement,
        schema=case.schema_factory() if case.schema_factory else None,
        workers=workers,
        samples=case.samples,
        seed=case.seed,
    )


def run_check(
    automaton,
    adversaries,
    guards,
    statement=TINY_STATEMENT,
    schema=None,
    workers=1,
    samples=8,
    seed=11,
):
    return check_arrow_by_sampling(
        automaton,
        statement,
        adversaries,
        ["a"],
        zero_time,
        samples_per_pair=samples,
        max_steps=24,
        seed=seed,
        workers=workers,
        schema=schema,
        guards=guards,
    )


# ----------------------------------------------------------------------
# Configuration and fuel parsing
# ----------------------------------------------------------------------


class TestGuardConfig:
    def test_default_is_off(self):
        config = GuardConfig()
        assert config.mode == "off"
        assert not config.checking
        assert not config.strict
        assert not config.fuelled

    def test_modes(self):
        assert WARN.checking and not WARN.strict
        assert STRICT.checking and STRICT.strict

    def test_from_flags_plain_steps(self):
        config = GuardConfig.from_flags("warn", "500")
        assert config.fuel_steps == 500
        assert config.fuel_seconds is None

    def test_from_flags_assignments(self):
        config = GuardConfig.from_flags("strict", "steps=5,seconds=1.5")
        assert config.fuel_steps == 5
        assert config.fuel_seconds == 1.5

    def test_from_flags_no_fuel(self):
        config = GuardConfig.from_flags("warn", None)
        assert not config.fuelled

    @pytest.mark.parametrize(
        "spec", ["bananas=3", "steps=", "steps=many", "seconds=soon", "=5"]
    )
    def test_bad_fuel_specs_rejected(self, spec):
        with pytest.raises(VerificationError):
            GuardConfig.from_flags("warn", spec)

    def test_fuel_requires_checking_mode(self):
        with pytest.raises(VerificationError, match="warn.*strict"):
            GuardConfig.from_flags("off", "100")

    def test_unknown_mode_rejected(self):
        with pytest.raises(VerificationError, match="unknown guard mode"):
            GuardConfig(mode="audit").validate()

    def test_nonpositive_budgets_rejected(self):
        with pytest.raises(VerificationError):
            GuardConfig(mode="warn", fuel_steps=0).validate()
        with pytest.raises(VerificationError):
            GuardConfig(mode="warn", fuel_seconds=0.0).validate()


# ----------------------------------------------------------------------
# Tri-state fully-probabilistic status (satellite)
# ----------------------------------------------------------------------


class TestFullyProbabilisticTriState:
    def chain_automaton(self):
        """Unbounded functional chain 0 --go--> 1 --go--> 2 --go--> ..."""
        return FunctionalAutomaton(
            [0],
            ActionSignature(internal=frozenset({"go"})),
            lambda state: (
                Transition(state, "go", FiniteDistribution.dirac(state + 1)),
            ),
        )

    def test_linear_explicit_is_yes(self):
        # One enabled step per state and a single start: fully
        # probabilistic, and the walk covers everything.
        assert tiny_automaton().fully_probabilistic_status() == "yes"
        linear = ExplicitAutomaton(
            states=["a", "b"],
            start_states=["a"],
            signature=ActionSignature(internal=frozenset({"go"})),
            steps=[Transition("a", "go", FiniteDistribution.dirac("b"))],
        )
        assert linear.fully_probabilistic_status() == "yes"
        assert linear.is_fully_probabilistic()

    def test_branching_state_is_no(self, branching_automaton):
        assert branching_automaton.fully_probabilistic_status() == "no"
        assert not branching_automaton.is_fully_probabilistic()

    def test_multiple_starts_is_no(self):
        automaton = ExplicitAutomaton(
            states=["a", "b"],
            start_states=["a", "b"],
            signature=ActionSignature(internal=frozenset({"go"})),
            steps=[],
        )
        assert automaton.fully_probabilistic_status() == "no"

    def test_horizon_exhaustion_is_unknown_not_yes(self):
        chain = self.chain_automaton()
        assert chain.fully_probabilistic_status(horizon=5) == "unknown"
        # The historical conflation: is_fully_probabilistic used to
        # report True here.  "unknown" must not read as a definite yes.
        assert not chain.is_fully_probabilistic(horizon=5)

    def test_unknown_routed_through_audit_report(self):
        report = audit_automaton(self.chain_automaton(), horizon=5)
        assert report.fully_probabilistic == "unknown"
        assert report.exhausted
        assert "unknown" in report.summary_line()


# ----------------------------------------------------------------------
# Static audit (Definition 2.1)
# ----------------------------------------------------------------------


class TestAudit:
    def test_healthy_model_is_ok(self):
        report = audit_automaton(tiny_automaton())
        assert report.ok
        assert report.states_visited == 3
        assert report.transitions_checked == 3
        assert not report.exhausted
        assert report.to_dict()["ok"] is True
        assert "ok" in report.summary_line()

    def test_broken_distribution_is_found_with_state_and_action(self):
        report = audit_automaton(broken_automaton())
        assert not report.ok
        kinds = {finding.kind for finding in report.findings}
        assert "distribution" in kinds
        finding = next(
            f for f in report.findings if f.kind == "distribution"
        )
        assert finding.state == "'a'"
        assert finding.action == "'go'"
        assert "99/100" in finding.message
        assert "'a'" in finding.describe()

    def test_invalid_reachable_state_is_found(self):
        def validator(state):
            if state == 2:
                raise AutomatonError("state 2 is corrupt")

        automaton = FunctionalAutomaton(
            [0],
            ActionSignature(internal=frozenset({"go"})),
            lambda state: ()
            if state >= 2
            else (
                Transition(state, "go", FiniteDistribution.dirac(state + 1)),
            ),
            state_validator=validator,
        )
        report = audit_automaton(automaton)
        assert not report.ok
        assert any(
            f.kind == "state" and f.state == "2" for f in report.findings
        )

    def test_horizon_exhaustion_reported(self):
        automaton = TestFullyProbabilisticTriState().chain_automaton()
        report = audit_automaton(automaton, horizon=3)
        assert report.exhausted
        assert report.ok  # exhaustion is not a defect
        assert "horizon exhausted" in report.summary_line()

    def test_lehmann_rabin_automaton_audits_clean(self):
        from repro.algorithms import lehmann_rabin as lr

        report = audit_automaton(lr.lehmann_rabin_automaton(3), horizon=500)
        assert report.ok


# ----------------------------------------------------------------------
# Guard-check units
# ----------------------------------------------------------------------


class TestGuardChecks:
    def fragment(self):
        return ExecutionFragment.initial("a")

    def test_own_transition_passes_identity_fast_path(self):
        automaton = tiny_automaton()
        step = automaton.transitions("a")[0]
        check_chosen_step(STRICT, automaton, self.fragment(), step)

    def test_disabled_step_raises_in_strict(self):
        automaton = tiny_automaton()
        fake = Transition("a", "stop", FiniteDistribution.dirac("c"))
        with pytest.raises(AdversaryContractError) as excinfo:
            check_chosen_step(
                STRICT, automaton, self.fragment(), fake, "rogue"
            )
        assert "'stop'" in str(excinfo.value)
        assert "'a'" in str(excinfo.value)
        assert excinfo.value.to_dict()["kind"] == "adversary"

    def test_wrong_source_raises_in_strict(self):
        automaton = tiny_automaton()
        stray = Transition("b", "go", FiniteDistribution.dirac("c"))
        with pytest.raises(AdversaryContractError, match="ends in 'a'"):
            check_chosen_step(STRICT, automaton, self.fragment(), stray)

    def test_broken_distribution_raises_in_strict(self):
        automaton = broken_automaton()
        step = automaton.transitions("a")[0]
        with pytest.raises(DistributionError, match="99/100"):
            check_transition_distribution(STRICT, step)

    def test_validated_distribution_is_cached(self):
        step = tiny_automaton().transitions("a")[0]
        assert check_transition_distribution(STRICT, step) is None
        assert id(step) in contracts.guards._validated_transitions
        assert check_transition_distribution(STRICT, step) is None

    def test_the_compile_checks_without_caching(self):
        contracts.forget_validated_transitions()
        automaton = tiny_automaton()
        compile_space(automaton, ["a"], guards=STRICT)
        assert contracts.guards._validated_transitions == {}
        with pytest.raises(DistributionError):
            compile_space(broken_automaton(), ["a"], guards=STRICT)

    def test_the_cache_lasts_one_compile_scope(self):
        automaton = tiny_automaton()
        step = automaton.transitions("a")[0]
        with compile_scope():
            check_chosen_step(STRICT, automaton, self.fragment(), step)
            assert id(step) in contracts.guards._validated_transitions
        assert contracts.guards._validated_transitions == {}

    def test_lean_sum_matches_the_full_one(self):
        """A point mass is checked without a running ``Fraction`` sum;
        the messages keep their text."""
        point = Transition("a", "go", FiniteDistribution.dirac("b"))
        assert check_transition_distribution(STRICT, point, cache=False) is None
        for weights, total in (({}, "0"), ({"b": Fraction(1, 2)}, "1/2")):
            empty = Transition("a", "go", smuggled_distribution(weights))
            with pytest.raises(DistributionError, match=f"sums to {total} "):
                check_transition_distribution(STRICT, empty, cache=False)

    def test_failures_are_not_cached(self):
        step = broken_automaton().transitions("a")[0]
        first = check_transition_distribution(WARN, step)
        assert isinstance(first, DistributionError)
        # A later strict pass over the same object must still raise.
        with pytest.raises(DistributionError):
            check_transition_distribution(STRICT, step)

    def test_schema_membership_violation(self):
        outsider = AdversarySchema(
            name="empty", contains=lambda adv: False
        )
        with pytest.raises(AdversaryContractError, match="'empty'"):
            check_schema_membership(
                STRICT, outsider, FirstEnabledAdversary(), "first"
            )
        check_schema_membership(
            STRICT, honest_schema(), FirstEnabledAdversary(), "first"
        )

    def test_closure_spot_check_catches_false_claim(self):
        fragment = self.fragment().extend("go", "b").extend("go", "c")
        rng = derive_rng(0, "contracts")
        with pytest.raises(ExecutionClosureError, match="tiny-liar"):
            spot_check_closure(
                STRICT,
                liar_schema(),
                FirstEnabledAdversary(),
                fragment,
                rng,
            )
        spot_check_closure(
            STRICT, honest_schema(), FirstEnabledAdversary(), fragment, rng
        )

    def test_shift_witness_satisfies_definition(self):
        """The shift wrapper is the Definition 3.3 witness ``A'``."""
        automaton = tiny_automaton()
        base = FirstEnabledAdversary()
        prefix = self.fragment().extend("go", "b")
        shifted = shift(base, prefix)
        tail = ExecutionFragment.initial("b")
        assert shifted.choose(automaton, tail) == base.choose(
            automaton, prefix.concat(tail)
        )

    def test_warn_counts_and_warns_once_per_site(self, capsys):
        automaton = broken_automaton()
        step = automaton.transitions("a")[0]
        with obs.recording() as registry:
            for _ in range(5):
                check_transition_distribution(WARN, step)
        counters = registry.metrics.snapshot()["counters"]
        assert counters["contracts.violations"] == 5
        assert counters["contracts.distribution"] == 5
        err = capsys.readouterr().err
        assert err.count("repro: contract warning") == 1
        contracts.reset_warnings()
        check_transition_distribution(WARN, step)
        assert "contract warning" in capsys.readouterr().err

    def test_fuel_step_budget(self):
        fuel = Fuel(1, None)
        assert fuel.spend(STRICT, self.fragment())
        with pytest.raises(FuelExhaustedError, match="step budget"):
            fuel.spend(STRICT, self.fragment())

    def test_fuel_warn_mode_returns_false(self):
        fuel = Fuel(2, None)
        with obs.recording() as registry:
            assert fuel.spend(WARN, self.fragment())
            assert fuel.spend(WARN, self.fragment())
            assert not fuel.spend(WARN, self.fragment())
        counters = registry.metrics.snapshot()["counters"]
        assert counters["contracts.fuel"] == 1

    def test_violation_carries_minimal_repro(self):
        fragment = self.fragment().extend("go", "b")
        error = FuelExhaustedError(
            "out of fuel", state="b", prefix=fragment, site="fuel:x"
        )
        assert "state='b'" in str(error)
        assert "prefix=" in str(error)


# ----------------------------------------------------------------------
# Mutation matrix: strict catches, warn counts, off is invisible —
# at workers 1 and 4.  Every mutation comes from the defect corpus.
# ----------------------------------------------------------------------


class TestMutationMatrix:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_broken_distribution_strict_quarantines(self, workers):
        entry, case = corpus_case("distribution-sum-99-100")
        assert entry.expect["strict"] == "quarantined:distribution"
        report = run_case(case, STRICT, workers=workers)
        assert not report.checks
        assert len(report.quarantined) == 1
        pair = report.quarantined[0]
        assert pair.kind == entry.expected_kind
        assert "'a'" in pair.message and "'go'" in pair.message
        assert "99/100" in pair.message
        assert not report.supported
        assert math.isnan(report.min_estimate)
        assert "quarantined" in report.summary_line()
        assert report.to_dict()["min_estimate"] is None

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_broken_distribution_warn_counts(self, workers):
        entry, case = corpus_case("distribution-sum-99-100")
        with obs.recording() as registry:
            report = run_case(case, WARN, workers=workers)
        assert not report.quarantined
        assert report.checks[0].summary.trials == case.samples
        counters = registry.metrics.snapshot()["counters"]
        assert counters["contracts.violations"] >= 1
        assert counters[f"contracts.{entry.expected_kind}"] >= 1

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_broken_distribution_off_is_invisible(self, workers):
        entry, case = corpus_case("distribution-sum-99-100")
        assert entry.expect["off"] == "ok"
        with obs.recording() as registry:
            off_report = run_case(case, OFF, workers=workers)
        counters = registry.metrics.snapshot()["counters"]
        assert not any(name.startswith("contracts.") for name in counters)
        # Warn mode changes nothing but the counters: same bytes.
        warn_report = run_case(case, WARN, workers=workers)
        assert warn_report.to_dict() == off_report.to_dict()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_rogue_adversary_strict_quarantines(self, workers):
        entry, case = corpus_case("adversary-disabled-step")
        report = run_case(case, STRICT, workers=workers)
        assert len(report.quarantined) == 1
        pair = report.quarantined[0]
        assert pair.kind == entry.expected_kind == "adversary"
        assert pair.adversary_name == "rogue"
        assert "not enabled" in pair.message
        assert "'stop'" in pair.message

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_rogue_adversary_warn_counts(self, workers):
        entry, case = corpus_case("adversary-disabled-step")
        with obs.recording() as registry:
            report = run_case(case, WARN, workers=workers)
        assert not report.quarantined
        counters = registry.metrics.snapshot()["counters"]
        assert counters[f"contracts.{entry.expected_kind}"] >= 1

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_rogue_adversary_off_is_invisible(self, workers):
        _, case = corpus_case("adversary-disabled-step")
        with obs.recording() as registry:
            report = run_case(case, OFF, workers=workers)
        assert not report.quarantined
        counters = registry.metrics.snapshot()["counters"]
        assert not any(name.startswith("contracts.") for name in counters)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_false_closure_strict_quarantines(self, workers):
        entry, case = corpus_case("schema-false-closure")
        report = run_case(case, STRICT, workers=workers)
        assert len(report.quarantined) == 1
        pair = report.quarantined[0]
        assert pair.kind == entry.expected_kind == "closure"
        assert "tiny-liar" in pair.message
        assert "execution_closed" in pair.message

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_false_closure_warn_counts(self, workers):
        entry, case = corpus_case("schema-false-closure")
        with obs.recording() as registry:
            report = run_case(case, WARN, workers=workers)
        assert not report.quarantined
        counters = registry.metrics.snapshot()["counters"]
        assert counters[f"contracts.{entry.expected_kind}"] >= 1

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_false_closure_off_is_invisible(self, workers):
        _, case = corpus_case("schema-false-closure")
        with obs.recording() as registry:
            run_case(case, OFF, workers=workers)
        counters = registry.metrics.snapshot()["counters"]
        assert not any(name.startswith("contracts.") for name in counters)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_healthy_model_identical_across_modes(self, workers):
        entry, case = corpus_case("healthy-tiny")
        assert all(entry.expect[mode] == "ok" for mode in entry.expect)
        reports = [
            run_check(
                case.automaton_factory(),
                list(case.adversaries_factory()),
                guards,
                schema=honest_schema(),
                workers=workers,
            ).to_dict()
            for guards in (OFF, WARN, STRICT)
        ]
        assert reports[0] == reports[1] == reports[2]
        assert not reports[0]["quarantined"]


# ----------------------------------------------------------------------
# Fuel budgets and quarantine degradation
# ----------------------------------------------------------------------


class TestFuelAndQuarantine:
    def test_strict_fuel_surfaces_nontermination(self):
        entry, case = corpus_case("fuel-exhausted-never-target")
        report = run_case(
            case, GuardConfig(mode="strict", fuel_steps=case.fuel_steps)
        )
        assert len(report.quarantined) == 1
        pair = report.quarantined[0]
        assert pair.kind == entry.expected_kind == "fuel"
        assert f"step budget of {case.fuel_steps}" in pair.message
        assert "prefix=" in pair.message

    def test_warn_fuel_truncates_like_max_steps(self):
        entry, case = corpus_case("fuel-exhausted-never-target")
        assert not entry.warn_matches_off  # fuel truncates trajectories
        with obs.recording() as registry:
            report = run_case(
                case, GuardConfig(mode="warn", fuel_steps=case.fuel_steps)
            )
        assert not report.quarantined
        check = report.checks[0]
        assert check.summary.trials == case.samples
        assert check.summary.successes == 0
        counters = registry.metrics.snapshot()["counters"]
        assert counters["contracts.fuel"] == case.samples

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_poisoned_pair_degrades_not_aborts(self, workers):
        """One rogue adversary in a family must not poison the rest."""
        family = [
            ("first", FirstEnabledAdversary()),
            ("rogue", rogue_adversary()),
        ]
        report = run_check(
            tiny_automaton(), family, STRICT, workers=workers
        )
        assert len(report.checks) == 1
        assert len(report.quarantined) == 1
        assert report.quarantined[0].adversary_name == "rogue"
        # The healthy pair's stream is derived from its own identity,
        # so its counts match a solo run exactly.
        solo = run_check(
            tiny_automaton(), [("first", FirstEnabledAdversary())], STRICT
        )
        assert report.checks[0].summary == solo.checks[0].summary

    def test_time_to_target_quarantine(self):
        report = measure_time_to_target(
            tiny_automaton(),
            "rogue",
            rogue_adversary(),
            ["a"],
            lambda s: s == "c",
            zero_time,
            samples=4,
            max_steps=24,
            seed=5,
            guards=STRICT,
        )
        assert not report.times
        assert len(report.quarantined) == 1
        assert report.quarantined[0].kind == "adversary"
        assert report.to_dict()["quarantined"]

    def test_time_to_target_healthy_modes_identical(self):
        reports = [
            measure_time_to_target(
                tiny_automaton(),
                "first",
                FirstEnabledAdversary(),
                ["a"],
                lambda s: s == "c",
                zero_time,
                samples=6,
                max_steps=24,
                seed=5,
                schema=honest_schema(),
                guards=guards,
            ).to_dict()
            for guards in (OFF, WARN, STRICT)
        ]
        assert reports[0] == reports[1] == reports[2]


# ----------------------------------------------------------------------
# One closure probe for arrow pairs and time-to-target starts
# ----------------------------------------------------------------------


class TestClosureProbe:
    def test_start_in_target_is_still_probed_on_every_engine(self):
        """Start ``a`` already lies in ``A``, so every sample decides at
        once; both task kinds must still probe closure, with the same
        report bytes on each engine."""
        stay = ArrowStatement(A_CLASS, A_CLASS, 0, 1, "tiny")
        arrows, times = set(), set()
        for engine in ("tree", "batched"):
            arrow = check_arrow_by_sampling(
                tiny_automaton(), stay, [("first", FirstEnabledAdversary())],
                ["a"], zero_time, samples_per_pair=4, max_steps=24, seed=11,
                schema=liar_schema(), guards=STRICT, engine=engine,
            )
            time = measure_time_to_target(
                tiny_automaton(), "first", FirstEnabledAdversary(), ["a"],
                A_CLASS.contains, zero_time, samples=4, max_steps=24,
                seed=11, schema=liar_schema(), guards=STRICT, engine=engine,
            )
            for report in (arrow, time):
                assert [q.kind for q in report.quarantined] == ["closure"]
                assert "tiny-liar" in report.quarantined[0].message
            arrows.add(json.dumps(arrow.to_dict(), sort_keys=True))
            times.add(json.dumps(time.to_dict(), sort_keys=True))
        assert len(arrows) == len(times) == 1

    def test_tabulated_batched_pairs_never_walk_the_tree(
        self, monkeypatch, capsys
    ):
        calls = []
        tree_sample = TreeEngine.sample

        def counted(engine, *args, **kwargs):
            calls.append(args)
            return tree_sample(engine, *args, **kwargs)

        monkeypatch.setattr(TreeEngine, "sample", counted)
        argv = ["check", "--model", "herman", "--n", "3", "--engine",
                "batched", "--samples", "4", "--guards", "warn"]
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == []


# ----------------------------------------------------------------------
# Lint satellite: no bare assert under src/
# ----------------------------------------------------------------------


class TestLintAssertBan:
    @pytest.fixture(scope="class")
    def lint(self):
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "repro_lint", root / "tools" / "lint.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_assert_flagged_under_src(self, lint, tmp_path):
        src = tmp_path / "src" / "mod.py"
        src.parent.mkdir()
        src.write_text("def f(x):\n    assert x\n    return x\n")
        findings = lint.banned_handlers(src)
        assert any("assert" in message for _, message in findings)
        assert lint.run_ban_check([tmp_path]) == 1

    def test_tests_are_exempt(self, lint, tmp_path):
        exempt = tmp_path / "tests" / "test_mod.py"
        exempt.parent.mkdir()
        exempt.write_text("def test_f():\n    assert True\n")
        assert lint.run_ban_check([tmp_path / "tests"]) == 0

    def test_repo_src_is_clean(self, lint):
        root = Path(__file__).resolve().parent.parent
        assert lint.run_ban_check([root / "src"]) == 0

    @pytest.mark.parametrize("where", [
        ("src", "mod.py"),
        ("src", "repro", "statespace", "np_backend.py"),
    ], ids=["mod", "np_backend"])
    def test_numpy_flagged_anywhere_under_src(self, lint, tmp_path, where):
        path = tmp_path.joinpath(*where)
        path.parent.mkdir(parents=True)
        path.write_text("import numpy\n")
        findings = lint.banned_handlers(path)
        assert [line for line, m in findings if "numpy" in m] == [1]
        assert lint.run_ban_check([tmp_path]) == 1

    @pytest.mark.parametrize("source, line", [
        ("import gc\ngc.disable()\n", 2),
        ("import gc\ngc.enable()\n", 2),
        ("import gc\ngc.freeze()\n", 2),
        ("import gc\ngc.unfreeze()\n", 2),
        ("import gc\ngc.set_threshold(0)\n", 2),
        ("from gc import freeze\nfreeze()\n", 1),
    ], ids=["disable", "enable", "freeze", "unfreeze", "set_threshold",
            "from-import"])
    def test_gc_switches_flagged_under_src(self, lint, tmp_path, source, line):
        path = tmp_path / "src" / "mod.py"
        path.parent.mkdir()
        path.write_text(source)
        findings = lint.banned_handlers(path)
        assert [at for at, m in findings if "gc.disable" in m] == [line]
        assert lint.run_ban_check([tmp_path]) == 1

    def test_gc_switches_allowed_in_the_engine_and_tests(
        self, lint, tmp_path
    ):
        source = "import gc\ngc.disable()\ngc.freeze()\ngc.unfreeze()\n"
        engine = tmp_path / "src" / "repro" / "statespace" / "engine.py"
        engine.parent.mkdir(parents=True)
        engine.write_text(source)
        assert lint.banned_handlers(engine) == []
        test = tmp_path / "tests" / "test_mod.py"
        test.parent.mkdir()
        test.write_text(source)
        assert lint.run_ban_check([tmp_path]) == 0

    def test_gc_reads_are_not_flagged(self, lint, tmp_path):
        path = tmp_path / "src" / "mod.py"
        path.parent.mkdir()
        path.write_text(
            "import gc\ngc.collect()\ngc.isenabled()\n"
            "gc.get_freeze_count()\n"
        )
        assert lint.banned_handlers(path) == []

    def test_numpy_allowed_in_tests(self, lint, tmp_path):
        path = tmp_path / "tests" / "test_mod.py"
        path.parent.mkdir()
        path.write_text("import numpy\n")
        assert lint.run_ban_check([tmp_path / "tests"]) == 0

    @pytest.mark.parametrize("where, flagged", [
        (("src", "mod.py"), True),
        (("src", "repro", "models", "mod.py"), False),
    ], ids=["outside", "models"])
    def test_case_studies_only_behind_the_registry(
        self, lint, tmp_path, where, flagged
    ):
        path = tmp_path.joinpath(*where)
        path.parent.mkdir(parents=True)
        # coins (Example 4.1) is not a registered model: never flagged.
        path.write_text("from repro.algorithms import coins, herman\n")
        findings = lint.banned_handlers(path)
        assert len(findings) == (1 if flagged else 0)
        assert all("repro.algorithms.herman" in m for _, m in findings)


# ----------------------------------------------------------------------
# CLI acceptance: byte identity, exit codes, audit
# ----------------------------------------------------------------------


class TestCLI:
    CHECK = ["check", "--prop", "A.14", "--n", "3", "--samples", "6",
             "--json"]

    def run_cli(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_guard_modes_byte_identical_on_healthy_model(self, capsys):
        code, baseline, _ = self.run_cli(
            self.CHECK + ["--guards", "off"], capsys
        )
        assert code == 0
        worker_counts = ["1"]
        if fork_available():
            worker_counts.append("4")
        for workers in worker_counts:
            for mode in ("warn", "strict"):
                code, out, _ = self.run_cli(
                    self.CHECK
                    + ["--guards", mode, "--workers", workers],
                    capsys,
                )
                assert code == 0, (mode, workers)
                assert out == baseline, (mode, workers)

    def test_strict_fuel_exits_with_contract_status(self, capsys):
        code, out, _ = self.run_cli(
            self.CHECK + ["--guards", "strict", "--fuel", "steps=1"],
            capsys,
        )
        assert code == 4
        data = json.loads(out)
        assert data["quarantined"]
        assert all(q["kind"] == "fuel" for q in data["quarantined"])

    def test_fuel_requires_guard_mode(self, capsys):
        code, _, err = self.run_cli(
            self.CHECK + ["--guards", "off", "--fuel", "100"], capsys
        )
        assert code == 2 and "'warn' or 'strict'" in err

    def test_audit_healthy_ring(self, capsys):
        code, out, _ = self.run_cli(["audit", "--n", "3", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["fully_probabilistic"] in ("yes", "no", "unknown")
        code, out, _ = self.run_cli(["audit", "--n", "3"], capsys)
        assert code == 0
        assert "audit: ok" in out

    def test_help_documents_contract_exit_status(self):
        from repro.cli import build_parser

        text = build_parser().format_help()
        assert "exit status" in text
        assert "model-contract violation" in text

    def test_check_help_documents_guard_flags(self):
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            with pytest.raises(SystemExit):
                main(["check", "--help"])
        text = buffer.getvalue()
        assert "--guards" in text
        assert "--fuel" in text

"""Defect-corpus, differential-fuzzer, and harness-hardening suite.

Four concerns share this module:

* the standing defect corpus: every built-in entry must classify
  identically across engines x guard modes x worker counts and match
  its declared expectations (``repro corpus run`` exits 0);
* the deterministic differential fuzzer: byte-identical campaigns for
  a fixed seed and budget, at any worker count, with ``--sabotage``
  proving the harness catches, shrinks, and reports an injected
  divergence with the dedicated exit status;
* the ``repro corpus`` / ``repro fuzz`` CLI surface, including the
  emit -> add -> replay roundtrip;
* the rider hardening: ``tools/bench.py --compare`` failing fast on
  unusable trajectories, and the ``tools/lint.py`` corpus <-> taxonomy
  sync check.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro import cli, obs
from repro.cli import main
from repro.corpus import (
    ENGINES,
    MODES,
    builtin_entries,
    corpus_record,
    diff_case,
    entry_by_name,
    generate_case,
    load_file_entries,
    run_corpus,
    run_fuzz,
)
from repro.corpus import runner as corpus_runner
from repro.corpus.fuzz import check_case_from_dict, shrink_case
from repro.corpus.runner import Classification
from repro.errors import VerificationError
from repro.parallel import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the pooled paths need the fork method"
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    """Import ``tools/<name>.py`` without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location(
        f"repro_tool_{name}", REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Exit-status lockstep and the expectation grammar
# ----------------------------------------------------------------------


class TestExitStatuses:
    def test_runner_constants_match_cli(self):
        # The corpus layer redeclares the CLI statuses so it never
        # imports the CLI; this is the lockstep assertion.
        assert corpus_runner.EXIT_OK == 0
        assert corpus_runner.EXIT_REFUTED == 1
        assert corpus_runner.EXIT_USAGE == 2
        assert corpus_runner.EXIT_POOL == 3
        assert corpus_runner.EXIT_CONTRACT == cli.EXIT_CONTRACT == 4
        assert corpus_runner.EXIT_DIVERGENCE == cli.EXIT_DIVERGENCE == 5

    def test_divergence_status_documented_in_help(self):
        text = cli.build_parser().format_help()
        assert "engine divergence" in text


class TestClassificationGrammar:
    def cls(self, **overrides):
        base = {
            "status": "ok",
            "detail": "",
            "exit_status": 0,
            "digest": "abc",
            "flagged": (),
        }
        base.update(overrides)
        return Classification(**base)

    def test_ok(self):
        assert self.cls().matches("ok")
        assert not self.cls(flagged=("distribution",)).matches("ok")
        assert not self.cls(status="refuted").matches("ok")

    def test_refuted(self):
        assert self.cls(status="refuted", exit_status=1).matches("refuted")

    def test_flagged(self):
        flagged = self.cls(flagged=("distribution",))
        assert flagged.matches("flagged:distribution")
        assert not flagged.matches("flagged:adversary")

    def test_quarantined(self):
        cls = self.cls(
            status="quarantined", detail="adversary,fuel", exit_status=4
        )
        assert cls.matches("quarantined:fuel")
        assert not cls.matches("quarantined:closure")

    def test_error(self):
        cls = self.cls(status="error", detail="WorkerCrashError",
                       exit_status=3, digest="")
        assert cls.matches("error:WorkerCrashError")
        assert not cls.matches("error:TaskTimeoutError")

    def test_unknown_expectation_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus expectation"):
            self.cls().matches("maybe")

    def test_label_excludes_flagged_kinds(self):
        # Warn-counter coverage is eager on batched engines and lazy
        # on the tree walk, so flagged kinds are diagnostics — two
        # cells differing only there are identical.
        plain = self.cls()
        flagged = self.cls(flagged=("distribution",))
        assert plain.label == flagged.label
        assert plain.to_dict() != flagged.to_dict()


# ----------------------------------------------------------------------
# The registry and the full differential sweep
# ----------------------------------------------------------------------


class TestRegistry:
    def test_every_entry_declares_all_modes(self):
        for entry in builtin_entries():
            expectations = entry.modes_expectations()
            assert set(MODES) <= set(expectations)

    def test_entry_names_unique(self):
        names = [entry.name for entry in builtin_entries()]
        assert len(names) == len(set(names))

    def test_unknown_entry_lists_known(self):
        with pytest.raises(VerificationError, match="healthy-tiny"):
            entry_by_name("no-such-entry")

    def test_taxonomy_fully_covered(self):
        # Every strict subclass of the public taxonomy roots has an
        # entry claiming it (the lint check asserts this from the AST;
        # this is the runtime half).
        claimed = {
            entry.expected_class
            for entry in builtin_entries()
            if entry.expected_class
        }
        assert claimed == {
            "DistributionError",
            "AdversaryContractError",
            "ExecutionClosureError",
            "FuelExhaustedError",
            "QuotientInvarianceError",
            "StateBudgetExceeded",
            "UnknownModelError",
            "WorkerCrashError",
            "TaskTimeoutError",
            "ResultCorruptionError",
            "TaskExecutionError",
            "LeaseExpiredError",
            "JobStoreCorruptionError",
            "SupervisorCrashLoopError",
        }


class TestCorpusSweep:
    def test_full_builtin_sweep_is_identical_and_expected(self):
        with obs.recording() as registry:
            report = run_corpus(builtin_entries())
        assert report.ok, "\n".join(report.problems)
        assert report.exit_status == 0
        counters = registry.metrics.snapshot()["counters"]
        assert counters["corpus.entries"] == len(builtin_entries())
        assert counters["corpus.cells"] == sum(
            len(result.cells) for result in report.results
        )
        assert "corpus.mismatches" not in counters
        # Every entry that can run here ran over its full matrix; the
        # pooled entries skip as a unit only without fork.
        for result in report.results:
            if result.skipped:
                assert not fork_available()
            else:
                assert result.cells

    @needs_fork
    def test_sweep_covers_the_full_matrix(self):
        report = run_corpus(builtin_entries())
        healthy = next(
            r for r in report.results if r.name == "healthy-tiny"
        )
        seen = {(mode, engine) for mode, engine, _ in healthy.cells}
        assert seen == {
            (mode, engine) for mode in MODES for engine in ENGINES
        }
        assert {w for _, _, w in healthy.cells} == {1, 4}

    def test_report_shapes(self):
        report = run_corpus([entry_by_name("healthy-tiny")])
        data = report.to_dict()
        assert data["kind"] == "corpus_run"
        assert data["ok"] is True
        assert data["entries"] == 1
        assert "all identical" in report.describe()


# ----------------------------------------------------------------------
# Fuzzer determinism, divergence detection, shrinking
# ----------------------------------------------------------------------


class TestFuzzDeterminism:
    def test_case_stream_is_a_pure_function_of_seed(self):
        first = [generate_case(9, i) for i in range(10)]
        second = [generate_case(9, i) for i in range(10)]
        assert first == second
        assert first != [generate_case(10, i) for i in range(10)]

    def test_campaign_byte_identical_across_invocations(self):
        runs = [
            json.dumps(
                run_fuzz(seed=5, budget=20).to_dict(), sort_keys=True
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @needs_fork
    def test_campaign_byte_identical_across_worker_counts(self):
        solo = run_fuzz(seed=7, budget=12, workers=1).to_dict()
        pooled = run_fuzz(seed=7, budget=12, workers=4).to_dict()
        assert solo == pooled

    def test_clean_campaign_finds_no_divergence(self):
        with obs.recording() as registry:
            report = run_fuzz(seed=0, budget=60)
        assert report.ok
        assert report.cases_run == 60
        counters = registry.metrics.snapshot()["counters"]
        assert counters["fuzz.cases"] == 60
        assert "fuzz.divergences" not in counters

    def test_bad_budget_and_sabotage_rejected(self):
        with pytest.raises(VerificationError, match="--budget"):
            run_fuzz(seed=0, budget=0)
        with pytest.raises(VerificationError, match="--sabotage"):
            run_fuzz(seed=0, budget=1, sabotage="gpu")

    def test_generated_cases_materialise(self):
        # Every case in the stream must build into a runnable CheckCase
        # (the corpus add path validates records the same way).
        for index in range(20):
            case = generate_case(3, index)
            check = check_case_from_dict(case)
            assert check.automaton_factory().start_states


class TestSabotage:
    def test_injected_divergence_caught_and_shrunk(self):
        report = run_fuzz(seed=3, budget=4, sabotage="batched")
        assert not report.ok
        finding = report.findings[0]
        assert finding["index"] == 0  # sabotage diverges immediately
        assert "batched" in finding["divergence"]
        assert "tree" in finding["divergence"]
        assert finding["shrink_steps"] >= 1
        shrunk, original = finding["case"], finding["original_case"]
        assert len(shrunk["states"]) <= len(original["states"])
        assert shrunk["samples"] <= original["samples"]
        # The shrunk case still diverges, and is locally minimal under
        # a representative rewrite: halving samples loses the repro
        # only because diff_case re-checks it.
        assert diff_case(shrunk, sabotage="batched")

    def test_sabotage_campaign_is_deterministic(self):
        first = run_fuzz(seed=3, budget=4, sabotage="batched-pure").to_dict()
        second = run_fuzz(seed=3, budget=4, sabotage="batched-pure").to_dict()
        assert first == second

    def test_shrink_counts_adopted_rewrites(self):
        case = generate_case(3, 0)
        with obs.recording() as registry:
            shrunk, steps = shrink_case(case, sabotage="batched")
        counters = registry.metrics.snapshot()["counters"]
        assert counters.get("fuzz.shrink_steps", 0) == steps
        assert diff_case(shrunk, sabotage="batched")

    def test_finding_round_trips_into_a_corpus_record(self):
        report = run_fuzz(seed=3, budget=2, sabotage="batched-pure")
        record = corpus_record(report.findings[0], seed=3)
        assert record["name"] == "fuzz-3-0"
        assert record["case"] == report.findings[0]["case"]
        # Records are plain JSON all the way down.
        assert json.loads(json.dumps(record)) == record


# ----------------------------------------------------------------------
# CLI surface: corpus list/run/add, fuzz, exit statuses
# ----------------------------------------------------------------------


class TestCorpusCLI:
    def run_cli(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_list_names_every_builtin(self, capsys, tmp_path):
        code, out, _ = self.run_cli(
            ["corpus", "list",
             "--corpus-file", str(tmp_path / "extra.jsonl")],
            capsys,
        )
        assert code == 0
        for entry in builtin_entries():
            assert entry.name in out

    def test_list_json_is_canonical(self, capsys, tmp_path):
        code, out, _ = self.run_cli(
            ["corpus", "list", "--json",
             "--corpus-file", str(tmp_path / "extra.jsonl")],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert {row["name"] for row in rows} == {
            entry.name for entry in builtin_entries()
        }

    def test_run_single_entry(self, capsys, tmp_path):
        code, out, _ = self.run_cli(
            ["corpus", "run", "--entry", "healthy-tiny", "--no-manifest",
             "--corpus-file", str(tmp_path / "extra.jsonl")],
            capsys,
        )
        assert code == 0
        assert "all identical" in out

    def test_run_unknown_entry_is_usage_error(self, capsys, tmp_path):
        code, _, err = self.run_cli(
            ["corpus", "run", "--entry", "bogus", "--no-manifest",
             "--corpus-file", str(tmp_path / "extra.jsonl")],
            capsys,
        )
        assert code == 2
        assert "unknown corpus entry" in err

    def test_fuzz_sabotage_exits_with_divergence_status(
        self, capsys, tmp_path
    ):
        code, out, _ = self.run_cli(
            ["fuzz", "--budget", "2", "--seed", "3",
             "--sabotage", "batched-pure", "--no-manifest"],
            capsys,
        )
        assert code == cli.EXIT_DIVERGENCE
        assert "minimal repro" in out

    def test_emit_add_replay_roundtrip(self, capsys, tmp_path):
        findings = tmp_path / "findings.jsonl"
        corpus_file = tmp_path / "extra.jsonl"
        # A sabotage finding is emitted as a ready-to-commit record...
        code, _, _ = self.run_cli(
            ["fuzz", "--budget", "2", "--seed", "9",
             "--sabotage", "batched", "--emit", str(findings),
             "--no-manifest"],
            capsys,
        )
        assert code == cli.EXIT_DIVERGENCE
        assert findings.exists()
        # ...ingested (with validation) into the corpus file...
        code, out, _ = self.run_cli(
            ["corpus", "add", str(findings),
             "--corpus-file", str(corpus_file)],
            capsys,
        )
        assert code == 0
        assert "added 1 entry" in out
        entries = load_file_entries(corpus_file)
        assert len(entries) == 1
        assert entries[0].agreement_only
        # ...and replayed in agreement mode: without the sabotage the
        # engines agree, so the corpus passes.
        code, out, _ = self.run_cli(
            ["corpus", "run", "--entry", entries[0].name, "--no-manifest",
             "--corpus-file", str(corpus_file)],
            capsys,
        )
        assert code == 0

    def test_add_rejects_missing_and_malformed_files(
        self, capsys, tmp_path
    ):
        corpus_file = str(tmp_path / "extra.jsonl")
        code, _, err = self.run_cli(
            ["corpus", "add", str(tmp_path / "absent.jsonl"),
             "--corpus-file", corpus_file],
            capsys,
        )
        assert code == 2
        assert "does not exist" in err
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a finding"}\n')
        code, _, err = self.run_cli(
            ["corpus", "add", str(bad), "--corpus-file", corpus_file],
            capsys,
        )
        assert code == 2
        assert "bad finding record" in err

    def test_run_rejects_malformed_corpus_file(self, capsys, tmp_path):
        corpus_file = tmp_path / "extra.jsonl"
        corpus_file.write_text("this is not json\n")
        code, _, err = self.run_cli(
            ["corpus", "run", "--no-manifest",
             "--corpus-file", str(corpus_file)],
            capsys,
        )
        assert code == 2
        assert "malformed JSON" in err


# ----------------------------------------------------------------------
# Rider: tools/bench.py --compare hardening
# ----------------------------------------------------------------------


class TestBenchCompareHardening:
    @pytest.fixture(scope="class")
    def bench(self):
        return load_tool("bench")

    def test_read_trajectory_missing(self, bench, tmp_path):
        trajectory, problem = bench.read_trajectory(tmp_path / "no.json")
        assert trajectory == []
        assert problem == "missing"

    def test_read_trajectory_unreadable(self, bench, tmp_path):
        # A directory where a file should be: read_text raises OSError.
        path = tmp_path / "BENCH_x.json"
        path.mkdir()
        trajectory, problem = bench.read_trajectory(path)
        assert trajectory == []
        assert problem.startswith("unreadable:")

    def test_read_trajectory_malformed(self, bench, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{broken")
        trajectory, problem = bench.read_trajectory(path)
        assert trajectory == []
        assert problem.startswith("malformed JSON")

    def test_read_trajectory_not_a_list(self, bench, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"seconds": 1.0}')
        trajectory, problem = bench.read_trajectory(path)
        assert trajectory == []
        assert problem == "not a JSON list"

    def test_read_trajectory_healthy(self, bench, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('[{"seconds": 1.5}]')
        trajectory, problem = bench.read_trajectory(path)
        assert problem is None
        assert bench.previous_seconds(trajectory) == 1.5

    def test_load_trajectory_warns_but_tolerates(
        self, bench, tmp_path, capsys
    ):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{broken")
        assert bench.load_trajectory(path) == []
        assert "unusable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content,reason",
        [
            (None, "missing"),
            ("{broken", "malformed JSON"),
            ("{}", "not a JSON list"),
            ("[]", "no previous entry"),
            ('[{"total_seconds": 9}]', "no previous entry"),
        ],
    )
    def test_compare_fails_fast_without_usable_baseline(
        self, bench, tmp_path, capsys, content, reason
    ):
        # The check runs before any benchmark subprocess: a missing or
        # unusable trajectory is a one-line error and exit 3, never a
        # traceback and never a silently-skipped comparison.
        suite = bench.suite_name(bench.bench_modules(None)[0])
        if content is not None:
            (tmp_path / f"BENCH_{suite}.json").write_text(content)
        code = bench.main(
            ["--only", suite, "--out-dir", str(tmp_path), "--compare"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert f"bench: error: cannot compare {suite}: " in captured.err
        assert reason in captured.err
        assert "running" not in captured.out  # nothing executed

    def test_no_matching_modules_still_exit_2(self, bench, tmp_path, capsys):
        code = bench.main(
            ["--only", "zzz-no-such-suite", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "no benchmark modules matched" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Rider: tools/lint.py corpus <-> taxonomy sync
# ----------------------------------------------------------------------


class TestLintCorpusSync:
    @pytest.fixture(scope="class")
    def lint(self):
        return load_tool("lint")

    def test_repo_taxonomy_parsed(self, lint):
        required = lint.taxonomy_classes()
        assert required is not None
        assert "DistributionError" in required
        assert "WorkerCrashError" in required
        assert "StateBudgetExceeded" in required
        # Roots are not their own subclasses.
        assert "ContractViolation" not in required

    def test_repo_registry_parsed(self, lint):
        declared = lint.corpus_expected_classes()
        assert declared is not None
        assert "TaskTimeoutError" in declared

    def test_repo_is_in_sync(self, lint):
        assert lint.corpus_sync_findings() == []

    def test_missing_files_skip_gracefully(self, lint, tmp_path):
        ghost = tmp_path / "nowhere.py"
        assert lint.taxonomy_classes(ghost) is None
        assert lint.corpus_expected_classes(ghost) is None
        assert lint.corpus_sync_findings(ghost, ghost) == []

    def test_bogus_expected_class_is_flagged(self, lint, tmp_path):
        registry = tmp_path / "registry.py"
        registry.write_text(
            'Entry(expected_class="DistributionError")\n'
            'Entry(expected_class="MadeUpError")\n'
        )
        findings = lint.corpus_sync_findings(
            lint._ERRORS_MODULE, registry
        )
        assert any("MadeUpError" in message for _, _, message in findings)

    def test_uncovered_taxonomy_class_is_flagged(self, lint, tmp_path):
        errors = tmp_path / "errors.py"
        errors.write_text(
            "class ContractViolation(Exception): ...\n"
            "class NovelError(ContractViolation): ...\n"
        )
        registry = tmp_path / "registry.py"
        registry.write_text('Entry(expected_class="NovelError")\n')
        assert lint.corpus_sync_findings(errors, registry) == []
        registry.write_text("Entry(name='no-claims-here')\n")
        # No expected_class literals at all -> graceful skip, by the
        # same rule the metric catalog uses for an absent names module.
        assert lint.corpus_sync_findings(errors, registry) == []
        registry.write_text('Entry(expected_class="OtherError")\n')
        findings = lint.corpus_sync_findings(errors, registry)
        assert any("NovelError" in message for _, _, message in findings)
        assert any("OtherError" in message for _, _, message in findings)

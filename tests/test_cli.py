"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

#: ``repro exact --states 2``, byte for byte.  The exact layer's
#: reports are pinned whole: every value in them is an exact Fraction,
#: so no change to the induction or the sweep may move a byte.
EXACT_STDOUT = "".join(line + "\n" for line in (
    "===========================================",
    "Exact round-synchronous minima, ring size 3",
    "===========================================",
    "proposition  rounds  paper bound  exact worst min  verdict",
    "-----------  ------  -----------  ---------------  -------",
    "A.1          1       1            1                ok     ",
    "A.3          2       1            1                ok     ",
    "A.15         3       1            1                ok     ",
    "A.14         2       1/2          1                ok     ",
    "A.11         5       1/4          1                ok     ",
))

#: ``repro appendix``, byte for byte.
APPENDIX_STDOUT = "".join(line + "\n" for line in (
    "=====================================",
    "Appendix lemmas, exactly, ring size 3",
    "=====================================",
    "lemma        states  claim        exact worst value  verdict",
    "-----------  ------  -----------  -----------------  -------",
    "A.2          1248    t=3          0                  ok     ",
    "A.4.1        120     t=1          0                  ok     ",
    "A.4.2        31      t=2          0                  ok     ",
    "A.4.3        31      t=3          0                  ok     ",
    "A.4.4        40      t=4          0                  ok     ",
    "A.5          244     t=4          0                  ok     ",
    "A.7 (left)   19      t=1          0                  ok     ",
    "A.7 (right)  19      t=1          0                  ok     ",
    "A.8 (left)   74      t=1          0                  ok     ",
    "A.8 (right)  74      t=1          0                  ok     ",
    "A.9          108     t=5          0                  ok     ",
    "A.10         108     t=5          0                  ok     ",
    "A.12         866     t=1, p>=1/2  1/2                ok     ",
    "A.13         54      t=2, p>=1/2  1                  ok     ",
))

#: ``repro exhaustive``, byte for byte.
EXHAUSTIVE_STDOUT = "".join(line + "\n" for line in (
    "===================================================",
    "Exhaustive verification over entire regions (n = 3)",
    "===================================================",
    "proposition  region  states  paper bound  exhaustive min  verdict",
    "-----------  ------  ------  -----------  --------------  -------",
    "A.1          P       672     1            1               ok     ",
    "A.11         G       1044    1/4          1/2             ok     ",
    "A.14         F       920     1/2          1               ok     ",
    "A.15         RT      2096    1            1               ok     ",
    "A.3          T       3896    1            1               ok     ",
))

#: ``repro exhaustive --composed``: the leaves, then the composed
#: statement over all 3,896 ``T`` states.
EXHAUSTIVE_COMPOSED_STDOUT = EXHAUSTIVE_STDOUT + (
    "composed     T       3896    1/8          15/16           ok     \n"
)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        # --n and --prop parse as None and resolve to the selected
        # model's own defaults (3 / "composed" for lr) at dispatch.
        args = build_parser().parse_args(["verify"])
        assert args.n is None and args.seed == 0 and args.samples == 80
        assert args.workers == 1 and args.model == "lr"

    def test_workers_flag(self):
        args = build_parser().parse_args(["check", "--workers", "4"])
        assert args.workers == 4 and args.prop is None
        assert not args.early_stop and not args.json

    def test_overrides(self):
        args = build_parser().parse_args(
            ["verify", "--n", "4", "--seed", "7", "--samples", "10"]
        )
        assert (args.n, args.seed, args.samples) == (4, 7, 10)


class TestCommands:
    def test_prove(self, capsys):
        assert main(["prove"]) == 0
        out = capsys.readouterr().out
        assert "T --13-->_1/8 C" in out
        assert "63" in out

    def test_verify_small(self, capsys):
        assert main(["verify", "--samples", "6"]) == 0
        out = capsys.readouterr().out
        assert "Prop A.11" in out
        assert "REFUTED" not in out

    def test_check_leaf(self, capsys):
        assert main(["check", "--prop", "A.14", "--samples", "6"]) == 0
        out = capsys.readouterr().out
        assert "A.14" in out and "REFUTED" not in out

    def test_check_unknown_prop(self, capsys):
        assert main(["check", "--prop", "A.99"]) == 2
        err = capsys.readouterr().err
        assert "unknown proposition" in err

    def test_check_json_identical_across_workers(self, capsys):
        argv = ["check", "--samples", "5", "--seed", "3", "--json"]
        assert main([*argv, "--workers", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main([*argv, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel
        assert '"kind": "arrow_check"' in sequential

    def test_chain(self, capsys):
        assert main(["chain", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "T --13-->_1/8 C" in out
        assert "REFUTED" not in out

    def test_exact_small(self, capsys):
        assert main(["exact", "--states", "2"]) == 0
        out = capsys.readouterr().out
        assert "A.14" in out and "FAILS" not in out
        assert out == EXACT_STDOUT

    def test_appendix(self, capsys):
        assert main(["appendix"]) == 0
        out = capsys.readouterr().out
        assert "A.9" in out and "FAILS" not in out
        assert out == APPENDIX_STDOUT

    def test_expected_time_small(self, capsys):
        assert main(["expected-time", "--samples", "8"]) == 0
        out = capsys.readouterr().out
        assert "adversary" in out and "FAILS" not in out

    def test_chain_election(self, capsys):
        argv = ["chain", "--model", "election", "--n", "3", "--samples", "4"]
        assert main(argv) == 0
        assert "A1 | A2 | A3" in capsys.readouterr().out

    def test_chain_benor(self, capsys):
        assert main(["chain", "--model", "benor", "--samples", "4"]) == 0
        assert "Init --10-->_1/8 Decided" in capsys.readouterr().out

    def test_independence(self, capsys):
        assert main(["independence"]) == 0
        out = capsys.readouterr().out
        assert "peek-q-on-T" in out and "FAILS" not in out

    def test_exhaustive(self, capsys):
        assert main(["exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "A.11" in out and "1/2" in out
        assert "FAILS" not in out
        assert out == EXHAUSTIVE_STDOUT

    def test_exhaustive_composed(self, capsys):
        assert main(["exhaustive", "--composed"]) == 0
        assert capsys.readouterr().out == EXHAUSTIVE_COMPOSED_STDOUT

    def test_all(self, capsys):
        assert main(["all", "--states", "2"]) == 0
        out = capsys.readouterr().out
        assert "T --13-->_1/8 C" in out
        assert "A.12" in out
        assert "peek-q-on-H" in out
        assert "FAILS" not in out and "REFUTED" not in out


class TestModelsFrontEnd:
    def test_models_lists_every_registered_model(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "Registered models" in out
        for name in ("lr", "benor", "election", "herman"):
            assert name in out
        assert "adversaries" in out

    def test_models_json_is_canonical(self, capsys):
        import json

        assert main(["models", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["name"] for row in rows} == {
            "lr", "benor", "election", "herman",
        }
        lr = next(row for row in rows if row["name"] == "lr")
        assert lr["default_prop"] == "composed"
        assert lr["n_default"] == 3

    def test_unknown_model_is_a_usage_error(self, capsys):
        assert main(["check", "--model", "nope", "--no-manifest"]) == 2
        err = capsys.readouterr().err
        assert "unknown model" in err and "herman" in err

    def test_check_herman_end_to_end(self, capsys):
        assert main([
            "check", "--model", "herman", "--samples", "4",
            "--no-manifest",
        ]) == 0
        out = capsys.readouterr().out
        assert "H.1" in out and "REFUTED" not in out

    def test_lr_flag_matches_omitted_flag(self, capsys):
        argv = ["check", "--samples", "5", "--no-manifest"]
        assert main(argv) == 0
        implicit = capsys.readouterr().out
        assert main([*argv, "--model", "lr"]) == 0
        explicit = capsys.readouterr().out
        assert implicit == explicit


@pytest.mark.parametrize("argv, message", [
    ("check --resume", "requires a checkpoint"),
    ("check --guards off --fuel 10", "require guard mode 'warn' or"),
    ("check --inject-faults hang=0.5", "requires a per-task timeout"),
    ("check --n 1", "needs at least two processes, got 1"),
    ("check --samples 0", "--samples must be >= 1, got 0"),
    ("expected-time --samples 0", "--samples must be >= 1, got 0"),
    ("check --workers 0", "workers must be >= 1, got 0"),
    ("verify --workers 0", "workers must be >= 1, got 0"),
    ("audit --horizon 0", "--horizon must be >= 1, got 0"),
    ("check --engine batched --fuel 10", "incompatible with --fuel"),
    ("sweep --sizes 3,x", "comma-separated integers, got '3,x'"),
    ("check --state-budget 0", "state budget must be >= 1, got 0"),
    ("check --state-budget -3", "state budget must be >= 1, got -3"),
    ("exact --n 1", "needs at least two processes, got 1"),
    ("appendix --n 0", "needs at least two processes, got 0"),
    ("appendix --n 2", "lemma A.9 names three processes"),
    ("exact --states 0", "--states must be >= 1, got 0"),
    ("exact --states -2", "--states must be >= 1, got -2"),
    ("serve --drain --poll -1", "--poll must be > 0, got -1.0"),
    ("serve --drain --poll 0", "--poll must be > 0, got 0.0"),
    ("serve --drain --lease -1", "--lease must be > 0, got -1.0"),
    ("serve --drain --backoff -1", "--backoff must be >= 0, got -1.0"),
    ("serve --drain --healthy-seconds -1",
     "--healthy-seconds must be >= 0, got -1.0"),
    ("profile trace.jsonl --top 0", "--top must be >= 1, got 0"),
    ("profile trace.jsonl --top -2", "--top must be >= 1, got -2"),
])
def test_unusable_flag_values_exit_2(argv, message, capsys, monkeypatch,
                                     tmp_path):
    store = tmp_path / "store"
    monkeypatch.setenv("REPRO_SERVICE_DIR", str(store))
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("repro: error: ") and err.count("\n") == 1
    assert message in err
    assert not store.exists()


# ----------------------------------------------------------------------
# The CLI surface: parsed namespaces and job scopes
# ----------------------------------------------------------------------

TRACEABLE = {"manifest": True, "runs_dir": None, "trace_out": None}
#: The flags all six sampling commands share (sweep has no ``--n``).
RUN_FLAGS = {
    **TRACEABLE, "model": "lr", "seed": 0, "samples": 80, "workers": 1,
    "progress": False, "timeout": None, "retries": 2, "checkpoint": None,
    "resume": False, "inject_faults": None, "guards": "warn",
    "fuel": None, "engine": "tree", "state_budget": None,
}
SAMPLING = {**RUN_FLAGS, "n": None}
STORE = {"store": None, "json": False, "skip_manifest": True}
RUNS = {"runs_dir": None, "manages_tracing": True, "skip_manifest": True}

#: ``vars(parse_args(argv))`` without ``func`` or ``command`` for one
#: minimal argv per subcommand.  The scope fingerprint hashes these
#: keys and values, so they must not move.
NAMESPACES = {
    "prove": TRACEABLE,
    "verify": SAMPLING,
    "check": {**SAMPLING, "early_stop": False, "json": False, "prop": None},
    "chain": {**SAMPLING, "early_stop": False},
    "exact": {**TRACEABLE, "n": 3, "seed": 0, "states": 6},
    "appendix": {**TRACEABLE, "n": 3},
    "expected-time": SAMPLING,
    "sweep": {**RUN_FLAGS, "samples": 40, "sizes": None},
    "independence": TRACEABLE,
    "models": {"json": False, "manages_tracing": True, "skip_manifest": True},
    "exhaustive": {**TRACEABLE, "composed": False},
    "all": {**TRACEABLE, "n": 3, "seed": 0, "states": 5},
    "audit": {
        **TRACEABLE, "model": "lr", "n": None, "horizon": 2000,
        "json": False,
    },
    "stats": {**SAMPLING, "samples": 40, "manages_tracing": True},
    "trace": {**TRACEABLE, "rest": [], "manages_tracing": True},
    "runs list": {**RUNS, "runs_cmd": "list", "json": False},
    "runs show ID": {**RUNS, "runs_cmd": "show", "json": False, "id": "ID"},
    "runs diff A B": {
        **RUNS, "runs_cmd": "diff", "json": False, "old": "A", "new": "B",
    },
    "profile": {
        **RUNS, "source": None, "run": None, "top": 20, "folded": False,
    },
    "corpus list": {
        "corpus_cmd": "list", "corpus_file": None, "json": False,
        "skip_manifest": True,
    },
    "corpus run": {
        **TRACEABLE, "corpus_cmd": "run", "corpus_file": None,
        "entry": None, "json": False,
    },
    "corpus add F.jsonl": {
        "corpus_cmd": "add", "corpus_file": None, "finding": "F.jsonl",
        "skip_manifest": True,
    },
    "fuzz": {
        **TRACEABLE, "budget": 50, "seed": 0, "workers": 1,
        "sabotage": None, "model": None, "emit": None, "json": False,
    },
    "submit": {**STORE, "max_attempts": 3, "spec": []},
    "serve": {
        **TRACEABLE, **STORE, "workers": 1, "lease": 30.0, "drain": False,
        "poll": 0.1, "backoff": 0.2, "max_restarts": 5,
        "healthy_seconds": 5.0, "inject_faults": None,
    },
    "jobs list": {**STORE, "jobs_cmd": "list"},
    "jobs show ID": {**STORE, "jobs_cmd": "show", "id": "ID"},
    "jobs cancel ID": {**STORE, "jobs_cmd": "cancel", "id": "ID"},
}

#: ``JobSpec.parse(argv).scope``: the seven service-campaign job kinds
#: of ``benchmarks/e2e/workloads.py``, then the other sampling
#: commands' defaults and the corpus replay.
JOB_SCOPES = {
    ("check", "--prop", "A.14", "--samples", "16"):
        "6a75d6386aca37372a13179dd8a5b61b49475e54737e3cf25671f6c2db14a7c8",
    ("check", "--prop", "A.11", "--samples", "16"):
        "66b1f7895e5c8f1081c98c642f50fdbbd7e42c1397b2303a63a6295e581feab8",
    ("check", "--model", "herman", "--n", "5", "--samples", "100"):
        "783457073730e240e4612252f3fc778ce0f7856914e126e29b6d1591006b1717",
    ("check", "--prop", "A.3", "--samples", "16"):
        "70834f35ba8925a8bcb83d9b2a7db53637598f3c737aecca7bca992e96a6b5a6",
    ("expected-time", "--model", "herman", "--n", "5", "--samples", "300"):
        "f26933791b26f78e401218a4569e5ce89712e1c29751ff2b80f3bb90c481e033",
    ("check", "--prop", "A.1", "--samples", "16"):
        "ce4e40fa7580dd3852c1ebd98e8d38afe2aee05d1f7d68b722510875a8da158e",
    ("check", "--prop", "A.15", "--samples", "16"):
        "3993cc7be043152a095b0a9f0d43cb16aafcba3d79e81b1ed973fce4ec274e18",
    ("verify",):
        "fc1b7a914a1c882cc600f80df16fe2baf42969013857fc09211809a11cb57ff2",
    ("sweep",):
        "34c594a50c011b1c2af910cc93989bf2eaf9566b989c5a7165f527c79e1d5f04",
    ("stats",):
        "537e06b0cb145f72e73f9466c791964e53fe3c97e0b92c2bb4cba7cb22a50562",
    ("corpus", "run"):
        "350d3be9b2689d08b27f4a84fadceae6209ff7f2c117ec1f22387ce23e58b8ea",
}


class TestSurface:
    @pytest.mark.parametrize("argv", sorted(NAMESPACES))
    def test_namespace_keys_and_defaults(self, argv):
        args = vars(build_parser().parse_args(argv.split()))
        del args["func"]
        assert args == {"command": argv.split()[0], **NAMESPACES[argv]}

    @pytest.mark.parametrize("command", ["election", "benor"])
    def test_legacy_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([command])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_retired_engine_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["check", "--engine", "batched-pure"])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", list(JOB_SCOPES), ids=" ".join)
    def test_job_scope(self, argv):
        from repro.service import JobSpec

        assert JobSpec.parse(argv).scope == JOB_SCOPES[argv]

"""Command-line interface: ``python -m repro <command>``.

Each subcommand regenerates one slice of the reproduction and prints a
plain-text report:

* ``prove``          — the Section 6.2 ledger derivation and bounds;
* ``verify``         — Monte-Carlo checks of the leaf and composed
  statements under the hostile adversary family;
* ``check``          — Monte-Carlo check of one named statement, with a
  canonical JSON report (``--json``) for byte-identity comparisons;
* ``chain``          — the composed ``T --13-->_1/8 C`` chain: its
  ledger derivation plus a Monte-Carlo check of the final statement;
* ``exact``          — exact worst-case minima over the
  round-synchronous Unit-Time subclass;
* ``appendix``       — the appendix lemmas, exactly;
* ``expected-time``  — measured time-to-critical vs the bound 63;
* ``sweep``          — ring-size and deadline ablations;
* ``independence``   — Example 4.1 / Proposition 4.2, exactly;
* ``stats``          — an instrumented Lehmann-Rabin run: span tree and
  metric tables (samples drawn, steps simulated, value-iteration
  residuals);
* ``audit``          — static well-formedness audit of the selected
  model's automaton (Definition 2.1 obligations);
* ``models``         — list the registered case-study models with
  their instance-size range and adversary family;
* ``trace``          — run any other subcommand with instrumentation on
  and render its span tree and metric tables afterwards;
* ``runs``           — list, show, and diff the provenance manifests
  every run appends to ``.repro/runs`` (opt-out: ``--no-manifest``);
* ``profile``        — fold a recorded span tree (a ``--trace-out``
  file or a manifest) into per-phase self/cumulative hotspots, with
  ``--folded`` flamegraph output;
* ``submit``         — append a verification command to the durable
  job store (validated now, run by ``serve`` later);
* ``serve``          — run supervised workers over the job store:
  leases with heartbeats, crash restarts with backoff, a
  content-addressed result cache, graceful SIGTERM drain;
* ``jobs``           — list, show, and cancel stored jobs
  (see ``docs/service.md``).

Every subcommand accepts ``--trace-out FILE.jsonl`` to record spans and
metrics to a JSONL trace file (see ``docs/observability.md``).  The
sampling subcommands accept ``--progress`` for a live stderr status
line (tasks done, rate, ETA, retry/quarantine/degradation counters);
stdout is byte-identical with progress on or off.  The
sampling subcommands accept ``--workers N`` to fan (adversary, start
state) pair checks out over a process pool; reports are bit-identical
for every worker count (see ``docs/parallel.md``).  They also accept
the fault-tolerance flags ``--timeout``, ``--retries``,
``--checkpoint FILE``, ``--resume``, and ``--inject-faults SPEC``
(crash-safe pooling, checkpoint/resume, and deterministic chaos
testing — see ``docs/robustness.md``); none of them changes a report's
bytes.  ``--guards {off,warn,strict}`` and ``--fuel SPEC`` select the
model-contract enforcement mode (Definitions 2.1/2.2/3.3) and
per-execution budgets; on healthy models ``warn`` output is
byte-identical to ``off`` for every worker count, and strict-mode
violations exit with the dedicated status 4 (see ``docs/contracts.md``).
``--engine {tree,batched,auto}`` selects the evaluation
strategy — the historical tree walk, or one memoised execution tree
per (adversary, start) pair — and ``--state-budget`` caps the starts a
batched check interns and the product an exact value tabulates;
reports are byte-identical whichever engine ran (see
``docs/statespace.md``).  The sampling
subcommands, ``audit``, and ``fuzz`` accept ``--model NAME`` to select
a registered case study from :mod:`repro.models`; the default ``lr``
is the paper's Lehmann-Rabin ring and reproduces the historical output
byte for byte (see ``docs/models.md``); the other case studies
(``election``, ``benor``, ``herman``) run through the same commands.
A flag value the run cannot use — an out-of-range ``--n``, an unknown
``--prop``, ``--resume`` without ``--checkpoint`` — exits with status 2
and one ``repro: error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from typing import Optional, Sequence

from repro.errors import (
    EXIT_CONTRACT,
    EXIT_DIVERGENCE,
    EXIT_POOL,
    EXIT_USAGE,
    VerificationError,
)

# Retries a pooled task gets by default before its failure aborts the
# run: survives transient worker losses at zero cost on healthy runs.
DEFAULT_RETRIES = 2

EXIT_STATUS_EPILOG = """\
exit status:
  0  success: every checked claim held
  1  a checked claim was refuted (or a measured bound failed)
  2  usage error: unknown flags, models or propositions, a flag value
     the run cannot use (out of range or contradicting another flag),
     or --engine batched blew its --state-budget
  3  infrastructure failure: a pooled run exhausted its
     fault-tolerance budget, a checkpoint file was unusable, or the
     job service failed (lease lost, job store corrupt, workers
     crash-looping — docs/service.md)
  4  model-contract violation: a --guards strict check failed, the
     audit found findings, or pairs were quarantined (docs/contracts.md)
  5  engine divergence: a corpus replay or fuzz campaign saw two
     engines disagree, or an entry defied its expected classification
     (docs/corpus.md)
"""

MODELS_EPILOG = """\
models:
  the sampling subcommands (verify, check, chain, expected-time,
  stats, sweep), audit, and fuzz take --model NAME to select a
  registered case study; the default 'lr' is the paper's Lehmann-Rabin
  ring and reproduces the historical output byte for byte.
  'repro models' lists every registered model with its instance-size
  range and adversary family (docs/models.md)

"""


def _build_policy(args: argparse.Namespace):
    """The fault-tolerance policy described by the CLI flags.

    Raises :class:`~repro.errors.VerificationError` for contradictory
    flags (``--resume`` without ``--checkpoint``, hang injection
    without ``--timeout``, malformed ``--inject-faults`` specs).
    """
    from repro.parallel import Checkpoint, FaultPlan, RunPolicy

    policy = RunPolicy(
        timeout=args.timeout,
        retries=args.retries,
        faults=(
            FaultPlan.parse(args.inject_faults)
            if args.inject_faults else None
        ),
        checkpoint=(
            Checkpoint(args.checkpoint) if args.checkpoint else None
        ),
        resume=args.resume,
    )
    policy.validate()
    return policy


def _build_guards(args: argparse.Namespace):
    """The contract-guard configuration described by the CLI flags.

    Raises :class:`~repro.errors.VerificationError` for contradictory
    flags (``--fuel`` with ``--guards off``, malformed fuel specs).
    Resets the once-per-site warning dedup so repeated in-process
    invocations (tests, ``trace``) warn afresh.
    """
    from repro import contracts

    contracts.reset_warnings()
    config = contracts.GuardConfig.from_flags(args.guards, args.fuel)
    config.validate()
    return config


def _print_json(value) -> None:
    """Print ``value`` as canonical JSON: the ``--json`` output format."""
    print(json.dumps(value, sort_keys=True, indent=2))


def _exit_status(
    failures: int, reports, *, blank: bool = False, quiet: bool = False
) -> int:
    """Print a line per quarantined pair; the sampling run's exit status.

    1 when a claim failed, else :data:`EXIT_CONTRACT` when a pair was
    quarantined, else 0.  ``blank`` prints an empty line before the
    quarantine lines; ``quiet`` (``--json``, whose report lists the
    pairs) prints nothing.
    """
    skips = [
        f"repro: {pair.describe()}"
        for report in reports
        for pair in report.quarantined
    ]
    if skips and not quiet:
        if blank:
            print()
        print("\n".join(skips))
    if failures:
        return 1
    return EXIT_CONTRACT if skips else 0


def _sizes(text: str) -> tuple:
    """The instance sizes of a comma-separated ``--sizes`` list."""
    try:
        return tuple(int(size) for size in text.split(","))
    except ValueError:
        raise VerificationError(
            f"--sizes takes comma-separated integers, got {text!r}"
        ) from None


def _resolve_model(args: argparse.Namespace):
    """The registry model named by ``--model``, with its flags resolved.

    The parser leaves the model-dependent flags (``--n``, ``--prop``,
    ``--sizes``) as ``None``; this fills them with the selected
    model's own defaults, so downstream code, the run manifest and the
    job service's scope fingerprint always see concrete values.  Then
    it checks every instance size against the model's range and the
    proposition against its statements.  Raises
    :class:`~repro.errors.VerificationError` (exit status 2 in
    :func:`main`) for an unregistered model, a bad size or an unknown
    proposition.
    """
    from repro.models import get_model

    model = get_model(args.model)
    if getattr(args, "n", 0) is None:
        args.n = model.n_default
    if getattr(args, "prop", 0) is None:
        args.prop = model.default_prop
    if getattr(args, "sizes", 0) is None:
        args.sizes = ",".join(str(size) for size in model.sweep_sizes)
    if hasattr(args, "n"):
        model.validate_n(args.n)
    if hasattr(args, "sizes"):
        for size in _sizes(args.sizes):
            model.validate_n(size)
    if hasattr(args, "prop") and args.prop != "composed":
        leaves = model.leaf_statements(args.n)
        if args.prop not in leaves:
            choices = ", ".join(["composed", *sorted(leaves)])
            raise VerificationError(
                f"unknown proposition {args.prop!r} (choices: {choices})"
            )
    return model


@contextmanager
def _sampling_run(args: argparse.Namespace):
    """Set up a sampling command; yields ``(model, run)``.

    Resolves the model (:func:`_resolve_model`), builds the
    fault-tolerance policy and the contract guards, and keeps the
    policy's checkpoint open for the body.  When the body ends, the
    guard layer's validated-transition cache is emptied, so no
    transition of the command outlives it.  ``run`` holds the keyword
    arguments every sampling call forwards unchanged.  The model, size,
    proposition, sample, worker, policy, guard and state-budget flags
    are checked here, before the command prints anything; ``repro
    submit`` runs the same checks.
    """
    from repro.contracts import forget_validated_transitions
    from repro.parallel.pool import resolve_workers
    from repro.statespace import resolve_state_budget

    model = _resolve_model(args)
    if args.samples < 1:
        raise VerificationError(f"--samples must be >= 1, got {args.samples}")
    resolve_workers(args.workers)
    policy = _build_policy(args)
    run = {
        "workers": args.workers,
        "policy": policy,
        "guards": _build_guards(args),
        "engine": args.engine,
        "state_budget": resolve_state_budget(args.state_budget),
    }
    checkpoint = policy.checkpoint
    if checkpoint is None:
        checkpoint = nullcontext()
    with checkpoint:
        try:
            yield model, run
        finally:
            forget_validated_transitions()


def _lr_commands(args: argparse.Namespace):
    """The Lehmann-Rabin exact commands, once ``--n`` and ``--states``
    are usable (a :class:`VerificationError`, exit status 2, if not).

    ``prove``, ``exact``, ``appendix``, ``exhaustive`` and ``all``
    dispatch through here, so ``all`` checks its flags before
    printing anything.
    """
    from repro.models.lr import LR_MODEL, lr_exact_commands

    if hasattr(args, "n"):
        LR_MODEL.validate_n(args.n)
    if getattr(args, "states", 1) < 1:
        raise VerificationError(f"--states must be >= 1, got {args.states}")
    return lr_exact_commands()


def _cmd_prove(args: argparse.Namespace) -> int:
    return _lr_commands(args).cmd_prove(args)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.montecarlo import check_all_leaves, check_statement
    from repro.analysis.reporting import arrow_report_row, banner, format_table

    with _sampling_run(args) as (model, run):
        setup = model.build(args.n)
        print(banner(f"Monte-Carlo verification, {model.size_noun} {args.n}"))
        reports = check_all_leaves(
            setup, seed=args.seed, samples_per_pair=args.samples, **run
        )
        rows = []
        failures = 0
        for name, report in sorted(reports.items()):
            failures += report.refuted
            rows.append(arrow_report_row(f"Prop {name}", report))
        chain = model.proof_chain(args.n)
        final = check_statement(
            chain.final_statement, setup, seed=args.seed,
            samples_per_pair=args.samples, **run
        )
    failures += final.refuted
    rows.append(arrow_report_row("composed", final))
    print(format_table(("claim", "statement", "worst estimate", "verdict"),
                       rows))
    return _exit_status(failures, [final, *reports.values()], blank=True)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.montecarlo import check_statement
    from repro.analysis.reporting import arrow_report_row, banner, format_table

    with _sampling_run(args) as (model, run):
        # 'composed' names the model's end-to-end chain conclusion;
        # anything else is a leaf (_resolve_model checked the name).
        if args.prop == "composed":
            statement = model.proof_chain(args.n).final_statement
        else:
            statement = model.leaf_statements(args.n)[args.prop]
        setup = model.build(args.n)
        report = check_statement(
            statement, setup, seed=args.seed, samples_per_pair=args.samples,
            early_stop=args.early_stop, **run
        )
    if args.json:
        _print_json(report.to_dict())
    else:
        print(banner(
            f"Monte-Carlo check of {args.prop}, {model.size_noun} {args.n}"
        ))
        print(format_table(
            ("claim", "statement", "worst estimate", "verdict"),
            [arrow_report_row(args.prop, report)],
        ))
        print()
        print(report.summary_line())
    return _exit_status(report.refuted, [report], quiet=args.json)


def _cmd_chain(args: argparse.Namespace) -> int:
    from repro.analysis.montecarlo import check_statement
    from repro.analysis.reporting import banner

    with _sampling_run(args) as (model, run):
        chain = model.proof_chain(args.n)
        setup = model.build(args.n)
        print(banner(f"The composed chain, {model.size_noun} {args.n}"))
        print(chain.ledger.explain(chain.final_id))
        print()
        report = check_statement(
            chain.final_statement, setup, seed=args.seed,
            samples_per_pair=args.samples, early_stop=args.early_stop, **run
        )
    print(report.summary_line())
    return _exit_status(report.refuted, [report])


def _cmd_exact(args: argparse.Namespace) -> int:
    return _lr_commands(args).cmd_exact(args)


def _cmd_appendix(args: argparse.Namespace) -> int:
    return _lr_commands(args).cmd_appendix(args)


def _cmd_expected_time(args: argparse.Namespace) -> int:
    from repro.analysis.montecarlo import measure_expected_time
    from repro.analysis.reporting import banner, format_table, time_report_row

    with _sampling_run(args) as (model, run):
        bound = model.expected_time_bound(args.n)
        setup = model.build(args.n)
        print(banner(f"Time to {model.target_label}, {model.size_noun} "
                     f"{args.n} (bound: {bound})"))
        reports = measure_expected_time(
            setup, seed=args.seed, samples=args.samples, **run
        )
    rows = []
    failures = 0
    for name, report in sorted(reports.items()):
        if not report.times:
            # Every start was quarantined (or nothing reached the
            # target): there is no mean to compare against the bound.
            verdict = "QUARANTINED" if report.quarantined else "FAILS"
            failures += verdict == "FAILS"
            rows.append(time_report_row(name, report) + (verdict,))
            continue
        ok = report.unreached == 0 and report.mean <= float(bound)
        failures += not ok
        rows.append(time_report_row(name, report) + ("ok" if ok else "FAILS",))
    print(format_table(
        ("adversary", "mean", "max", "unreached", "verdict"), rows
    ))
    return _exit_status(failures, reports.values(), blank=True)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import horizon_sweep, ring_size_sweep
    from repro.analysis.reporting import banner, format_table

    with _sampling_run(args) as (model, run):
        final = model.proof_chain(model.n_default).final_statement
        source, target = final.source.name, final.target.name
        print(banner(f"{model.sweep_noun} sweep"))
        rows = ring_size_sweep(
            sizes=_sizes(args.sizes), seed=args.seed,
            samples_per_pair=args.samples, time_samples=args.samples,
            model=model, **run
        )
        print(format_table(
            ("n", f"min P[{source} -{final.time_bound}-> {target}]",
             "claimed", "worst mean time"),
            [
                (r.n, f"{r.min_success_estimate:.3f}", f"{r.claimed:.3f}",
                 f"{r.mean_time_to_c:.2f}")
                for r in rows
            ],
        ))
        print()
        print(banner(f"Deadline sweep (n = {model.n_default})"))
        hrows = horizon_sweep(
            n=model.n_default, seed=args.seed, samples_per_pair=args.samples,
            model=model, **run
        )
    print(format_table(
        ("deadline", f"min P[{source} -t-> {target}]"),
        [(r.time_bound, f"{r.min_success_estimate:.3f}") for r in hrows],
    ))
    return 0


def _cmd_independence(args: argparse.Namespace) -> int:
    from repro.algorithms.coins import (
        FLIP_P,
        FLIP_Q,
        HEADS,
        TAILS,
        both_flip_adversary,
        never_flip_q_adversary,
        p_heads,
        peek_adversary,
        q_tails,
        two_coin_automaton,
    )
    from repro.analysis.reporting import banner, format_table
    from repro.automaton.execution import ExecutionFragment
    from repro.events.independence import proposition_4_2_claims
    from repro.execution.automaton import ExecutionAutomaton
    from repro.execution.measure import exact_event_probability

    automaton = two_coin_automaton()
    first_claim, next_claim = proposition_4_2_claims(
        automaton,
        [(FLIP_P, p_heads), (FLIP_Q, q_tails)],
        automaton.states,
    )
    start = ExecutionFragment.initial((None, None))
    print(banner("Example 4.1 / Proposition 4.2 (exact)"))
    rows = []
    failures = 0
    for name, adversary in [
        ("both-flip", both_flip_adversary()),
        ("peek-q-on-H", peek_adversary(HEADS)),
        ("peek-q-on-T", peek_adversary(TAILS)),
        ("never-flip-q", never_flip_q_adversary()),
    ]:
        tree = ExecutionAutomaton(automaton, adversary, start)
        conj = exact_event_probability(tree, first_claim.event, 4)
        nxt = exact_event_probability(tree, next_claim.event, 4)
        ok = conj >= first_claim.lower_bound and nxt >= next_claim.lower_bound
        failures += not ok
        rows.append((name, str(conj), str(nxt), "ok" if ok else "FAILS"))
    print(format_table(
        ("adversary", f"conjunction (>= {first_claim.lower_bound})",
         f"next (>= {next_claim.lower_bound})", "verdict"),
        rows,
    ))
    return 1 if failures else 0


def _write_trace(registry, path: str, reports: Sequence[dict] = ()) -> int:
    """Write the run's trace as JSONL; returns a process exit code."""
    from repro.obs.sinks import JsonlSink

    try:
        written = JsonlSink(path).write_run(registry, reports=reports)
    except OSError as error:
        print(f"repro: error: cannot write trace to {path}: {error}",
              file=sys.stderr)
        return 1
    print(f"\nwrote {written} trace records to {path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analysis.montecarlo import check_all_leaves
    from repro.analysis.reporting import banner
    from repro.mdp.expected_time import extremal_expected_time_rounds
    from repro.obs.profile import profile_tracer
    from repro.obs.sinks import (
        metric_records,
        render_metric_tables,
        render_span_tree,
    )

    with _sampling_run(args) as (model, run):
        target_name = model.proof_chain(args.n).final_statement.target.name
        with obs.recording() as registry, obs.span(
            "stats.run", n=args.n, seed=args.seed, samples=args.samples
        ):
            setup = model.build(args.n)
            reports = check_all_leaves(
                setup, seed=args.seed, samples_per_pair=args.samples, **run
            )
            with obs.span("stats.value_iteration", n=args.n):
                worst_rounds = extremal_expected_time_rounds(
                    setup.automaton,
                    setup.view,
                    model.target,
                    model.mdp_reference(args.n),
                    model.untimed,
                    maximise=True,
                )
    # Stash the recording for the run manifest main() writes.
    args.final_metrics = metric_records(registry.metrics)
    args.final_profile = profile_tracer(registry.tracer)
    failures = sum(report.refuted for report in reports.values())
    print(banner(f"Instrumented {model.title} run, "
                 f"{model.size_noun} {args.n}"))
    print("\nspan tree")
    print("---------")
    print(render_span_tree(registry.tracer))
    print()
    print(render_metric_tables(registry.metrics))
    print(f"\nworst-case expected rounds to {target_name} "
          f"(round-synchronous): {worst_rounds:.4f}")
    print(f"refuted statements: {failures}")
    code = _exit_status(failures, reports.values(), blank=True)
    sink_code = _write_trace(
        registry, args.trace_out,
        reports=[report.to_dict() for report in reports.values()],
    ) if args.trace_out else 0
    return code or sink_code


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import banner
    from repro.contracts import audit_automaton

    model = _resolve_model(args)
    if args.horizon < 1:
        raise VerificationError(f"--horizon must be >= 1, got {args.horizon}")
    automaton = model.build(args.n).automaton
    report = audit_automaton(automaton, horizon=args.horizon)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(banner(
            f"Definition 2.1 audit of the {model.title} automaton, "
            f"{model.size_noun} {args.n}"
        ))
        print(report.summary_line())
        for finding in report.findings:
            print(f"  {finding.describe()}")
        if report.findings_dropped:
            print(f"  ... and {report.findings_dropped} more finding(s)")
        if report.exhausted:
            print(
                "note: the reachable-state walk hit the horizon "
                f"({args.horizon} states); raise --horizon for full "
                "coverage"
            )
    return 0 if report.ok else EXIT_CONTRACT


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import banner, format_table
    from repro.models import registered_models

    records = []
    for model in registered_models():
        setup = model.build(model.n_default)
        records.append({
            "name": model.name,
            "title": model.title,
            "description": model.description,
            "schema": model.schema_name,
            "n_default": model.n_default,
            "n_range": model.n_range,
            "default_prop": model.default_prop,
            "adversaries": [name for name, _ in setup.adversaries],
            "sweep_sizes": list(model.sweep_sizes),
        })
    if args.json:
        _print_json(records)
        return 0
    print(banner("Registered models"))
    print(format_table(
        ("model", "title", "default n", "n-range", "adversaries"),
        [
            (
                record["name"],
                record["title"],
                record["n_default"],
                record["n_range"],
                len(record["adversaries"]),
            )
            for record in records
        ],
    ))
    for record in records:
        print(f"\n{record['name']}: {record['description']}")
        print(f"  adversary family: {', '.join(record['adversaries'])}")
        print(f"  schema: {record['schema']}; default proposition: "
              f"{record['default_prop']}; sweep sizes: "
              f"{','.join(str(s) for s in record['sweep_sizes'])}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analysis.reporting import banner
    from repro.obs.profile import profile_tracer
    from repro.obs.sinks import (
        metric_records,
        render_metric_tables,
        render_span_tree,
    )

    parser = build_parser()
    inner = parser.parse_args(args.rest)
    if getattr(inner, "manages_tracing", False):
        parser.error(
            f"cannot trace {inner.command!r}: it manages instrumentation "
            "itself"
        )
    with obs.recording() as registry:
        code = inner.func(inner)
    args.final_metrics = metric_records(registry.metrics)
    args.final_profile = profile_tracer(registry.tracer)
    print()
    print(banner(f"trace of 'repro {' '.join(args.rest)}'"))
    print(render_span_tree(registry.tracer))
    print()
    print(render_metric_tables(registry.metrics))
    trace_out = args.trace_out or getattr(inner, "trace_out", None)
    sink_code = _write_trace(registry, trace_out) if trace_out else 0
    return code or sink_code


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs import manifest as mf

    if args.runs_cmd == "list":
        manifests = mf.load_manifests(args.runs_dir)
        if args.json:
            _print_json(manifests)
        else:
            print(mf.render_runs_table(manifests))
        return 0
    if args.runs_cmd == "show":
        record = mf.find_manifest(args.id, args.runs_dir)
        if record is None:
            raise VerificationError(f"no recorded run matches {args.id!r}")
        if args.json:
            _print_json(record)
        else:
            print(mf.render_manifest(record))
        return 0
    # diff
    old = mf.find_manifest(args.old, args.runs_dir)
    new = mf.find_manifest(args.new, args.runs_dir)
    missing = [
        run_id for run_id, record in ((args.old, old), (args.new, new))
        if record is None
    ]
    if missing:
        raise VerificationError(
            "no recorded run matches "
            + ", ".join(repr(run_id) for run_id in missing)
        )
    comparison = mf.diff_manifests(old, new)
    if args.json:
        _print_json(comparison)
    else:
        print(mf.render_diff(comparison))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import manifest as mf
    from repro.obs import profile as prof
    from repro.obs.sinks import read_jsonl

    if args.top < 1:
        raise VerificationError(f"--top must be >= 1, got {args.top}")
    if args.run and args.source:
        raise VerificationError("give a trace file or --run, not both")
    if args.run:
        record = mf.find_manifest(args.run, args.runs_dir)
        if record is None:
            raise VerificationError(f"no recorded run matches {args.run!r}")
        rows = prof.merge_profiles([record.get("profile") or []])
    elif args.source:
        try:
            records = read_jsonl(args.source)
        except OSError as error:
            raise VerificationError(
                f"cannot read {args.source}: {error}"
            ) from None
        rows = prof.aggregate_spans(records)
    else:
        raise VerificationError("give a --trace-out JSONL file or --run ID")
    if args.folded:
        print(prof.render_folded(rows))
    else:
        print(prof.render_profile(rows, top=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Lynch/Saias/Segala, 'Proving Time Bounds "
            "for Randomized Distributed Algorithms' (PODC 1994)."
        ),
        epilog=MODELS_EPILOG + EXIT_STATUS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every flag two or more subcommands share is declared once, in an
    # argparse parent.  Parents share their Action objects, so a
    # set_defaults() on one subcommand would change the flag's default
    # in all of them: a flag whose default differs between subcommands
    # (--samples, --states) gets one parent per default instead.
    def shared(*parents):
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    json_flag = shared()
    json_flag.add_argument(
        "--json", action="store_true",
        help="print the result as canonical JSON",
    )
    runs_dir = shared()
    runs_dir.add_argument(
        "--runs-dir", metavar="DIR", default=None, dest="runs_dir",
        help="manifest store location (default: $REPRO_RUNS_DIR or "
             ".repro/runs)",
    )
    traceable = shared(runs_dir)
    traceable.add_argument(
        "--trace-out", metavar="FILE.jsonl", default=None,
        help="record spans and metrics to a JSONL trace file",
    )
    traceable.add_argument(
        "--no-manifest", action="store_false", dest="manifest",
        help="do not append a provenance record for this run to the "
             "manifest store (default: record one)",
    )
    seed = shared()
    seed.add_argument("--seed", type=int, default=0, help="RNG seed")

    def samples(default):
        parent = shared()
        parent.add_argument(
            "--samples", type=int, default=default,
            help="Monte-Carlo samples per (adversary, start) pair",
        )
        return parent

    def states(default):
        parent = shared()
        parent.add_argument(
            "--states", type=int, default=default,
            help="sampled start states per region",
        )
        return parent

    model = shared()
    model.add_argument(
        "--model", default="lr", metavar="NAME",
        help="registered case-study model to verify (default: "
             "%(default)s; list them with 'repro models')",
    )
    model_n = shared(model)
    model_n.add_argument(
        "--n", type=int, default=None,
        help="instance size (default: the model's own, 3 for lr)",
    )
    lr_n = shared()
    lr_n.add_argument(
        "--n", type=int, default=3,
        help="Lehmann-Rabin ring size (default: %(default)s)",
    )
    early_stop = shared()
    early_stop.add_argument(
        "--early-stop", action="store_true", dest="early_stop",
        help="stop a pair early once its confidence bounds decide it",
    )

    # The sampling subcommands' run plumbing: workers, fault tolerance,
    # contract guards and evaluation engine.
    sampling = shared(seed)
    sampling.add_argument(
        "--workers", type=int, default=1,
        help="sampling worker processes (1 = sequential; results "
             "are identical for every count)",
    )
    sampling.add_argument(
        "--progress", action="store_true",
        help="render a live progress line (tasks done, rate, ETA, "
             "retry/quarantine/degradation counters) on stderr; "
             "stdout stays byte-identical with or without it",
    )
    sampling.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock timeout; hung workers are "
             "terminated and the task is retried",
    )
    sampling.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help="retries per task after a worker crash, timeout, or "
             "corrupted result (default: %(default)s)",
    )
    sampling.add_argument(
        "--checkpoint", metavar="FILE.jsonl", default=None,
        help="append completed task results to a crash-safe JSONL "
             "checkpoint",
    )
    sampling.add_argument(
        "--resume", action="store_true",
        help="skip tasks already recorded in --checkpoint; the "
             "resumed report is bit-identical to an uninterrupted run",
    )
    sampling.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="deterministically inject worker failures, e.g. "
             "'crash=0.1,hang=0.05,corrupt=0.02,seed=7' "
             "(see docs/robustness.md)",
    )
    sampling.add_argument(
        "--guards", choices=("off", "warn", "strict"), default="warn",
        help="model-contract enforcement: 'off' skips all checks, "
             "'warn' reports violations once per site on stderr, "
             "'strict' quarantines the offending (adversary, start) "
             "pair and exits with status 4 (default: %(default)s; "
             "see docs/contracts.md)",
    )
    sampling.add_argument(
        "--fuel", metavar="SPEC", default=None,
        help="per-execution budget surfacing nontermination, e.g. "
             "'5000' (steps) or 'steps=5000,seconds=2.5'; requires "
             "--guards warn or strict",
    )
    sampling.add_argument(
        "--engine",
        choices=("tree", "batched", "auto"),
        default="tree",
        help="evaluation strategy: 'tree' walks the live object "
             "graph afresh per sample, 'batched' grows one memoised "
             "execution tree per (adversary, start) pair and reuses "
             "it across samples (errors when the --state-budget is "
             "exceeded), 'auto' prefers the batched walk and falls "
             "back to the tree walk when the budget is exceeded; "
             "reports are byte-identical whichever engine ran "
             "(default: %(default)s; see docs/statespace.md)",
    )
    sampling.add_argument(
        "--state-budget", type=int, default=None, metavar="N",
        dest="state_budget",
        help="cap on the start states a --engine batched/auto "
             "check interns, and on the states and per-adversary "
             "product nodes an exact value tabulates (default: "
             "200000)",
    )
    # verify, check, chain and expected-time default to 80 samples;
    # stats and sweep to 40.
    checks = (model_n, samples(80), sampling)
    samples_40 = samples(40)
    store = shared()
    store.add_argument(
        "--store", metavar="DIR", default=None,
        help="job store location (default: $REPRO_SERVICE_DIR or "
             ".repro/service)",
    )
    corpus_file = shared()
    corpus_file.add_argument(
        "--corpus-file", metavar="FILE.jsonl", default=None,
        dest="corpus_file",
        help="fuzz-emitted / user-added entries replayed alongside "
             "the built-ins (default: .repro/corpus/extra.jsonl)",
    )

    def add_command(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[traceable, *parents], **kwargs)

    add_command("prove", help="print the Section 6.2 derivation")\
        .set_defaults(func=_cmd_prove)

    add_command(
        "verify", *checks, help="Monte-Carlo check of all statements"
    ).set_defaults(func=_cmd_verify)

    p = add_command(
        "check", *checks, early_stop, json_flag,
        help="Monte-Carlo check of one statement (see --prop)",
    )
    p.add_argument(
        "--prop", default=None,
        help="leaf proposition name (e.g. A.14) or 'composed' "
             "(default: the model's own, 'composed' for lr)",
    )
    p.set_defaults(func=_cmd_check)

    add_command(
        "chain", *checks, early_stop,
        help="derive and check the composed T --13-->_1/8 C chain",
    ).set_defaults(func=_cmd_chain)

    add_command(
        "exact", lr_n, seed, states(6),
        help="exact round-synchronous minima",
    ).set_defaults(func=_cmd_exact)

    add_command(
        "appendix", lr_n, help="check the appendix lemmas exactly"
    ).set_defaults(func=_cmd_appendix)

    add_command(
        "expected-time", *checks, help="measured time-to-critical"
    ).set_defaults(func=_cmd_expected_time)

    p = add_command(
        "sweep", model, samples_40, sampling,
        help="instance-size and deadline ablations",
    )
    p.add_argument(
        "--sizes", default=None,
        help="comma-separated instance sizes (default: the model's "
             "own, 3,4,5 for lr)",
    )
    p.set_defaults(func=_cmd_sweep)

    add_command(
        "independence", help="Example 4.1 / Proposition 4.2, exactly"
    ).set_defaults(func=_cmd_independence)

    sub.add_parser(
        "models", parents=[json_flag],
        help="list the registered case-study models "
             "(see docs/models.md)",
    ).set_defaults(func=_cmd_models, manages_tracing=True,
                   skip_manifest=True)

    p = add_command(
        "exhaustive",
        help="leaf propositions over their entire regions (n = 3), "
        "optionally the composed statement over all T states",
    )
    p.add_argument("--composed", action="store_true",
                   help="also sweep T --13--> C over all 3896 T states "
                        "(about 15 seconds)")
    p.set_defaults(func=_cmd_exhaustive)

    add_command(
        "all", lr_n, seed, states(5),
        help="the fast exact suite: prove, exact, appendix, "
        "independence",
    ).set_defaults(func=_cmd_all)

    p = add_command(
        "audit", model_n, json_flag,
        help="static Definition 2.1 audit of the selected model's "
             "automaton",
    )
    p.add_argument(
        "--horizon", type=int, default=2000,
        help="cap on reachable states to expand before reporting "
             "'unknown' (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_audit)

    add_command(
        "stats", model_n, samples_40, sampling,
        help="instrumented Lehmann-Rabin run: span tree and metric tables",
    ).set_defaults(func=_cmd_stats, manages_tracing=True)

    p = add_command(
        "trace",
        help="run another subcommand with instrumentation on and render "
        "its span tree and metric tables",
    )
    p.add_argument(
        "rest", nargs=argparse.REMAINDER, metavar="command ...",
        help="the subcommand (and its arguments) to trace",
    )
    p.set_defaults(func=_cmd_trace, manages_tracing=True)

    p = sub.add_parser(
        "runs",
        help="list, show, and diff recorded run manifests "
        "(see docs/observability.md)",
    )
    runs_sub = p.add_subparsers(dest="runs_cmd", required=True)
    runs_store = shared(runs_dir, json_flag)
    runs_sub.add_parser(
        "list", parents=[runs_store], help="one row per recorded run"
    )
    rp = runs_sub.add_parser(
        "show", parents=[runs_store], help="one manifest, fully expanded"
    )
    rp.add_argument("id", help="run id (any unique prefix)")
    rp = runs_sub.add_parser(
        "diff", parents=[runs_store],
        help="metric and timing deltas between two runs "
        "(meaningful for runs of the same scope)",
    )
    rp.add_argument("old", help="baseline run id (any unique prefix)")
    rp.add_argument("new", help="comparison run id (any unique prefix)")
    p.set_defaults(
        func=_cmd_runs, manages_tracing=True, skip_manifest=True
    )

    p = sub.add_parser(
        "profile", parents=[runs_dir],
        help="fold a recorded span tree into per-phase self/cumulative "
        "hotspots (from a --trace-out JSONL file or a run manifest)",
    )
    p.add_argument(
        "source", nargs="?", default=None, metavar="FILE.jsonl",
        help="a --trace-out JSONL trace file to profile",
    )
    p.add_argument(
        "--run", metavar="ID", default=None,
        help="profile the span aggregate stored in this run's manifest",
    )
    p.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="hotspots to show, ranked by self time (default: "
             "%(default)s)",
    )
    p.add_argument(
        "--folded", action="store_true",
        help="emit folded 'stack self_microseconds' lines for "
             "flamegraph tooling instead of the table",
    )
    p.set_defaults(
        func=_cmd_profile, manages_tracing=True, skip_manifest=True
    )

    p = sub.add_parser(
        "corpus",
        help="list, replay, and extend the standing defect corpus "
        "(see docs/corpus.md)",
    )
    corpus_sub = p.add_subparsers(dest="corpus_cmd", required=True)
    corpus_sub.add_parser(
        "list", parents=[corpus_file, json_flag],
        help="one row per corpus entry (built-in and file)",
    ).set_defaults(skip_manifest=True)
    cp = corpus_sub.add_parser(
        "run", parents=[traceable, corpus_file, json_flag],
        help="replay entries across engines x guard modes x worker "
             "counts, asserting identical classification",
    )
    cp.add_argument(
        "--entry", metavar="NAME", default=None,
        help="replay only the named entry (default: all)",
    )
    cp = corpus_sub.add_parser(
        "add", parents=[corpus_file],
        help="validate fuzz finding records and append them to "
             "the corpus file",
    )
    cp.add_argument(
        "finding", metavar="FINDINGS.jsonl",
        help="a JSONL file of finding records (e.g. from "
             "'repro fuzz --emit')",
    )
    cp.set_defaults(skip_manifest=True)
    p.set_defaults(func=_cmd_corpus)

    p = add_command(
        "fuzz", json_flag,
        help="deterministic differential fuzzing of the sampling "
        "engines (see docs/corpus.md)",
    )
    p.add_argument(
        "--budget", type=int, default=50, metavar="N",
        help="generated cases to diff before declaring the campaign "
             "clean (default: %(default)s)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="campaign root seed; the same seed and budget reproduce "
             "the identical campaign byte for byte",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per engine run (results are identical "
             "for every count)",
    )
    p.add_argument(
        "--sabotage", metavar="ENGINE", default=None,
        help="deliberately perturb this engine's classification before "
             "diffing — a smoke test that the harness catches, shrinks, "
             "and reports a divergence",
    )
    p.add_argument(
        "--model", default=None, metavar="NAME",
        help="also target this registered model's automaton: every "
             "generated case runs the model with a deterministically "
             "mutated (or healthy) build (default: the tiny synthetic "
             "automaton only)",
    )
    p.add_argument(
        "--emit", metavar="FILE.jsonl", default=None,
        help="append ready-to-commit corpus records for any findings "
             "(replay with 'repro corpus run --corpus-file FILE.jsonl')",
    )
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "submit", parents=[store, json_flag],
        help="validate a verification command and append it to the "
             "durable job store (see docs/service.md)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        dest="max_attempts",
        help="execution failures before the job is marked failed "
             "(default: %(default)s)",
    )
    p.add_argument(
        "spec", nargs=argparse.REMAINDER, metavar="command ...",
        help="the verification command to run, e.g. "
             "'check --prop A.14 --samples 200'",
    )
    p.set_defaults(func=_cmd_submit, skip_manifest=True)

    p = sub.add_parser(
        "serve", parents=[traceable, store, json_flag],
        help="run supervised workers over the job store until drained "
             "or stopped (see docs/service.md)",
    )
    p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes to supervise (default: %(default)s)",
    )
    p.add_argument(
        "--lease", type=float, default=30.0, metavar="SECONDS",
        help="job lease duration; a worker silent this long is "
             "presumed dead and its job is reclaimed (default: "
             "%(default)s)",
    )
    p.add_argument(
        "--drain", action="store_true",
        help="exit once every job is settled instead of serving "
             "forever",
    )
    p.add_argument(
        "--poll", type=float, default=0.1, metavar="SECONDS",
        help="supervisor/worker polling interval (default: "
             "%(default)s)",
    )
    p.add_argument(
        "--backoff", type=float, default=0.2, metavar="SECONDS",
        help="base restart backoff, doubled per consecutive young "
             "crash (default: %(default)s)",
    )
    p.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        dest="max_restarts",
        help="consecutive young unclean worker exits a slot tolerates "
             "before the supervisor declares a crash loop (default: "
             "%(default)s)",
    )
    p.add_argument(
        "--healthy-seconds", type=float, default=5.0, metavar="SECONDS",
        dest="healthy_seconds",
        help="a worker living this long resets its slot's crash "
             "streak (default: %(default)s)",
    )
    p.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="deterministically inject service failures, e.g. "
             "'kill=0.3,steal=0.2,torn=0.1,cache=0.1,seed=7' "
             "(see docs/service.md)",
    )
    p.set_defaults(func=_cmd_serve, skip_manifest=True)

    p = sub.add_parser(
        "jobs",
        help="list, show, and cancel jobs in the durable job store "
             "(see docs/service.md)",
    )
    jobs_sub = p.add_subparsers(dest="jobs_cmd", required=True)
    jobs_store = shared(store, json_flag)
    job_id = shared(jobs_store)
    job_id.add_argument("id", help="job id (any unique prefix)")
    jobs_sub.add_parser(
        "list", parents=[jobs_store], help="one row per stored job"
    )
    jobs_sub.add_parser(
        "show", parents=[job_id], help="one job, fully expanded"
    )
    jobs_sub.add_parser(
        "cancel", parents=[job_id], help="cancel a pending or running job"
    )
    p.set_defaults(func=_cmd_jobs, skip_manifest=True)

    return parser


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    return _lr_commands(args).cmd_exhaustive(args)


def _cmd_all(args: argparse.Namespace) -> int:
    """Run the exact (non-sampling) commands back to back."""
    failures = 0
    failures += _cmd_prove(args)
    print()
    failures += _cmd_exact(args)
    print()
    failures += _cmd_appendix(args)
    print()
    failures += _cmd_independence(args)
    return 1 if failures else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import corpus
    from repro.analysis.reporting import banner, format_table

    corpus_file = Path(
        getattr(args, "corpus_file", None) or corpus.DEFAULT_CORPUS_FILE
    )

    if args.corpus_cmd == "add":
        source = Path(args.finding)
        if not source.exists():
            raise VerificationError(f"finding file {source} does not exist")
        records = []
        try:
            for lineno, line in enumerate(
                source.read_text(encoding="utf-8").splitlines(), start=1
            ):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict) or "case" not in record:
                    raise VerificationError(
                        f"{source}:{lineno}: expected an object with a "
                        f"'case' field"
                    )
                # Validation: the record must materialise into a
                # runnable case before it is allowed into the corpus.
                corpus.entry_from_record(record, source=str(source)).build()
                records.append(record)
        except (json.JSONDecodeError, VerificationError, KeyError) as error:
            raise VerificationError(f"bad finding record: {error}") from None
        if not records:
            raise VerificationError(f"no records found in {source}")
        from repro import durable_io

        corpus_file.parent.mkdir(parents=True, exist_ok=True)
        with durable_io.DurableAppender(str(corpus_file)) as appender:
            for record in records:
                appender.append_json(record)
        print(
            f"corpus: added {len(records)} entr"
            f"{'y' if len(records) == 1 else 'ies'} to {corpus_file}"
        )
        return 0

    entries = list(corpus.builtin_entries()) + list(
        corpus.load_file_entries(corpus_file)
    )
    if args.corpus_cmd == "list":
        if args.json:
            _print_json([
                {
                    "name": entry.name,
                    "source": entry.source,
                    "kind": entry.kind,
                    "expected_class": entry.expected_class,
                    "engines": list(entry.engines),
                    "workers": list(entry.workers),
                    "description": entry.description,
                }
                for entry in entries
            ])
            return 0
        print(banner("Defect corpus"))
        print(format_table(
            ("entry", "kind", "expected class", "source"),
            [
                (
                    entry.name,
                    entry.kind,
                    entry.expected_class or "(agreement)",
                    entry.source,
                )
                for entry in entries
            ],
        ))
        return 0

    # corpus run
    if args.entry:
        entries = [corpus.entry_by_name(args.entry, tuple(entries))]
    report = corpus.run_corpus(entries)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(report.describe())
        for problem in report.problems:
            print(f"repro: corpus divergence: {problem}")
    return report.exit_status


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import corpus

    report = corpus.run_fuzz(
        seed=args.seed,
        budget=args.budget,
        workers=args.workers,
        sabotage=args.sabotage,
        model=args.model,
    )
    if args.emit and report.findings:
        from repro import durable_io

        emit_path = Path(args.emit)
        if emit_path.parent != Path("."):
            emit_path.parent.mkdir(parents=True, exist_ok=True)
        with durable_io.DurableAppender(str(emit_path)) as appender:
            for finding in report.findings:
                appender.append_json(
                    corpus.corpus_record(finding, seed=args.seed)
                )
    if args.json:
        _print_json(report.to_dict())
    else:
        print(report.describe())
        for finding in report.findings:
            print("minimal repro (ready for 'repro corpus add'):")
            print(json.dumps(
                corpus.corpus_record(finding, seed=args.seed),
                sort_keys=True,
            ))
    return 0 if report.ok else EXIT_DIVERGENCE


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro import service

    spec_argv = list(args.spec)
    if spec_argv and spec_argv[0] == "--":
        spec_argv = spec_argv[1:]
    spec = service.JobSpec.parse(spec_argv)
    with service.JobStore(service.resolve_store_dir(args.store)) as store:
        view = store.submit(spec, max_attempts=args.max_attempts)
    if args.json:
        _print_json(view.to_dict())
    else:
        print(
            f"submitted {view.job_id} "
            f"(command: {' '.join(spec.argv)}; scope {spec.scope[:12]})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import service
    from repro.parallel.faults import FaultPlan

    if args.inject_faults:
        FaultPlan.parse(args.inject_faults)  # fail fast on typos
    summary = service.Supervisor(
        root=service.resolve_store_dir(args.store),
        workers=args.workers,
        lease_seconds=args.lease,
        drain=args.drain,
        fault_spec=args.inject_faults,
        poll_seconds=args.poll,
        backoff_seconds=args.backoff,
        max_restarts=args.max_restarts,
        healthy_seconds=args.healthy_seconds,
    ).run()
    if args.json:
        _print_json(summary)
    else:
        states = ", ".join(
            f"{state}={count}"
            for state, count in sorted(summary["jobs"].items())
        )
        print(
            f"serve: {summary['completed_this_run']} job(s) completed "
            f"this run ({summary['served_from_cache']} from cache), "
            f"{summary['workers_restarted']} worker restart(s), "
            f"{summary['leases_reclaimed']} lease(s) reclaimed"
        )
        print(f"jobs: {states or 'none submitted'}")
    return EXIT_POOL if summary["jobs"].get("failed") else 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro import service
    from repro.obs.sinks import format_table

    with service.JobStore(service.resolve_store_dir(args.store)) as store:
        if args.jobs_cmd == "list":
            views = sorted(store.jobs().values(), key=lambda view: view.seq)
            if args.json:
                _print_json([view.to_dict() for view in views])
            elif not views:
                print("jobs: none submitted")
            else:
                print(format_table(
                    ("job", "state", "command", "claims", "fails",
                     "exit", "cached"),
                    [
                        (
                            view.job_id,
                            view.state,
                            " ".join(view.argv)[:48],
                            view.claims,
                            view.failures,
                            "" if view.exit_status is None
                            else view.exit_status,
                            "yes" if view.cached else "",
                        )
                        for view in views
                    ],
                ))
            return 0
        view = store.find(args.id)
        if args.jobs_cmd == "cancel":
            view = store.cancel(view.job_id)
    if args.json:
        _print_json(view.to_dict())
    else:
        record = view.to_dict()
        record["argv"] = " ".join(view.argv)
        for key in sorted(record):
            print(f"{key:>12}: {record[key]}")
    return 0


# Namespace attributes that never belong in a manifest's scope
# fingerprint: plumbing (parser internals, store location), output-only
# switches, and the robustness/engine flags whose reports are
# byte-identical by construction (docs/parallel.md, docs/robustness.md,
# docs/statespace.md) — two runs differing only in these must share a
# scope so ``repro runs diff`` can compare them.
_NON_SCOPE_KEYS = frozenset({
    "func", "command", "manages_tracing", "skip_manifest",
    "manifest", "runs_dir", "trace_out", "progress", "json",
    "workers", "engine", "state_budget",
    "timeout", "retries", "checkpoint", "resume", "inject_faults",
    "emit",
})


def _manifest_config(args: argparse.Namespace) -> dict:
    """The result-affecting configuration a manifest's scope hashes.

    Every caller resolves the model first: :func:`_resolve_model` fills
    the model-dependent flags the parser leaves as ``None`` (``--n``,
    ``--prop``, ``--sizes``) in place, so a run spelling out a default
    and one omitting it share a scope fingerprint — and the job
    service's result cache is keyed per model.
    """
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in _NON_SCOPE_KEYS
        and not key.startswith("final_")
        and not callable(value)
    }


def _maybe_write_manifest(
    args: argparse.Namespace,
    argv: Sequence[str],
    started_at: str,
    wall_s: float,
    exit_status: int,
) -> None:
    """Append this run's provenance record, unless opted out.

    Meta-commands (``runs``, ``profile``) set ``skip_manifest`` — they
    inspect the store, they are not verification runs.  Failures are
    soft and stderr-only: provenance must never break or reorder the
    run's own output.
    """
    if getattr(args, "skip_manifest", False):
        return
    if not getattr(args, "manifest", True):
        return
    from repro.obs import manifest as mf

    record = mf.new_manifest(
        args.command,
        argv,
        _manifest_config(args),
        started_at=started_at,
        wall_s=wall_s,
        exit_status=exit_status,
        metrics=getattr(args, "final_metrics", None),
        profile=getattr(args, "final_profile", None),
        git_rev=mf.git_revision(),
    )
    mf.append_manifest(record, getattr(args, "runs_dir", None))


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected subcommand, wiring tracing and progress."""
    from contextlib import ExitStack

    with ExitStack() as stack:
        if getattr(args, "progress", False):
            from repro.obs import progress as progress_mod

            stack.enter_context(progress_mod.reporting(
                progress_mod.ProgressReporter(label=args.command)
            ))
        trace_out = getattr(args, "trace_out", None)
        if trace_out and not getattr(args, "manages_tracing", False):
            from repro import obs
            from repro.obs.profile import profile_tracer
            from repro.obs.sinks import metric_records

            with obs.recording() as registry:
                code = args.func(args)
            args.final_metrics = metric_records(registry.metrics)
            args.final_profile = profile_tracer(registry.tracer)
            return code or _write_trace(registry, trace_out)
        return args.func(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    ``--trace-out`` on an ordinary subcommand wraps it in a recording
    registry and writes the JSONL trace afterwards; ``trace`` and
    ``stats`` manage their own recording.  A pooled run that exhausts
    its fault-tolerance budget exits with status 3 (completed work is
    already checkpointed when ``--checkpoint`` was given); a
    model-contract violation that escapes quarantine (strict guards on
    a non-pooled code path) exits with status 4; any other
    :class:`~repro.errors.VerificationError` — a flag value the run
    cannot use, an unknown model or proposition, a blown state budget —
    exits with status 2.  Whatever the outcome, a provenance manifest
    is appended to the run store unless ``--no-manifest`` was given
    (``repro runs`` inspects the store).
    """
    import time
    from datetime import datetime, timezone

    from repro.errors import (
        CheckpointError,
        ContractViolation,
        PoolFaultError,
        ServiceError,
    )

    parser = build_parser()
    args = parser.parse_args(argv)
    recorded_argv = list(argv) if argv is not None else sys.argv[1:]
    started_at = datetime.now(timezone.utc).isoformat()
    started = time.perf_counter()
    try:
        code = _dispatch(args)
    except ContractViolation as error:
        print(f"repro: contract violation: {error}", file=sys.stderr)
        code = EXIT_CONTRACT
    except VerificationError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        code = EXIT_USAGE
    except (PoolFaultError, CheckpointError, ServiceError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        if getattr(args, "checkpoint", None) and not isinstance(
            error, (CheckpointError, ServiceError)
        ):
            print(
                "repro: completed tasks were checkpointed; rerun with "
                "--resume to pick up where this run stopped",
                file=sys.stderr,
            )
        code = EXIT_POOL
    _maybe_write_manifest(
        args, recorded_argv, started_at,
        time.perf_counter() - started, code,
    )
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""Steps the benchmark runs in a fresh interpreter.

``setup MODEL N``          import the CLI and build one model instance;
``submit STORE SEED``      submit the service campaign's job mix;
``trace DIR -- ARGV...``   run ``repro.cli.main(ARGV)`` with spans on.

``--trace DIR`` on ``submit`` traces it too.  Traced steps write one
aggregate file per process into DIR (see tracer.py).
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys

import tracer as tracing
import workloads


def _traced(out_dir: str, name: str, step) -> int:
    tracer = tracing.Tracer(out_dir)
    os.register_at_fork(after_in_child=tracer.reset)
    atexit.register(tracer.flush)
    _, missing = tracing.install(tracer)
    for target in missing:
        print(f"bench: trace target not found: {target}", file=sys.stderr)
    tracer.enter(name)
    try:
        return step()
    finally:
        tracer.exit()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("setup")
    p.add_argument("model")
    p.add_argument("n", type=int)
    p = sub.add_parser("submit")
    p.add_argument("store")
    p.add_argument("seed", type=int)
    p.add_argument("--trace", metavar="DIR")
    p = sub.add_parser("trace")
    p.add_argument("dir")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.step == "setup":
        import repro.cli  # noqa: F401  (import cost is part of set-up)
        from repro.models import get_model

        get_model(args.model).build(args.n)
        return 0
    if args.step == "submit":
        def submit() -> int:
            workloads.submit_jobs(args.store, args.seed)
            return 0

        if args.trace:
            return _traced(args.trace, "harness.submit", submit)
        return submit()
    import repro.cli

    cli_main = repro.cli.main
    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return _traced(args.dir, "harness.main", lambda: cli_main(cli_argv))


if __name__ == "__main__":
    sys.exit(main())

"""Job specifications: validated CLI invocations with a cache scope.

A job is nothing more exotic than an ordinary ``repro`` command line.
:meth:`JobSpec.parse` validates the argv against the real CLI parser
and the sampling commands' own set-up — a spec that would die with a
usage error at run time is rejected at submit time instead — and
computes the job's *scope*: the run-manifest scope fingerprint
(:func:`repro.obs.manifest.scope_fingerprint`) of the command plus its
result-affecting configuration.

The scope is the service's unit of work identity.  Because the CLI
excludes byte-identical-by-construction knobs (``--workers``,
``--engine``, checkpoint/fault/output plumbing) from the fingerprint,
two submissions that differ only in those knobs share a scope — and
therefore share one result-cache entry, which is sound precisely
because the repository's determinism contract guarantees their report
bytes match.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import VerificationError

#: Commands a job may run.  Verification workloads only: the service
#: meta-commands (``serve``/``submit``/``jobs``) and the store
#: inspectors (``runs``/``profile``/``trace``) are excluded — a job
#: that submits jobs is a fork bomb, not a campaign.
ALLOWED_COMMANDS = frozenset({
    "check", "chain", "verify", "expected-time", "stats", "sweep",
    "corpus",
})


@dataclass(frozen=True)
class JobSpec:
    """One validated, scope-fingerprinted verification command."""

    argv: Tuple[str, ...]
    command: str
    scope: str

    @classmethod
    def parse(cls, argv: Sequence[str]) -> "JobSpec":
        """Validate ``argv`` and fingerprint its scope.

        Raises :class:`~repro.errors.VerificationError` for an empty
        spec, a command outside :data:`ALLOWED_COMMANDS`, a ``corpus``
        subcommand other than ``run``, anything the CLI parser itself
        rejects (the parser's own message is preserved), or a flag
        value the sampling command's set-up rejects (an unknown model
        or proposition, an out-of-range size, contradictory
        fault-tolerance or guard flags).
        """
        from repro import cli
        from repro.obs import manifest as mf

        argv = tuple(str(part) for part in argv)
        if not argv:
            raise VerificationError(
                "empty job spec: give a verification command, e.g. "
                "'check --prop A.14 --samples 200'"
            )
        command = argv[0]
        if command not in ALLOWED_COMMANDS:
            allowed = ", ".join(sorted(ALLOWED_COMMANDS))
            raise VerificationError(
                f"command {command!r} cannot be served as a job "
                f"(allowed: {allowed})"
            )
        captured = io.StringIO()
        try:
            with contextlib.redirect_stderr(captured):
                args = cli.build_parser().parse_args(list(argv))
        except SystemExit:
            detail = captured.getvalue().strip().splitlines()
            raise VerificationError(
                "job spec rejected by the CLI parser"
                + (f": {detail[-1]}" if detail else "")
            ) from None
        if command == "corpus" and getattr(args, "corpus_cmd", "") != "run":
            raise VerificationError(
                "only 'corpus run' can be served as a job ('corpus "
                f"{getattr(args, 'corpus_cmd', '?')}' mutates or lists "
                "the registry locally)"
            )
        if command != "corpus":
            # Every other allowed command samples.  Its set-up checks
            # the flags the run would reject, writes nothing (the
            # checkpoint opens lazily) and fills in the model defaults
            # the scope hashes.
            with cli._sampling_run(args):
                pass
        scope = mf.scope_fingerprint(command, cli._manifest_config(args))
        return cls(argv=argv, command=command, scope=scope)

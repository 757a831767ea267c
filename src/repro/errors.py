"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProbabilityError(ReproError):
    """Raised when a probability space or distribution is ill-formed.

    Examples: weights that do not sum to one, negative weights, an empty
    sample space, or conditioning on a null event.
    """


class AutomatonError(ReproError):
    """Raised when a probabilistic automaton definition is inconsistent.

    Examples: a start state that is not a state, a transition from an
    unknown state, overlapping internal/external action sets, or a target
    distribution whose support leaves the state set.
    """


class ExecutionError(ReproError):
    """Raised when an execution fragment is ill-formed.

    Examples: concatenating fragments whose endpoint states disagree, or
    building a fragment whose steps do not exist in the automaton.
    """


class AdversaryError(ReproError):
    """Raised when an adversary violates its contract.

    Examples: returning a step that is not enabled in the fragment's last
    state, or a Unit-Time adversary missing a scheduling deadline.
    """


class EventError(ReproError):
    """Raised when an event schema is ill-formed.

    Examples: a ``next`` schema built from non-distinct actions
    (Section 4 requires ``a_i != a_j``), or evaluating an event against
    an incompatible execution automaton.
    """


class ProofError(ReproError):
    """Raised when a proof rule is applied to incompatible statements.

    Examples: composing ``U --t1-->_p U'`` with ``V --t2-->_q U''`` when
    ``U' != V`` (Theorem 3.4 requires the intermediate sets to match), or
    composing statements proved against different adversary schemas.
    """


class VerificationError(ReproError):
    """Raised when a verification run cannot produce a sound answer.

    Examples: a sampling plan with zero samples, or an exact checker
    asked to explore an unboundedly large state space.
    """


class ModelRegistryError(VerificationError):
    """Base class for model front-end failures.

    Raised by :mod:`repro.models` when a requested case study cannot be
    resolved or registered.  A distinct taxonomy family (mirroring the
    pool-fault and service families) so the defect corpus can pin how
    every engine classifies registry failures.
    """


class UnknownModelError(ModelRegistryError):
    """Raised when a model name is not in the model registry.

    ``--model`` selects a case study from
    :mod:`repro.models`; an unregistered name cannot be resolved into
    an automaton or adversary family, so no sound answer is possible.
    Maps to the usage exit status (2) at the CLI, like an unknown
    proposition.  Carries the known model names for the error message.
    """

    def __init__(self, name: str, known: tuple = ()):  # type: ignore[assignment]
        known_names = ", ".join(sorted(known)) or "none registered"
        super().__init__(
            f"unknown model {name!r} (registered models: {known_names})"
        )
        self.name = name
        self.known = tuple(known)


class StateSpaceError(VerificationError):
    """Raised when a state space cannot be compiled as requested.

    Examples: a space specification whose quotient key collides two
    dynamically distinct states, or an adversary that cannot be
    tabulated into a finite decision table.
    """


class StateBudgetExceeded(StateSpaceError):
    """Raised when compile-time exploration exceeds its state budget.

    ``--engine batched`` surfaces this to the caller; ``--engine auto``
    catches it and falls back to the tree-walk engine instead.
    """

    def __init__(self, message: str, *, budget: int = 0, explored: int = 0):
        super().__init__(message)
        self.budget = budget
        self.explored = explored


class ObservabilityError(ReproError):
    """Raised when the instrumentation layer is misused.

    Examples: registering one metric name as both a counter and a
    histogram, querying a percentile of an empty histogram, or a span
    stack corrupted by mismatched enter/exit.
    """


class PoolFaultError(ReproError):
    """Base class for worker-pool execution failures.

    Raised by :mod:`repro.parallel.pool` when a pooled run cannot
    complete: a worker process died, a task overran its wall-clock
    budget, or a result failed its integrity check — and the per-task
    retry budget is exhausted.  Results already completed are merged
    and checkpointed before the error propagates, so a rerun with
    ``--resume`` loses no work.
    """


class WorkerCrashError(PoolFaultError):
    """Raised when a worker process dies without delivering a result.

    Examples: a worker killed by the OOM killer, a segfault in an
    extension, or an injected crash from the fault harness — observed
    by the parent as a nonzero exit status with no result on the pipe.
    """


class TaskTimeoutError(PoolFaultError):
    """Raised when a task exceeds its per-task wall-clock timeout.

    The parent terminates the hung worker and retries the task on a
    fresh process; this error propagates only once the retry budget is
    exhausted.
    """


class ResultCorruptionError(PoolFaultError):
    """Raised when a worker's result fails its integrity digest.

    Every pooled result travels with a SHA-256 digest computed in the
    worker; a mismatch on the parent side means the payload was
    corrupted in transit (or by the fault harness) and must not enter
    the report.
    """


class TaskExecutionError(PoolFaultError):
    """Raised when the task function itself raised inside a worker.

    Unlike a crash or timeout this is deterministic — retrying would
    fail identically — so it aborts the run immediately, after merging
    the metrics of tasks that did complete.
    """


class CheckpointError(ReproError):
    """Raised when a checkpoint file cannot be read or written.

    Examples: an unreadable checkpoint path, an append failing
    mid-run, or a stored record whose payload does not decode into the
    expected task result shape.
    """


class ServiceError(ReproError):
    """Base class for durable job-service failures.

    Raised by :mod:`repro.service` when the job runtime cannot make
    progress: a worker lost the lease on its job, the WAL-style job
    store holds records that cannot be trusted, or the supervisor
    detected a worker crash-looping.  Like pool faults these map to
    exit status 3 at the CLI — infrastructure failed, not the
    verification logic.
    """


class LeaseExpiredError(ServiceError):
    """Raised when a worker acts on a job whose lease it no longer holds.

    A worker that stalls past its lease (or loses a claim race to a
    takeover after the lease expired) must not record results for the
    job — another worker may already be re-running it.  Heartbeats and
    completion both verify holdership against the folded WAL state and
    raise this when it is gone; the worker abandons the job and the
    eventual re-run reproduces the identical result from the same
    derived seeds.
    """


class JobStoreCorruptionError(ServiceError):
    """Raised when the job store's WAL cannot be trusted.

    A torn final line from a crash is *not* corruption — the store
    repairs and tolerates it.  This error means something stronger: an
    unreadable store file, a record that decodes but has the wrong
    shape, or an event of an unknown kind — states that no crash of a
    correct writer produces, so continuing could hand out the same job
    twice or lose results silently.
    """


class SupervisorCrashLoopError(ServiceError):
    """Raised when a worker slot keeps dying immediately after restart.

    The supervisor restarts crashed workers with exponential backoff;
    a slot whose workers die young ``max_restarts`` times in a row is
    crash-looping (a poisoned job or broken environment), and endless
    restarts would burn the machine without progress.  The supervisor
    stops the campaign instead — the WAL keeps every completed result,
    so a fixed environment resumes where it left off.
    """


class ContractViolation(ReproError):
    """A model broke a semantic contract of the paper's definitions.

    Raised (``strict``) or counted (``warn``) by the guard layer in
    :mod:`repro.contracts` when user-supplied model code violates
    Definition 2.1 (ill-formed probability space), Definition 2.2 (an
    adversary scheduling a non-enabled step), or Definition 3.3 (a
    schema falsely claiming execution closure) — or runs away entirely
    (fuel exhaustion).  Carries the offending ``state``, ``action``,
    and execution-fragment ``prefix`` as a minimal repro; ``site`` is
    the deduplication key for once-per-site warnings.
    """

    #: Short classification used for ``contracts.<kind>`` counters and
    #: quarantine records; subclasses override.
    kind = "contract"

    def __init__(
        self,
        message: str,
        *,
        state: object = None,
        action: object = None,
        prefix: object = None,
        site: str = "",
    ):
        details = []
        if state is not None:
            details.append(f"state={state!r}")
        if action is not None:
            details.append(f"action={action!r}")
        if prefix is not None:
            details.append(f"prefix={prefix}")
        full = message if not details else f"{message} [{', '.join(details)}]"
        super().__init__(full)
        self.state = state
        self.action = action
        self.prefix = prefix
        self.site = site or full

    def to_dict(self) -> dict:
        """A stable, JSON-ready record of this violation."""
        return {
            "kind": type(self).kind,
            "message": str(self),
            "state": repr(self.state) if self.state is not None else None,
            "action": repr(self.action) if self.action is not None else None,
        }


class DistributionError(ContractViolation, ProbabilityError):
    """A transition target is not a probability space (Definition 2.1).

    Examples: weights that do not sum exactly to one as ``Fraction``s,
    a nonpositive weight, or an empty support — smuggled past the
    :class:`~repro.probability.space.FiniteDistribution` constructor by
    a duck-typed or mutated distribution object.
    """

    kind = "distribution"


class AdversaryContractError(ContractViolation, AdversaryError):
    """An adversary broke its Definition 2.2 contract at runtime.

    Examples: returning a step whose source is not the fragment's last
    state, a step not enabled there, or an adversary outside the schema
    the run declared.
    """

    kind = "adversary"


class ExecutionClosureError(ContractViolation, AdversaryError):
    """A schema's execution-closure claim failed a spot check.

    Definition 3.3 is the side condition Theorem 3.4 rests on: the
    guard layer shifts a schema member by a sampled fragment and checks
    the shift stays inside the schema.  A failure means composed
    statements proved against this schema are unsound.
    """

    kind = "closure"


class QuotientInvarianceError(ContractViolation, StateSpaceError):
    """A predicate disagreed across members of one quotient class.

    The symmetry quotient of :class:`repro.statespace.compile.SpaceSpec`
    is only sound for predicates that are constant on each equivalence
    class; the spot check in ``CompiledSpace.flags`` evaluates the
    predicate on sampled class members and raises (strict) or warns
    (warn) when a member disagrees with its class representative —
    a non-invariant predicate would silently misflag whole classes.
    """

    kind = "quotient"


class FuelExhaustedError(ContractViolation):
    """One execution exceeded its step or wall-clock fuel budget.

    Surfaces a nonterminating (or absurdly slow) adversary or automaton
    as a structured violation, with the fragment prefix as a minimal
    repro, instead of an indefinite hang.
    """

    kind = "fuel"

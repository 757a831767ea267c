"""Deterministic differential fuzzing of the two sampling engines.

The fuzzer generates small randomized models — automaton shape,
transition distributions, guard mode, adversary choice, optional
contract mutations, optional fault-injection plans — from the repo's
one seeding discipline (:func:`repro.parallel.seeds.derive_rng`), runs
every engine on each case, and diffs the resulting
:class:`~repro.corpus.runner.Classification` labels.  Two invocations
with the same ``--seed`` and ``--budget`` produce byte-identical
output, at any worker count: case generation never touches global
randomness, reports are engine- and worker-invariant by the repo's
core guarantee, and findings carry no timestamps.

On a divergence the fuzzer *shrinks*: a fixed, ordered list of
simplifying rewrites (drop the mutation, drop the faults, lower the
guard mode, halve the sampling plan, dirac-ify distributions, drop
states and transitions) is applied greedily — a rewrite is kept only
if the divergence survives — until no rewrite applies.  The shrunk
case is emitted as a ready-to-commit corpus entry
(``repro fuzz --emit FILE``, replayed by ``repro corpus run
--corpus-file FILE`` in agreement mode).

Because the engines are *supposed* to agree everywhere, the harness's
own plumbing is validated with ``--sabotage``, which perturbs one
engine's report digest before diffing: the injected divergence must be
caught, shrunk to the minimal case, and reported with the dedicated
divergence exit status.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.adversary.deterministic import (
    FirstEnabledAdversary,
    RoundRobinAdversary,
)
from repro.automaton.automaton import ExplicitAutomaton
from repro.automaton.signature import ActionSignature
from repro.automaton.transition import Transition
from repro.corpus import cases
from repro.corpus.cases import CheckCase
from repro.corpus.registry import ENGINES
from repro.corpus.runner import Classification, classify_check
from repro.errors import VerificationError
from repro.parallel.faults import FaultPlan
from repro.parallel.pool import RunPolicy, fork_available
from repro.parallel.seeds import derive_rng
from repro.probability.space import FiniteDistribution
from repro.proofs.statements import ArrowStatement, StateClass

_ACTIONS = ("go", "step", "loop")
_MODES = ("off", "warn", "strict")
_ADVERSARIES = ("first", "cycler")
_MUTATIONS = (None, None, "distribution", "adversary")
_MODEL_MUTATIONS = (None, None, None, "distribution")
_FAULT_SPECS = (None, None, None, "crash=0.5,seed=3", "corrupt=0.5,seed=3")


def generate_case(
    root_seed: int, index: int, model: Optional[str] = None
) -> dict:
    """Case ``index`` of the stream rooted at ``root_seed``.

    Pure function of its arguments: all randomness flows through
    :func:`derive_rng` — never the process-global ``random`` module —
    so the stream is identical across machines, runs, and worker
    counts.  With ``model`` set the case targets that registered
    model's real automaton instead of a synthetic shape; the
    ``model=None`` stream is untouched, so historical campaigns replay
    byte for byte.
    """
    rng = derive_rng(root_seed, "fuzz", "case", index)
    if model is not None:
        return _generate_model_case(rng, model)
    n_states = rng.randint(2, 5)
    states = [f"s{i}" for i in range(n_states)]
    transitions: List[list] = []
    for state in states:
        for _ in range(rng.randint(1, 2)):
            action = rng.choice(_ACTIONS)
            if any(
                t[0] == state and t[1] == action for t in transitions
            ):
                continue
            k = rng.randint(1, min(2, n_states))
            targets = rng.sample(states, k)
            if k == 1:
                weights = [[targets[0], 1, 1]]
            else:
                num = rng.choice((1, 1, 1, 2))
                den = {1: 2, 2: 5}[num] if num == 2 else rng.choice((2, 3, 4))
                weights = [
                    [targets[0], num, den],
                    [targets[1], den - num, den],
                ]
            transitions.append([state, action, weights])
    n_starts = 1 if n_states < 3 else rng.choice((1, 1, 2))
    starts = states[:n_starts]
    target_pool = [s for s in states if s not in starts] or states
    targets = rng.sample(target_pool, rng.randint(1, len(target_pool)))
    case = {
        "seed": rng.randint(0, 2**31 - 1),
        "states": states,
        "starts": starts,
        "targets": sorted(targets),
        "transitions": transitions,
        "samples": rng.randint(2, 6),
        "max_steps": rng.randint(4, 12),
        "guards": rng.choice(_MODES),
        "adversary": rng.choice(_ADVERSARIES),
        "mutation": rng.choice(_MUTATIONS),
        "faults": rng.choice(_FAULT_SPECS),
    }
    if case["mutation"] == "distribution" and not any(
        len(t[2]) > 1 for t in transitions
    ):
        case["mutation"] = None
    return case


def _generate_model_case(rng, model_name: str) -> dict:
    """A case over a registered model's own automaton.

    The automaton shape is the model's — there is nothing to
    randomise there — so the draws cover the harness knobs instead:
    the sampling plan (kept tiny; registered automata dwarf the
    synthetic five-state shapes), the guard mode, which member of the
    model's adversary family runs, and an optional distribution skim
    (:func:`repro.corpus.cases.skimmed_automaton`) standing in for the
    synthetic mutations.
    """
    from repro.models import get_model

    model = get_model(model_name)
    return {
        "model": model.name,
        "n": model.n_default,
        "seed": rng.randint(0, 2**31 - 1),
        "samples": rng.randint(2, 4),
        "max_steps": rng.randint(4, 10),
        "guards": rng.choice(_MODES),
        "adversary_index": rng.randint(0, 7),
        "mutation": rng.choice(_MODEL_MUTATIONS),
    }


def _cycler_adversary() -> RoundRobinAdversary:
    """History-dependent (via the fragment length), hence uncompilable
    by design: the batched engine samples it through its per-pair
    history walk, and the differential harness checks that walk agrees
    with the tree walk."""
    return RoundRobinAdversary()


def _build_automaton(case: dict) -> ExplicitAutomaton:
    mutate = case.get("mutation") == "distribution"
    mutated = False
    steps = []
    for src, action, weights in case["transitions"]:
        pairs = {
            target: Fraction(num, den) for target, num, den in weights
        }
        if mutate and not mutated and len(pairs) > 1:
            first = next(iter(pairs))
            pairs[first] = pairs[first] - Fraction(1, 100)
            steps.append(
                Transition(src, action, cases.smuggled_distribution(pairs))
            )
            mutated = True
            continue
        steps.append(Transition(src, action, FiniteDistribution(pairs)))
    return ExplicitAutomaton(
        states=list(case["states"]),
        start_states=list(case["starts"]),
        signature=ActionSignature(internal=frozenset(_ACTIONS)),
        steps=steps,
    )


def _model_check_case(case: dict) -> CheckCase:
    """Materialise a registry-model fuzz case as a runnable CheckCase.

    Automaton, adversary family, clock, and compile quotient all come
    from the registered model; starts are its canonical states in
    sorted-name order, and the statement is the trivially-true zero
    bound over the model's target region, so a healthy case classifies
    ``ok`` and only the skim mutation can change the outcome.
    """
    from repro.models import get_model

    model = get_model(case["model"])
    n = case["n"]
    skim = case.get("mutation") == "distribution"

    def automaton_factory():
        automaton = model.build(n).automaton
        return cases.skimmed_automaton(automaton) if skim else automaton

    def adversaries_factory():
        family = model.build(n).adversaries
        return (family[case["adversary_index"] % len(family)],)

    canonical = model.canonical_states(n)
    starts = tuple(canonical[name] for name in sorted(canonical))
    source = StateClass(f"{model.name}-start", lambda s: True)
    target = StateClass(f"{model.name}-target", model.target)
    statement = ArrowStatement(source, target, 0, Fraction(0), "fuzz")
    return CheckCase(
        automaton_factory=automaton_factory,
        adversaries_factory=adversaries_factory,
        statement=statement,
        start_states=starts,
        time_of=model.time_of,
        samples=case["samples"],
        max_steps=case["max_steps"],
        seed=case["seed"],
        space_spec=model.build(n).space_spec(),
    )


def check_case_from_dict(case: dict) -> CheckCase:
    """Materialise a serialized fuzz case as a runnable CheckCase."""
    if case.get("model"):
        return _model_check_case(case)
    starts = tuple(case["starts"])
    targets = frozenset(case["targets"])
    source = StateClass("FuzzStart", lambda s, _m=frozenset(starts): s in _m)
    target = StateClass("FuzzTarget", lambda s, _m=targets: s in _m)
    statement = ArrowStatement(source, target, 0, Fraction(0), "fuzz")

    if case.get("mutation") == "adversary":
        adversaries_factory: Callable[[], tuple] = lambda: (
            ("rogue", cases.rogue_adversary()),
        )
    elif case["adversary"] == "cycler":
        adversaries_factory = lambda: (("cycler", _cycler_adversary()),)
    else:
        adversaries_factory = lambda: (("first", FirstEnabledAdversary()),)

    policy_factory = None
    if case.get("faults"):
        spec = case["faults"]

        def policy_factory(_spec=spec) -> RunPolicy:
            # retries=99 >> the degradation threshold: an injected
            # fault storm degrades the pool to inline and completes,
            # keeping the report worker-count-invariant.
            return RunPolicy(retries=99, faults=FaultPlan.parse(_spec))

    return CheckCase(
        automaton_factory=lambda: _build_automaton(case),
        adversaries_factory=adversaries_factory,
        statement=statement,
        start_states=starts,
        samples=case["samples"],
        max_steps=case["max_steps"],
        seed=case["seed"],
        policy_factory=policy_factory,
    )


def _sabotage_classification(cls: Classification) -> Classification:
    """The synthetic divergence: flip one bit of observable output."""
    return Classification(
        status=cls.status,
        detail=cls.detail,
        exit_status=cls.exit_status,
        digest=(cls.digest or "0") + "-sabotaged",
        flagged=cls.flagged,
    )


def diff_case(
    case: dict, *, workers: int = 1, sabotage: Optional[str] = None
) -> Optional[Dict[str, str]]:
    """Run every engine on ``case``; None when all agree.

    On disagreement returns ``{engine: label}`` for the reference
    (tree) label plus every divergent engine's label.  ``sabotage``
    names an engine whose classification is deliberately perturbed —
    the harness's own smoke test.
    """
    check = check_case_from_dict(case)
    mode = case["guards"]
    labels: Dict[str, str] = {}
    for engine in ENGINES:
        cls = classify_check(check, mode=mode, engine=engine, workers=workers)
        if sabotage == engine:
            cls = _sabotage_classification(cls)
        labels[engine] = cls.label
    reference = labels[ENGINES[0]]
    divergent = {
        engine: label
        for engine, label in labels.items()
        if label != reference
    }
    if not divergent:
        return None
    divergent[ENGINES[0]] = reference
    return divergent


def _shrink_candidates(case: dict) -> List[dict]:
    """Simplifying rewrites of ``case``, most aggressive first.

    Deterministically ordered; every candidate is strictly simpler, so
    greedy adoption terminates.
    """
    out: List[dict] = []

    def variant(**changes) -> dict:
        candidate = {key: value for key, value in case.items()}
        candidate.update(changes)
        return candidate

    if case.get("model"):
        # Registry-model cases own their automaton shape — only the
        # harness knobs shrink.
        if case.get("mutation"):
            out.append(variant(mutation=None))
        if case["guards"] != "off":
            out.append(variant(guards="off"))
        if case["adversary_index"] != 0:
            out.append(variant(adversary_index=0))
        if case["samples"] > 1:
            out.append(variant(samples=max(1, case["samples"] // 2)))
        if case["max_steps"] > 1:
            out.append(variant(max_steps=max(1, case["max_steps"] // 2)))
        return out

    if case.get("mutation"):
        out.append(variant(mutation=None))
    if case.get("faults"):
        out.append(variant(faults=None))
    if case["guards"] != "off":
        out.append(variant(guards="off"))
    if case["adversary"] != "first":
        out.append(variant(adversary="first"))
    if case["samples"] > 1:
        out.append(variant(samples=max(1, case["samples"] // 2)))
    if case["max_steps"] > 1:
        out.append(variant(max_steps=max(1, case["max_steps"] // 2)))
    if len(case["starts"]) > 1:
        out.append(variant(starts=case["starts"][:1]))
    if len(case["targets"]) > 1:
        out.append(variant(targets=case["targets"][:1]))
    # Drop the last state (and everything referencing it), keeping
    # starts and at least one target alive.
    if len(case["states"]) > 2:
        last = case["states"][-1]
        if last not in case["starts"]:
            kept_transitions = [
                t
                for t in case["transitions"]
                if t[0] != last
                and all(target != last for target, _, _ in t[2])
            ]
            kept_targets = [t for t in case["targets"] if t != last]
            if kept_transitions and kept_targets:
                out.append(
                    variant(
                        states=case["states"][:-1],
                        transitions=kept_transitions,
                        targets=kept_targets,
                    )
                )
    # Drop each transition in turn (never below one).
    if len(case["transitions"]) > 1:
        for index in range(len(case["transitions"])):
            kept = [
                t
                for i, t in enumerate(case["transitions"])
                if i != index
            ]
            out.append(variant(transitions=kept))
    # Dirac-ify each probabilistic transition.
    for index, (src, action, weights) in enumerate(case["transitions"]):
        if len(weights) > 1:
            rewritten = [t for t in case["transitions"]]
            rewritten[index] = [src, action, [[weights[0][0], 1, 1]]]
            out.append(variant(transitions=rewritten))
    return out


def shrink_case(
    case: dict,
    *,
    workers: int = 1,
    sabotage: Optional[str] = None,
    max_rounds: int = 100,
) -> Tuple[dict, int]:
    """Greedily minimise ``case`` while the divergence survives."""
    steps = 0
    current = case
    for _ in range(max_rounds):
        adopted = False
        for candidate in _shrink_candidates(current):
            if diff_case(candidate, workers=workers, sabotage=sabotage):
                current = candidate
                steps += 1
                obs.incr("fuzz.shrink_steps")
                adopted = True
                break
        if not adopted:
            break
    return current, steps


@dataclass(frozen=True)
class FuzzReport:
    """The outcome of one fuzzing campaign (deterministic, no clocks)."""

    seed: int
    budget: int
    cases_run: int
    findings: Tuple[dict, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "kind": "fuzz_run",
            "seed": self.seed,
            "budget": self.budget,
            "cases": self.cases_run,
            "ok": self.ok,
            "findings": list(self.findings),
        }

    def describe(self) -> str:
        if self.ok:
            return (
                f"fuzz: {self.cases_run} cases x {len(ENGINES)} engines "
                f"(seed {self.seed}): no divergence"
            )
        finding = self.findings[0]
        return (
            f"fuzz: divergence at case {finding['index']} "
            f"(seed {self.seed}); shrunk in "
            f"{finding['shrink_steps']} step(s) — engines "
            f"{sorted(finding['divergence'])} disagree"
        )


def run_fuzz(
    *,
    seed: int,
    budget: int,
    workers: int = 1,
    sabotage: Optional[str] = None,
    model: Optional[str] = None,
) -> FuzzReport:
    """Fuzz ``budget`` cases; stop and shrink at the first divergence.

    ``model`` switches the campaign from the synthetic shapes to a
    registered model's automaton (resolved up front so an unknown name
    fails with the usage error before any case runs).
    """
    if budget < 1:
        raise VerificationError(f"--budget must be >= 1, got {budget}")
    if sabotage is not None and sabotage not in ENGINES:
        raise VerificationError(
            f"--sabotage must name an engine in {ENGINES}, got {sabotage!r}"
        )
    if model is not None:
        from repro.models import get_model

        model = get_model(model).name
    if workers > 1 and not fork_available():
        workers = 1
    findings: List[dict] = []
    cases_run = 0
    for index in range(budget):
        case = generate_case(seed, index, model=model)
        cases_run += 1
        obs.incr("fuzz.cases")
        divergence = diff_case(case, workers=workers, sabotage=sabotage)
        if divergence is None:
            continue
        obs.incr("fuzz.divergences")
        shrunk, steps = shrink_case(
            case, workers=workers, sabotage=sabotage
        )
        final = diff_case(shrunk, workers=workers, sabotage=sabotage)
        findings.append(
            {
                "index": index,
                "case": shrunk,
                "original_case": case,
                "divergence": final or divergence,
                "shrink_steps": steps,
            }
        )
        break
    return FuzzReport(seed, budget, cases_run, tuple(findings))


def corpus_record(finding: dict, *, seed: int) -> dict:
    """A ready-to-commit corpus-file record for one fuzz finding."""
    case = finding["case"]
    return {
        "name": f"fuzz-{seed}-{finding['index']}",
        "description": (
            f"fuzz finding (root seed {seed}, case {finding['index']}, "
            f"shrunk in {finding['shrink_steps']} steps): engines "
            f"{sorted(finding['divergence'])} disagreed"
        ),
        "case": case,
        "workers": [1],
    }

"""Property-based tests (hypothesis) for the core data structures.

These check the algebraic laws the rest of the library leans on:
distribution transformations preserve mass, fragment concatenation and
prefixes interact correctly, event classifiers are monotone along
executions, the statement algebra matches its intended semantics, and
the retry-recursion solver agrees with direct simulation.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automaton.execution import ExecutionFragment
from repro.events.first import FirstOccurrence
from repro.events.next_first import NextFirstOccurrence
from repro.events.reach import (
    EventuallyReach,
    ReachWithinSteps,
    ReachWithinTime,
)
from repro.events.schema import EventStatus
from repro.probability.space import FiniteDistribution
from repro.proofs.expected_time import RetryBranch, RetryRecursion
from repro.proofs.rules import compose, union_rule
from repro.proofs.statements import ArrowStatement, StateClass

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

points = st.integers(min_value=0, max_value=6)


@st.composite
def distributions(draw):
    """A finite distribution over small integers with exact weights."""
    support = draw(st.lists(points, min_size=1, max_size=5, unique=True))
    raw = draw(
        st.lists(
            st.integers(min_value=1, max_value=20),
            min_size=len(support),
            max_size=len(support),
        )
    )
    total = sum(raw)
    return FiniteDistribution(
        {p: Fraction(w, total) for p, w in zip(support, raw)}
    )


@st.composite
def fragments(draw):
    """A small execution fragment over integer states and letter actions."""
    length = draw(st.integers(min_value=0, max_value=6))
    states = draw(
        st.lists(points, min_size=length + 1, max_size=length + 1)
    )
    actions = draw(
        st.lists(
            st.sampled_from(["a", "b", "c"]),
            min_size=length,
            max_size=length,
        )
    )
    return ExecutionFragment(states, actions)


# ----------------------------------------------------------------------
# Distribution laws
# ----------------------------------------------------------------------


@given(distributions())
def test_total_mass_is_one(dist):
    assert sum(w for _, w in dist.items()) == 1


@given(distributions())
def test_map_preserves_mass(dist):
    image = dist.map(lambda x: x % 3)
    assert sum(w for _, w in image.items()) == 1


@given(distributions())
def test_map_composition(dist):
    f = lambda x: x + 1
    g = lambda x: x * 2
    assert dist.map(f).map(g) == dist.map(lambda x: g(f(x)))


@given(distributions(), distributions())
def test_product_marginals(left, right):
    joint = left.product(right)
    for point in left.support:
        marginal = sum(
            (w for (l, _), w in joint.items() if l == point), Fraction(0)
        )
        assert marginal == left[point]


@given(distributions())
def test_conditioning_on_support_is_identity(dist):
    assert dist.condition(dist.support) == dist


@given(distributions())
def test_expectation_of_indicator_is_probability(dist):
    for point in dist.support:
        indicator = lambda x, p=point: 1 if x == p else 0
        assert dist.expectation(indicator) == dist[point]


@given(distributions(), st.integers(min_value=0, max_value=1000))
def test_sampling_lands_in_support(dist, seed):
    rng = random.Random(seed)
    assert dist.sample(rng) in dist.support


# ----------------------------------------------------------------------
# Fragment laws
# ----------------------------------------------------------------------


@given(fragments(), fragments())
def test_concat_defined_iff_endpoints_match(left, right):
    if left.lstate == right.fstate:
        joined = left.concat(right)
        assert len(joined) == len(left) + len(right)
        assert joined.fstate == left.fstate
        assert joined.lstate == right.lstate
    else:
        import pytest

        with pytest.raises(Exception):
            left.concat(right)


@given(fragments())
def test_every_prefix_is_a_prefix(fragment):
    for k in range(len(fragment) + 1):
        prefix = fragment.prefix_of_length(k)
        assert prefix.is_prefix_of(fragment)
        assert prefix.concat(fragment.suffix_after(prefix)) == fragment


@given(fragments(), fragments())
def test_prefix_antisymmetry(a, b):
    if a.is_prefix_of(b) and b.is_prefix_of(a):
        assert a == b


# ----------------------------------------------------------------------
# Event classifier monotonicity
# ----------------------------------------------------------------------


def extensions(fragment, depth=2):
    """All extensions of ``fragment`` by ``depth`` more steps."""
    if depth == 0:
        yield fragment
        return
    for action in ("a", "b"):
        for state in range(3):
            yield from extensions(fragment.extend(action, state), depth - 1)


@given(fragments())
@settings(max_examples=40)
def test_first_occurrence_classifier_is_monotone(fragment):
    schema = FirstOccurrence("a", lambda s: s == 0)
    status = schema.classify(fragment)
    if status is EventStatus.UNDECIDED:
        return
    for extended in extensions(fragment, 2):
        assert schema.classify(extended) is status


@given(fragments())
@settings(max_examples=40)
def test_next_classifier_is_monotone(fragment):
    schema = NextFirstOccurrence(
        [("a", lambda s: s == 0), ("b", lambda s: s == 1)]
    )
    status = schema.classify(fragment)
    if status is EventStatus.UNDECIDED:
        return
    for extended in extensions(fragment, 2):
        assert schema.classify(extended) is status


@given(fragments())
@settings(max_examples=40)
def test_reach_within_steps_accept_is_stable(fragment):
    schema = ReachWithinSteps(lambda s: s == 0, 3)
    if schema.classify(fragment) is EventStatus.ACCEPT:
        for extended in extensions(fragment, 2):
            assert schema.classify(extended) is EventStatus.ACCEPT


def _hit(state):
    return state % 5 == 0


@st.composite
def reach_schemas(draw):
    """A reach schema with a drawn bound.  The clock reads each state
    as its time, so times are not monotone and a late state can be a
    target state too."""
    bound = draw(st.integers(min_value=0, max_value=4))
    return draw(st.sampled_from([
        ReachWithinTime(_hit, bound, Fraction),
        ReachWithinSteps(_hit, bound),
        EventuallyReach(_hit),
    ]))


@given(fragments(), reach_schemas())
@settings(max_examples=150)
def test_classify_step_agrees_after_undecided_prefixes(fragment, schema):
    prefix = ExecutionFragment.initial(fragment.fstate)
    for action, state in zip(fragment.actions, fragment.states[1:]):
        if schema.classify(prefix) is not EventStatus.UNDECIDED:
            return
        prefix = prefix.extend(action, state)
        assert schema.classify_step(prefix) is schema.classify(prefix)


# ----------------------------------------------------------------------
# Statement algebra
# ----------------------------------------------------------------------

names = st.sampled_from(["A", "B", "C", "D"])


@st.composite
def state_classes(draw):
    chosen = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    result = _atom(chosen[0])
    for name in chosen[1:]:
        result = result | _atom(name)
    return result


_ATOMS = {}


def _atom(name):
    if name not in _ATOMS:
        _ATOMS[name] = StateClass(name, lambda s: False)
    return _ATOMS[name]


@given(state_classes(), state_classes())
def test_union_commutes(a, b):
    assert (a | b) == (b | a)


@given(state_classes(), state_classes(), state_classes())
def test_union_associates(a, b, c):
    assert ((a | b) | c) == (a | (b | c))


@given(state_classes())
def test_union_idempotent(a):
    assert (a | a) == a


@st.composite
def arrows(draw, source=None, target=None):
    src = source if source is not None else draw(state_classes())
    tgt = target if target is not None else draw(state_classes())
    t = draw(st.integers(min_value=0, max_value=20))
    numerator = draw(st.integers(min_value=0, max_value=8))
    return ArrowStatement(src, tgt, t, Fraction(numerator, 8), "S")


@given(st.data())
def test_compose_arithmetic(data):
    mid = data.draw(state_classes())
    first = data.draw(arrows(target=mid))
    second = data.draw(arrows(source=mid))
    composed = compose(first, second)
    assert composed.time_bound == first.time_bound + second.time_bound
    assert composed.probability == first.probability * second.probability


@given(arrows(), state_classes())
def test_union_rule_preserves_bounds(statement, extra):
    lifted = union_rule(statement, extra)
    assert lifted.time_bound == statement.time_bound
    assert lifted.probability == statement.probability
    assert statement.source.is_subset_by_atoms(lifted.source)
    assert statement.target.is_subset_by_atoms(lifted.target)


# ----------------------------------------------------------------------
# Retry recursion vs simulation
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=20, deadline=None)
def test_recursion_matches_simulation(success_tenths, t_success, t_fail, seed):
    p = Fraction(success_tenths, 10)
    recursion = RetryRecursion(
        [
            RetryBranch.of(p, t_success, retries=False),
            RetryBranch.of(1 - p, t_fail, retries=True),
        ]
    )
    exact = float(recursion.solve())
    rng = random.Random(seed)
    runs = 4000
    total = 0.0
    for _ in range(runs):
        time = 0.0
        while True:
            if rng.random() < float(p):
                time += t_success
                break
            time += t_fail
        total += time
    # Standard error scales with t_fail/p; allow a generous band.
    slack = 0.4 + 4.0 * (t_fail + t_success + 1) / (float(p) * (runs ** 0.5))
    assert abs(total / runs - exact) < slack

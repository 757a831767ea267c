"""Unit tests for finite probability spaces."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.errors import ProbabilityError
from repro.probability.space import FiniteDistribution, ProbabilitySpace, as_fraction


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ProbabilityError):
            FiniteDistribution({"a": Fraction(1, 2), "b": Fraction(1, 4)})

    def test_negative_weight_rejected(self):
        with pytest.raises(ProbabilityError):
            FiniteDistribution({"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_empty_support_rejected(self):
        with pytest.raises(ProbabilityError):
            FiniteDistribution({})

    def test_zero_weights_dropped_from_support(self):
        dist = FiniteDistribution({"a": 1, "b": 0})
        assert dist.support == frozenset({"a"})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ProbabilityError):
            FiniteDistribution({"a": 0, "b": 0})

    def test_duplicate_points_merge(self):
        dist = FiniteDistribution.from_pairs(
            [("a", Fraction(1, 2)), ("a", Fraction(1, 4)), ("b", Fraction(1, 4))]
        )
        assert dist["a"] == Fraction(3, 4)

    def test_float_weights_become_exact(self):
        dist = FiniteDistribution({"a": 0.5, "b": 0.5})
        assert dist["a"] == Fraction(1, 2)

    def test_string_weights_accepted(self):
        dist = FiniteDistribution({"a": "1/3", "b": "2/3"})
        assert dist["a"] == Fraction(1, 3)

    def test_probability_space_alias(self):
        assert ProbabilitySpace is FiniteDistribution


class TestConstructors:
    def test_dirac_support_and_mass(self):
        dist = FiniteDistribution.dirac("x")
        assert dist.support == frozenset({"x"})
        assert dist["x"] == 1

    def test_dirac_is_dirac(self):
        assert FiniteDistribution.dirac(42).is_dirac()

    def test_the_point_of_dirac(self):
        assert FiniteDistribution.dirac(42).the_point() == 42

    @pytest.mark.parametrize("point", ["x", 42, ("a", 1), None])
    def test_dirac_equals_the_validated_point_mass(self, point):
        # dirac skips the validating constructor; it must build the
        # same value that constructor builds.
        fast = FiniteDistribution.dirac(point)
        slow = FiniteDistribution({point: 1})
        assert fast == slow and hash(fast) == hash(slow)
        assert repr(fast) == repr(slow)
        assert list(fast.items()) == list(slow.items())
        assert type(fast) is FiniteDistribution and fast.is_dirac()
        assert isinstance(fast[point], Fraction)

    def test_no_subclass_needs_the_skipped_constructor(self):
        assert FiniteDistribution.__subclasses__() == []

    def test_the_point_rejects_non_dirac(self):
        with pytest.raises(ProbabilityError):
            FiniteDistribution.uniform([1, 2]).the_point()

    def test_uniform_weights(self):
        dist = FiniteDistribution.uniform(["a", "b", "c", "d"])
        assert all(dist[x] == Fraction(1, 4) for x in "abcd")

    def test_uniform_empty_rejected(self):
        with pytest.raises(ProbabilityError):
            FiniteDistribution.uniform([])

    def test_uniform_merges_duplicates(self):
        dist = FiniteDistribution.uniform(["a", "a", "b"])
        assert dist["a"] == Fraction(2, 3)

    def test_bernoulli_default_fair(self):
        dist = FiniteDistribution.bernoulli("h", "t")
        assert dist["h"] == Fraction(1, 2)
        assert dist["t"] == Fraction(1, 2)

    def test_bernoulli_biased(self):
        dist = FiniteDistribution.bernoulli("h", "t", Fraction(1, 3))
        assert dist["h"] == Fraction(1, 3)
        assert dist["t"] == Fraction(2, 3)


class TestMeasure:
    def test_point_probability(self):
        dist = FiniteDistribution({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        assert dist.probability("a") == Fraction(1, 3)

    def test_missing_point_probability_zero(self):
        dist = FiniteDistribution.dirac("a")
        assert dist.probability("zzz") == 0
        assert dist["zzz"] == 0

    def test_set_probability(self):
        dist = FiniteDistribution.uniform([1, 2, 3, 4])
        assert dist.probability({1, 2}) == Fraction(1, 2)

    def test_list_probability_deduplicates(self):
        dist = FiniteDistribution.uniform([1, 2, 3, 4])
        assert dist.probability([1, 1, 2]) == Fraction(1, 2)

    def test_predicate_probability(self):
        dist = FiniteDistribution.uniform([1, 2, 3, 4])
        assert dist.probability(lambda x: x % 2 == 0) == Fraction(1, 2)

    def test_full_support_probability_is_one(self):
        dist = FiniteDistribution.uniform(["a", "b", "c"])
        assert dist.probability(dist.support) == 1

    def test_contains_and_iter_and_len(self):
        dist = FiniteDistribution.uniform([1, 2])
        assert 1 in dist and 3 not in dist
        assert sorted(dist) == [1, 2]
        assert len(dist) == 2

    def test_items_sum_to_one(self):
        dist = FiniteDistribution.uniform(range(7))
        assert sum(w for _, w in dist.items()) == 1


class TestTransformations:
    def test_map_pushforward(self):
        dist = FiniteDistribution.uniform([1, 2, 3, 4])
        image = dist.map(lambda x: x % 2)
        assert image[0] == Fraction(1, 2)
        assert image[1] == Fraction(1, 2)

    def test_map_preserves_total_mass(self):
        dist = FiniteDistribution({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        image = dist.map(lambda _: "z")
        assert image["z"] == 1

    def test_product_measure(self):
        left = FiniteDistribution.bernoulli("h", "t")
        right = FiniteDistribution.bernoulli("H", "T", Fraction(1, 3))
        joint = left.product(right)
        assert joint[("h", "H")] == Fraction(1, 6)
        assert joint[("t", "T")] == Fraction(1, 3)

    def test_condition(self):
        dist = FiniteDistribution.uniform([1, 2, 3, 4])
        conditioned = dist.condition(lambda x: x <= 2)
        assert conditioned[1] == Fraction(1, 2)
        assert conditioned[3] == 0

    def test_condition_on_set(self):
        dist = FiniteDistribution.uniform([1, 2, 3, 4])
        conditioned = dist.condition({4})
        assert conditioned.is_dirac() and conditioned.the_point() == 4

    def test_condition_null_event_rejected(self):
        dist = FiniteDistribution.uniform([1, 2])
        with pytest.raises(ProbabilityError):
            dist.condition(lambda x: x > 10)

    def test_expectation(self):
        dist = FiniteDistribution.uniform([1, 2, 3, 4])
        assert dist.expectation(lambda x: x) == Fraction(5, 2)

    def test_convex_combination(self):
        a = FiniteDistribution.dirac("x")
        b = FiniteDistribution.dirac("y")
        mixed = FiniteDistribution.convex([(a, Fraction(1, 4)), (b, Fraction(3, 4))])
        assert mixed["x"] == Fraction(1, 4)
        assert mixed["y"] == Fraction(3, 4)

    def test_convex_requires_unit_mass(self):
        a = FiniteDistribution.dirac("x")
        with pytest.raises(ProbabilityError):
            FiniteDistribution.convex([(a, Fraction(1, 2))])

    def test_convex_rejects_negative_coefficient(self):
        a = FiniteDistribution.dirac("x")
        b = FiniteDistribution.dirac("y")
        with pytest.raises(ProbabilityError):
            FiniteDistribution.convex(
                [(a, Fraction(3, 2)), (b, Fraction(-1, 2))]
            )


class TestSampling:
    def test_sampling_is_seed_deterministic(self):
        dist = FiniteDistribution.uniform(range(10))
        first = [dist.sample(random.Random(7)) for _ in range(5)]
        second = [dist.sample(random.Random(7)) for _ in range(5)]
        assert first == second

    def test_sample_stays_in_support(self):
        dist = FiniteDistribution({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        rng = random.Random(0)
        assert all(dist.sample(rng) in dist.support for _ in range(100))

    def test_sample_frequency_roughly_matches(self):
        dist = FiniteDistribution.bernoulli(1, 0, Fraction(3, 4))
        rng = random.Random(1)
        hits = sum(dist.sample(rng) for _ in range(4000))
        assert 0.70 < hits / 4000 < 0.80

    def test_dirac_sampling_is_constant(self):
        dist = FiniteDistribution.dirac("only")
        rng = random.Random(2)
        assert all(dist.sample(rng) == "only" for _ in range(10))


class TestValueSemantics:
    def test_equality_by_weights(self):
        a = FiniteDistribution({"x": Fraction(1, 2), "y": Fraction(1, 2)})
        b = FiniteDistribution.uniform(["x", "y"])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = FiniteDistribution.bernoulli("x", "y")
        b = FiniteDistribution.bernoulli("x", "y", Fraction(1, 3))
        assert a != b

    def test_usable_as_dict_key(self):
        a = FiniteDistribution.dirac("x")
        table = {a: "hit"}
        assert table[FiniteDistribution.dirac("x")] == "hit"

    def test_repr_is_stable(self):
        a = FiniteDistribution.uniform(["b", "a"])
        assert repr(a) == repr(FiniteDistribution.uniform(["a", "b"]))


class TestAsFraction:
    def test_int(self):
        assert as_fraction(1) == Fraction(1)

    def test_float_common_literal(self):
        assert as_fraction(0.25) == Fraction(1, 4)

    def test_string(self):
        assert as_fraction("7/8") == Fraction(7, 8)

    def test_fraction_passthrough(self):
        f = Fraction(3, 7)
        assert as_fraction(f) is f

    def test_rejects_other_types(self):
        with pytest.raises(ProbabilityError):
            as_fraction(object())

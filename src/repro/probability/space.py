"""Finite probability spaces ``(Omega, 2^Omega, P)``.

Definition 2.1 of the paper requires every transition target to be a
probability space ``(Omega, F, P)`` with ``Omega`` a subset of the state
set and ``F = 2^Omega``.  Because ``F`` is the full power set, a finite
probability space is determined by a weight function on its sample
points; this module implements exactly that, with exact
:class:`fractions.Fraction` arithmetic so that the proof machinery in
:mod:`repro.proofs` never accumulates floating-point error.

The canonical class is :class:`FiniteDistribution`.  The alias
:class:`ProbabilitySpace` is provided because the paper speaks of
"probability spaces"; they are the same object here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.errors import ProbabilityError

T = TypeVar("T", bound=Hashable)
S = TypeVar("S", bound=Hashable)

#: Values accepted wherever a probability is expected.  They are
#: normalised to :class:`fractions.Fraction` on construction.
ProbabilityLike = Union[int, float, Fraction, str]

_ONE = Fraction(1)


def as_fraction(value: ProbabilityLike) -> Fraction:
    """Convert a user-supplied probability value to an exact fraction.

    Floats are converted via :meth:`Fraction.limit_denominator` with a
    large bound so that common literals like ``0.5`` or ``0.25`` map to
    the exact rational the author intended, while still accepting
    arbitrary floats.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    raise ProbabilityError(f"cannot interpret {value!r} as a probability")


class FiniteDistribution(Generic[T]):
    """An immutable finite probability space ``(Omega, 2^Omega, P)``.

    ``Omega`` is the support: every sample point stored has strictly
    positive probability, and the probabilities sum exactly to one.

    Instances are hashable and comparable by value, so distributions can
    be used as dictionary keys (the execution-automaton construction
    relies on this).
    """

    __slots__ = ("_weights", "_hash")

    def __init__(self, weights: Mapping[T, ProbabilityLike]):
        cleaned: Dict[T, Fraction] = {}
        for point, raw in weights.items():
            weight = as_fraction(raw)
            if weight < 0:
                raise ProbabilityError(
                    f"negative probability {weight} for sample point {point!r}"
                )
            if weight == 0:
                continue
            cleaned[point] = cleaned.get(point, Fraction(0)) + weight
        if not cleaned:
            raise ProbabilityError("a probability space needs a nonempty support")
        total = sum(cleaned.values())
        if total != 1:
            raise ProbabilityError(f"probabilities sum to {total}, expected 1")
        self._weights: Dict[T, Fraction] = cleaned
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def dirac(cls, point: T) -> "FiniteDistribution[T]":
        """The point mass (Dirac) distribution at ``point``.

        Non-probabilistic steps of an automaton are modelled as Dirac
        distributions; the paper's time-passage steps are an example.
        Built directly, without the validating constructor: a single
        point of weight one is a valid space by construction, and every
        compile builds one per deterministic step.
        """
        dist = cls.__new__(cls)
        dist._weights = {point: _ONE}
        dist._hash = None
        return dist

    @classmethod
    def uniform(cls, points: Iterable[T]) -> "FiniteDistribution[T]":
        """The uniform distribution over ``points`` (duplicates merge)."""
        points = list(points)
        if not points:
            raise ProbabilityError("uniform distribution over an empty set")
        weight = Fraction(1, len(points))
        weights: Dict[T, Fraction] = {}
        for point in points:
            weights[point] = weights.get(point, Fraction(0)) + weight
        return cls(weights)

    @classmethod
    def bernoulli(
        cls, success: T, failure: T, p: ProbabilityLike = Fraction(1, 2)
    ) -> "FiniteDistribution[T]":
        """A two-point distribution: ``success`` with probability ``p``.

        The fair-coin flips of the Lehmann-Rabin algorithm are
        ``bernoulli(LEFT, RIGHT)``.
        """
        p = as_fraction(p)
        return cls({success: p, failure: 1 - p})

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[T, ProbabilityLike]]
    ) -> "FiniteDistribution[T]":
        """Build a distribution from ``(point, weight)`` pairs."""
        weights: Dict[T, Fraction] = {}
        for point, raw in pairs:
            weight = as_fraction(raw)
            weights[point] = weights.get(point, Fraction(0)) + weight
        return cls(weights)

    # ------------------------------------------------------------------
    # The probability measure
    # ------------------------------------------------------------------

    @property
    def support(self) -> frozenset:
        """``Omega``: the set of sample points with positive probability."""
        return frozenset(self._weights)

    def probability(self, event: Union[T, Iterable[T], Callable[[T], bool]]) -> Fraction:
        """``P[event]`` for a point, a set of points, or a predicate.

        Because ``F = 2^Omega``, every subset of the support is
        measurable; a predicate denotes the subset of points satisfying
        it.
        """
        if callable(event) and not isinstance(event, Hashable):
            return sum(
                (w for point, w in self._weights.items() if event(point)),
                Fraction(0),
            )
        if callable(event):
            # A hashable callable could in principle also be a sample
            # point; prefer the point interpretation when it is in the
            # support, mirroring how states (often tuples) are queried.
            if event in self._weights:
                return self._weights[event]
            return sum(
                (w for point, w in self._weights.items() if event(point)),
                Fraction(0),
            )
        if isinstance(event, Hashable) and event in self._weights:
            return self._weights[event]
        if isinstance(event, (set, frozenset, list, tuple)):
            unique = set(event)
            return sum(
                (w for point, w in self._weights.items() if point in unique),
                Fraction(0),
            )
        return Fraction(0)

    def __getitem__(self, point: T) -> Fraction:
        return self._weights.get(point, Fraction(0))

    def __contains__(self, point: T) -> bool:
        return point in self._weights

    def __iter__(self) -> Iterator[T]:
        return iter(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def items(self) -> Iterator[Tuple[T, Fraction]]:
        """Iterate over ``(point, probability)`` pairs."""
        return iter(self._weights.items())

    def is_dirac(self) -> bool:
        """True if this distribution is a point mass."""
        return len(self._weights) == 1

    def the_point(self) -> T:
        """The unique sample point of a Dirac distribution."""
        if not self.is_dirac():
            raise ProbabilityError("the_point() on a non-Dirac distribution")
        return next(iter(self._weights))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def map(self, f: Callable[[T], S]) -> "FiniteDistribution[S]":
        """Push-forward along ``f`` (image measure).

        Used by the execution-automaton construction, where a step of
        ``M`` from ``lstate(alpha)`` is lifted to a step of ``H`` whose
        sample points are the extended fragments ``alpha a s``
        (Definition 2.3, condition 2).
        """
        weights: Dict[S, Fraction] = {}
        for point, weight in self._weights.items():
            image = f(point)
            weights[image] = weights.get(image, Fraction(0)) + weight
        return FiniteDistribution(weights)

    def product(
        self, other: "FiniteDistribution[S]"
    ) -> "FiniteDistribution[Tuple[T, S]]":
        """The independent product measure on ``Omega1 x Omega2``."""
        weights: Dict[Tuple[T, S], Fraction] = {}
        for p1, w1 in self._weights.items():
            for p2, w2 in other._weights.items():
                weights[(p1, p2)] = w1 * w2
        return FiniteDistribution(weights)

    def condition(
        self, event: Union[Iterable[T], Callable[[T], bool]]
    ) -> "FiniteDistribution[T]":
        """The conditional distribution ``P[. | event]``.

        Raises :class:`ProbabilityError` when the event has probability
        zero, as conditioning is then undefined.
        """
        if callable(event):
            selected = {p: w for p, w in self._weights.items() if event(p)}
        else:
            unique = set(event)
            selected = {p: w for p, w in self._weights.items() if p in unique}
        total = sum(selected.values(), Fraction(0))
        if total == 0:
            raise ProbabilityError("conditioning on a null event")
        return FiniteDistribution({p: w / total for p, w in selected.items()})

    def expectation(self, f: Callable[[T], ProbabilityLike]) -> Fraction:
        """``E[f]`` with exact rational arithmetic."""
        return sum(
            (as_fraction(f(point)) * weight for point, weight in self._weights.items()),
            Fraction(0),
        )

    @staticmethod
    def convex(
        parts: Iterable[Tuple["FiniteDistribution[T]", ProbabilityLike]]
    ) -> "FiniteDistribution[T]":
        """The convex combination ``sum_i c_i * mu_i``.

        The coefficients must sum to one; this is how the measure over a
        two-stage experiment (choose a branch, then sample) flattens.
        """
        weights: Dict[T, Fraction] = {}
        total = Fraction(0)
        for dist, raw in parts:
            coefficient = as_fraction(raw)
            if coefficient < 0:
                raise ProbabilityError("negative convex coefficient")
            total += coefficient
            for point, weight in dist._weights.items():
                weights[point] = weights.get(point, Fraction(0)) + coefficient * weight
        if total != 1:
            raise ProbabilityError(f"convex coefficients sum to {total}, expected 1")
        return FiniteDistribution(weights)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self, rng: random.Random) -> T:
        """Draw one sample point using ``rng``.

        The Monte-Carlo verifier threads an explicit
        :class:`random.Random` through every draw so that experiments
        are reproducible from a seed.
        """
        threshold = rng.random()
        cumulative = 0.0
        last = None
        for point, weight in self._weights.items():
            cumulative += float(weight)
            last = point
            if threshold < cumulative:
                return point
        # Floating point may leave a sliver below 1.0; the final point
        # absorbs it.
        return last  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._weights.items()))
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{point!r}: {weight}" for point, weight in sorted(
                self._weights.items(), key=lambda kv: repr(kv[0])
            )
        )
        return f"FiniteDistribution({{{inside}}})"


#: The paper's name for the same object.
ProbabilitySpace = FiniteDistribution

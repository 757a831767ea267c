"""Ring symmetries as compile-time quotients, for any ring model.

A ring model's states expose ``n``, ``rotated(k)`` (process ``i``
relabelled to ``i - k``) and ``reflected()`` (the ring mirrored).  The
model supplies one *letter function*: the state as a comparable word,
one letter per index, such that rotating the state by ``k`` rotates the
word by ``k`` and the word determines the untimed state.  Equal least
words then mean equal canonical states, so the canonical maps below are
well defined on orbits whichever ``k`` attains the minimum.

States are canonicalised to the lexicographically least group image
before interning: the rotation quotient shrinks the reachable space by
a factor approaching ``n``, the dihedral one by a factor approaching
``2n``.  Whether a quotient is sound for a model's dynamics, predicates
and adversaries is that model's claim, argued in its own symmetry
module (see ``docs/models.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Tuple

from repro.statespace.compile import SpaceSpec, untimed_spec


def _least_rotation(word: Tuple) -> Tuple[int, Tuple]:
    """``(k, word rotated by k)`` minimising the rotated word."""
    n = len(word)
    doubled = word + word
    best_k = 0
    best = word
    for k in range(1, n):
        candidate = doubled[k : k + n]
        if candidate < best:
            best = candidate
            best_k = k
    return best_k, best


def rotation_orbit(state) -> Tuple:
    """Every rotation of ``state`` (duplicates for symmetric states)."""
    return tuple(state.rotated(k) for k in range(state.n))


def symmetry_orbit(state) -> Tuple:
    """All ``2n`` dihedral images of ``state`` (duplicates possible)."""
    mirrored = state.reflected()
    return tuple(state.rotated(k) for k in range(state.n)) + tuple(
        mirrored.rotated(k) for k in range(state.n)
    )


@dataclass(frozen=True)
class RingQuotient:
    """The rotation and dihedral quotients of one ring model."""

    #: The model's letter function (see the module docstring).
    letters: Callable[[object], Tuple]
    #: The model's clock, for the untimed quotient both specs refine.
    time_of: Callable[[object], Fraction]

    def canonical_rotation(self, state):
        """The lexicographically least rotation of ``state`` (clock
        kept)."""
        k, _ = _least_rotation(self.letters(state))
        return state.rotated(k)

    def canonical_symmetry(self, state):
        """The least dihedral image of ``state``: rotations and
        mirrors."""
        k, best = _least_rotation(self.letters(state))
        mirrored = state.reflected()
        mk, mbest = _least_rotation(self.letters(mirrored))
        if mbest < best:
            return mirrored.rotated(mk)
        return state.rotated(k)

    def rotation_spec(self) -> SpaceSpec:
        """The untimed quotient composed with the rotation quotient."""
        return replace(
            untimed_spec(self.time_of),
            canonical=self.canonical_rotation,
            orbit=rotation_orbit,
        )

    def symmetry_spec(self) -> SpaceSpec:
        """The untimed quotient composed with the dihedral quotient."""
        return replace(
            untimed_spec(self.time_of),
            canonical=self.canonical_symmetry,
            orbit=symmetry_orbit,
        )

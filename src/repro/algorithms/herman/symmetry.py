"""Herman's ring symmetries as compile-time quotients.

Herman's protocol is invariant under **rotation**: relabelling process
``i`` to ``i - k`` preserves left-neighbour adjacency and orientation,
so it maps transitions to transitions with identical probabilities and
time advances — rotation is a strict automorphism of the directed
dynamics.

**Reflection** is subtler than in Lehmann-Rabin: the mirror reverses
the ring's orientation, and Herman's update rule is directional (every
process reads its *left* neighbour), so reflection composed with one
round is one round of the *mirror-image* protocol, not of the original.
Reflection does preserve the token structure (the token at ``i`` maps
to a token at ``1 - i``) and therefore every shipped predicate — token
count, stability, the ``Top``/``Reduced`` regions — is constant on
dihedral orbits, which is exactly what the quotient-invariance spot
check of ``CompiledSpace.flags`` probes.  As with the Lehmann-Rabin
dihedral quotient, the full quotient is sound for quotient-level
analyses over symmetry-invariant predicates, while per-adversary
sampling keeps the exact untimed quotient of
``ExperimentSetup.space_spec`` (docs/models.md spells out the
contract).  The quotients
themselves are the generic :class:`~repro.statespace.ring.RingQuotient`
over Herman's letter function.
"""

from __future__ import annotations

from typing import Tuple

from repro.algorithms.herman.automaton import herman_time_of
from repro.algorithms.herman.state import HermanState
from repro.statespace.ring import RingQuotient, rotation_orbit, symmetry_orbit

__all__ = [
    "canonical_rotation", "canonical_symmetry", "ring_symmetry_spec",
    "rotation_orbit", "rotation_space_spec", "symmetry_orbit",
]

_COMMIT_LETTERS = {None: 2, 0: 0, 1: 1}


def _ring_word(state: HermanState) -> Tuple[Tuple[int, int], ...]:
    """The letter function of :mod:`repro.statespace.ring`: letter
    ``j`` packs ``(bits[j], commits[j])``, with ``None`` mapped above
    the bit values."""
    return tuple(
        (bit, _COMMIT_LETTERS[commit])
        for bit, commit in zip(state.bits, state.commits)
    )


_RING = RingQuotient(_ring_word, herman_time_of)
canonical_rotation = _RING.canonical_rotation
canonical_symmetry = _RING.canonical_symmetry
#: Exact for the automaton and for rotation-invariant predicates:
#: rotation is a strict automorphism of the directed dynamics.
rotation_space_spec = _RING.rotation_spec
#: Quotient-level analyses over symmetry-invariant predicates only;
#: reflection reverses the update rule's orientation.
ring_symmetry_spec = _RING.symmetry_spec

"""The ring's symmetries as compile-time quotients.

The Lehmann-Rabin automaton is invariant under the full dihedral group
of the ring:

* **rotation** — relabelling process ``i`` to ``i - k`` and resource
  ``Res_i`` to ``Res_{i-k}`` (the same offset, so each process keeps
  its left/right resources) maps transitions to transitions with
  identical probabilities and time advances;
* **reflection** — mirroring the ring while swapping every ``u_i``
  (a mirrored process's left is the original's right); the protocol
  itself is left/right symmetric — ``flip`` draws a side uniformly and
  every other rule is phrased in terms of ``u_i`` and ``opp`` — so the
  mirror is an automorphism too (the cross-quotient suite re-verifies
  this bisimulation property on every run).

Every region predicate of Section 6.2 (``in_trying``, ``in_critical``,
...) is an exists/forall over processes and is therefore constant on
symmetry orbits.

This module packages the symmetries as :class:`SpaceSpec` quotients
through the generic :class:`~repro.statespace.ring.RingQuotient`; only
the letter function is Lehmann-Rabin's.  The full ring (dihedral)
quotient fits the n=5 ring (233,980 rotation classes, 116,990 dihedral
classes) inside the default 200,000-state budget, making
``exact_reach`` and MDP value iteration feasible there.

Soundness caveat (documented in ``docs/statespace.md``): the quotient
is exact for the *automaton* and for symmetry-invariant predicates, but
a concrete adversary is only preserved when its policy is equivariant.
The shipped policies (fifo, obstructionist, ...) break ties by process
index and are not; per-adversary *sampling* therefore keeps the exact
untimed quotient of ``ExperimentSetup.space_spec`` while these specs
serve quotient-level analyses — reachable-space measurement, region
flags, and feasibility studies where the policy acting on canonical
representatives is itself the object of study.
"""

from __future__ import annotations

from typing import Tuple

from repro.algorithms.lehmann_rabin.automaton import lr_time_of
from repro.algorithms.lehmann_rabin.state import LRState
from repro.statespace.ring import RingQuotient, rotation_orbit, symmetry_orbit

__all__ = [
    "canonical_rotation", "canonical_symmetry", "ring_symmetry_spec",
    "rotation_orbit", "rotation_space_spec", "symmetry_orbit",
]


def _ring_word(state: LRState) -> Tuple[Tuple[str, str, bool], ...]:
    """The letter function of :mod:`repro.statespace.ring`: letter
    ``j`` packs ``(pc_j, u_j, Res_j)``, so the word determines
    ``(processes, resources)`` outright."""
    return tuple(
        (p.pc.value, p.u.value, r)
        for p, r in zip(state.processes, state.resources)
    )


_RING = RingQuotient(_ring_word, lr_time_of)
canonical_rotation = _RING.canonical_rotation
canonical_symmetry = _RING.canonical_symmetry
#: For quotient-level analyses only (the equivariance caveat above).
rotation_space_spec = _RING.rotation_spec
#: The strongest shipped quotient: ~``2n``-fold reduction, same caveat.
ring_symmetry_spec = _RING.symmetry_spec

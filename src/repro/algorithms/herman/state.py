"""States of Herman's self-stabilizing token ring.

Herman's protocol (Herman 1990, "Probabilistic self-stabilization")
runs on a unidirectional ring of an odd number ``n`` of processes, each
holding one bit.  Process ``i`` *has a token* exactly when its bit
equals its left neighbour's (``bits[i] == bits[i-1]``); the number of
tokens is therefore odd and never increases.  Each synchronous round
every token holder re-randomizes its bit with a (possibly biased) coin
while every other process copies its left neighbour; adjacent tokens
merge, and the ring self-stabilizes to the legal single-token
configuration with probability one.

The paper's framework is asynchronous, so the synchronous round is
encoded the same way the leader election encodes its coin rounds: each
process *commits* its next bit against the round-start snapshot, and
the last committer releases the barrier by installing the committed
bits as the new configuration.  ``time`` advances only through explicit
``TIME_PASSAGE`` steps, as everywhere else in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from repro.errors import AutomatonError


@dataclass(frozen=True)
class HermanState:
    """One configuration of the ring: bits, pending commits, clock.

    ``bits[i]`` is process ``i``'s current bit; ``commits[i]`` is the
    bit it has committed for the next configuration this round, or
    ``None`` while it has not moved yet.  A state never has *every*
    commit filled: the transition that fills the last slot immediately
    installs the committed bits and clears the slate (the barrier
    release), so full-commit configurations are not reachable.
    """

    bits: Tuple[int, ...]
    commits: Tuple[Optional[int], ...]
    time: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        n = len(self.bits)
        if n < 3 or n % 2 == 0:
            raise AutomatonError(
                f"Herman's ring needs an odd number of processes >= 3, "
                f"got {n}"
            )
        if len(self.commits) != n:
            raise AutomatonError(
                f"{n} processes but {len(self.commits)} commit slots"
            )
        if any(bit not in (0, 1) for bit in self.bits):
            raise AutomatonError(f"bits must be 0 or 1, got {self.bits!r}")
        if any(c not in (None, 0, 1) for c in self.commits):
            raise AutomatonError(
                f"commits must be None, 0, or 1, got {self.commits!r}"
            )

    @property
    def n(self) -> int:
        return len(self.bits)

    def untimed(self) -> Tuple[Tuple[int, ...], Tuple[Optional[int], ...]]:
        """The state up to the clock — the compile interning key."""
        return (self.bits, self.commits)

    def advanced(self, amount: Fraction) -> "HermanState":
        """The same configuration with the clock moved forward."""
        return HermanState(self.bits, self.commits, self.time + amount)

    def committed(self, i: int, bit: int) -> "HermanState":
        """Process ``i`` commits ``bit``; the last committer releases.

        Mirrors the election's resolution barrier: when every other
        slot is already filled, the new configuration is installed
        atomically in the same step and the commit slate clears.
        """
        if self.commits[i] is not None:
            raise AutomatonError(f"process {i} has already committed")
        commits = self.commits[:i] + (bit,) + self.commits[i + 1:]
        if all(c is not None for c in commits):
            return HermanState(tuple(commits), (None,) * self.n, self.time)
        return HermanState(self.bits, commits, self.time)

    def __repr__(self) -> str:
        slots = "".join(
            "." if c is None else str(c) for c in self.commits
        )
        word = "".join(str(bit) for bit in self.bits)
        return f"Herman({word}|{slots} t={self.time})"


def herman_fresh_state(
    bits: Tuple[int, ...], time: Fraction = Fraction(0)
) -> HermanState:
    """A round-fresh configuration: no commits pending."""
    return HermanState(tuple(bits), (None,) * len(bits), time)

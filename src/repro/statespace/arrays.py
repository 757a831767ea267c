"""CSR-flattened adversary tables and block-buffered uniform streams.

:class:`~repro.statespace.product.AdversaryTable` stores one tuple of
outcomes per product node; walking it costs a tuple indexing chain and
an ``enumerate`` allocation per step.  :func:`flatten_table` repacks a
table into :class:`FlatTable` — contiguous parallel lists in CSR form
(``offsets[i]:offsets[i+1]`` slices shared ``targets`` / ``cum`` /
``deltas`` arrays) with the target flag and halt bit hoisted per node —
so the batched engine's inner loop touches only flat list indexing.

Two further accelerations live here, both *exactly* draw-preserving:

* **Chain compression** — a node with a single outcome consumes one
  uniform and moves on deterministically.  Runs of such nodes (between
  coin flips, the vast majority of Lehmann-Rabin steps) are memoised as
  ``(skip_steps, skip_to, skip_total)`` so the walk advances a whole
  run in O(1) while consuming exactly ``skip_steps`` uniforms, exactly
  the floats the stepwise walk would have read and discarded against
  cumulative weight 1.0.  Only runs whose every time advance is
  nonnegative are compressed: prefix sums of the run's elapsed time are
  then bounded by ``skip_total``, so a single comparison proves no
  intermediate state crossed the time bound.
* **Block-buffered uniforms** — :class:`UniformSource` fills a block of
  uniforms at a time with ``rng.random()``.  Sources own their
  ``random.Random`` exclusively; over-filling past what a walk consumes
  is invisible because each pair's stream is private and discarded
  afterwards.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Optional, Sequence

from repro.statespace.product import AdversaryTable

#: Uniforms fetched per refill.  Large enough to amortise the refill call,
#: small enough that an abandoned tail costs nothing noticeable.
BLOCK = 4096


class FlatTable:
    """One adversary's compiled behaviour as CSR parallel arrays.

    Time advances are stored as *scaled integers*: ``denominator`` is
    the LCM of every edge delta's denominator, and ``ideltas[e]`` is
    ``deltas[e] * denominator`` exactly.  Elapsed-time accounting in the
    walkers is then pure ``int`` arithmetic — exact, hence
    byte-identical to the stepwise ``Fraction`` sums, and several times
    cheaper per step (for unit-time models the denominator is 1).
    """

    __slots__ = (
        "start_nodes",
        "offsets",
        "targets",
        "cum",
        "denominator",
        "ideltas",
        "node_flag",
        "halt",
        "skip_steps",
        "skip_to",
        "skip_total",
    )

    def __init__(
        self,
        start_nodes: Sequence[int],
        offsets: List[int],
        targets: List[int],
        cum: List[float],
        denominator: int,
        ideltas: List[int],
        node_flag: List[bool],
        halt: List[bool],
    ):
        self.start_nodes = start_nodes
        self.offsets = offsets
        self.targets = targets
        self.cum = cum
        self.denominator = denominator
        self.ideltas = ideltas
        self.node_flag = node_flag
        self.halt = halt
        # Chain-compression arrays, filled by _compress_chains:
        # skip_steps[i] == 0 means node i starts no compressible run;
        # skip_total is in the same scaled-integer units as ideltas.
        self.skip_steps: List[int] = []
        self.skip_to: List[int] = []
        self.skip_total: List[int] = []

    @property
    def n_nodes(self) -> int:
        """The number of product nodes in the table."""
        return len(self.node_flag)

    def scale_bound(self, bound: Optional[Fraction]) -> Optional[int]:
        """``bound`` as an integer threshold in scaled units.

        For integer elapsed ``e``, ``e > bound`` iff
        ``e > floor(bound * denominator)`` — exactly — so walkers
        compare two ints where the stepwise engines compare Fractions.
        """
        if bound is None:
            return None
        return math.floor(bound * self.denominator)


def flatten_table(
    table: Optional[AdversaryTable], flags: Sequence[bool]
) -> Optional[FlatTable]:
    """Repack ``table`` into a :class:`FlatTable` (``None`` passes through).

    ``flags`` is the space-indexed target predicate from
    ``CompiledSpace.flags``; it is hoisted to node granularity so the
    inner loop never chases ``node -> state -> flag``.
    """
    if table is None:
        return None
    node_state = table.node_state
    choice_targets = table.choice_targets
    choice_cum = table.choice_cum
    choice_deltas = table.choice_deltas
    n = table.n_nodes
    offsets = [0] * (n + 1)
    targets: List[int] = []
    cum: List[float] = []
    deltas: List[Fraction] = []
    node_flag = [bool(flags[state]) for state in node_state]
    halt = [False] * n
    for i in range(n):
        outcome_targets = choice_targets[i]
        if outcome_targets is None:
            halt[i] = True
        else:
            targets.extend(outcome_targets)
            cum.extend(choice_cum[i])
            deltas.extend(choice_deltas[i])
        offsets[i + 1] = len(targets)
    denominator = math.lcm(*(delta.denominator for delta in deltas), 1)
    ideltas = [
        delta.numerator * (denominator // delta.denominator)
        for delta in deltas
    ]
    flat = FlatTable(
        table.start_nodes,
        offsets,
        targets,
        cum,
        denominator,
        ideltas,
        node_flag,
        halt,
    )
    _compress_chains(flat)
    return flat


def _compress_chains(flat: FlatTable) -> None:
    """Memoise maximal deterministic runs into the ``skip_*`` arrays.

    A node participates in a run when it is not flagged, not a halt,
    has exactly one outcome, and that outcome's time advance is
    nonnegative (the bound fast-path needs monotone prefix sums).  Runs
    are resolved iteratively with an in-progress mark so cycles — a
    deterministic loop that never flags would otherwise never terminate
    — are cut at the point of re-entry; cutting a run short is always
    sound because the walker re-examines whatever node it lands on.
    """
    n = flat.n_nodes
    offsets = flat.offsets
    targets = flat.targets
    ideltas = flat.ideltas
    node_flag = flat.node_flag
    halt = flat.halt
    skip_steps = [0] * n
    skip_to = list(range(n))
    skip_total = [0] * n
    # 0 = unresolved, 1 = on the current path, 2 = resolved.
    status = bytearray(n)

    def eligible(i: int) -> bool:
        return (
            not node_flag[i]
            and not halt[i]
            and offsets[i + 1] - offsets[i] == 1
            and ideltas[offsets[i]] >= 0
        )

    for root in range(n):
        if status[root] == 2:
            continue
        path: List[int] = []
        cur = root
        while status[cur] == 0 and eligible(cur):
            status[cur] = 1
            path.append(cur)
            cur = targets[offsets[cur]]
        if status[cur] == 2:
            steps = skip_steps[cur]
            to = skip_to[cur]
            total = skip_total[cur]
        else:
            # Ineligible terminus or a cycle re-entry: the run ends here.
            steps, to, total = 0, cur, 0
            status[cur] = 2
        for node in reversed(path):
            steps += 1
            total = total + ideltas[offsets[node]]
            skip_steps[node] = steps
            skip_to[node] = to
            skip_total[node] = total
            status[node] = 2
    flat.skip_steps = skip_steps
    flat.skip_to = skip_to
    flat.skip_total = skip_total


class UniformSource:
    """A block-buffered stream of uniforms over one private ``Random``.

    The stream's *consumed prefix* is exactly the sequence
    ``rng.random(), rng.random(), ...`` the tree walk would have drawn.
    The walker reads ``data``/``pos`` directly in its inner loop and
    writes ``pos`` back on exit; :meth:`refill` and :meth:`skip` are the
    only operations that touch the underlying generator.
    """

    __slots__ = ("rng", "block", "data", "pos")

    def __init__(self, rng: random.Random, block: int = BLOCK):
        self.rng = rng
        self.block = block
        self.data: List[float] = []
        self.pos = 0

    def refill(self) -> List[float]:
        """Fetch the next block; returns the fresh ``data`` list."""
        rand = self.rng.random
        self.data = [rand() for _ in range(self.block)]
        self.pos = 0
        return self.data

    def skip(self, count: int) -> None:
        """Discard ``count`` uniforms (chain compression's fast-forward)."""
        available = len(self.data) - self.pos
        if count <= available:
            self.pos += count
            return
        rand = self.rng.random
        for _ in range(count - available):
            rand()
        self.data = []
        self.pos = 0

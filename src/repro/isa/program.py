"""Structured control-flow representation of a kernel body.

The functional executor does not interpret branch instructions per work
item -- that would make Python execution of multi-million-instruction
programs impossible.  Instead every kernel carries, alongside its basic
blocks, a *structured program tree* describing how those blocks compose:
sequences, counted loops, and two-way branches.  Walking the tree with a
given argument vector and RNG yields exact per-block execution counts for
one hardware thread, which the executor then scales across threads.

This is a modelling choice, not a shortcut in the methodology: GT-Pin's
counters and the sampling pipeline consume only per-block dynamic counts,
which the tree reproduces faithfully (including data-dependent trip counts
and branch biases).

A tree is not walked recursively at run time.  :class:`CountWalk` lowers
it once to a flat op list in pre-order -- sequences flattened away,
sibling blocks fused, each loop body and branch arm given a multiplier
slot -- and evaluates that list with a program counter.  It applies the
recursive definition's float operations in the same order, resolves
trips (and draws jitter) for the same loops in the same order, and jumps
over every subtree whose multiplier is ``<= 0``, so counts and generator
state come out the same.  A :class:`~repro.isa.kernel.KernelBinary`
keeps its walk, so each kernel's tree is lowered once.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence, Union

import numpy as np

#: Kernel arguments are a name -> scalar mapping at execution time.
ArgValues = Mapping[str, float]


@dataclasses.dataclass(frozen=True, slots=True)
class TripCount:
    """Loop trip-count model: ``base + scale * args[arg]``, optionally noisy.

    ``jitter`` adds uniform integer noise in ``[-jitter, +jitter]`` sampled
    once per kernel invocation -- the model of data-dependent control flow
    that makes repeated trials non-deterministic (Section V-E's motivation
    for CoFluent record/replay).
    """

    base: int = 1
    arg: str | None = None
    scale: float = 0.0
    jitter: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"base trip count must be >= 0, got {self.base}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def resolve(self, args: ArgValues, rng: np.random.Generator) -> int:
        trips = float(self.base)
        if self.arg is not None:
            trips += self.scale * float(args.get(self.arg, 0.0))
        if self.jitter:
            trips += int(rng.integers(-self.jitter, self.jitter + 1))
        return max(0, int(round(trips)))


@dataclasses.dataclass(frozen=True, slots=True)
class Block:
    """Leaf node: execute basic block ``block_id`` once."""

    block_id: int


@dataclasses.dataclass(frozen=True, slots=True)
class Seq:
    """Execute children in order."""

    children: tuple["Node", ...]


@dataclasses.dataclass(frozen=True, slots=True)
class Loop:
    """Execute ``body`` ``trip`` times (trip resolved per invocation)."""

    body: "Node"
    trip: TripCount


@dataclasses.dataclass(frozen=True, slots=True)
class Branch:
    """Two-way branch taking ``taken`` with probability ``p_taken``.

    Per-thread divergence is modelled in aggregate: across ``n`` executions
    the taken arm runs ``round(p_taken * n)`` times (deterministic given
    the trip counts), matching how SIMD divergence washes out over the
    thousands of hardware-thread executions per invocation.
    """

    taken: "Node"
    not_taken: "Node | None"
    p_taken: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_taken <= 1.0:
            raise ValueError(f"p_taken must be in [0, 1], got {self.p_taken}")


Node = Union[Block, Seq, Loop, Branch]


def block_ids(node: Node) -> frozenset[int]:
    """All basic-block ids referenced by a program tree."""
    ids: set[int] = set()
    _collect_ids(node, ids)
    return frozenset(ids)


def _collect_ids(node: Node, out: set[int]) -> None:
    if isinstance(node, Block):
        out.add(node.block_id)
    elif isinstance(node, Seq):
        for child in node.children:
            _collect_ids(child, out)
    elif isinstance(node, Loop):
        _collect_ids(node.body, out)
    elif isinstance(node, Branch):
        _collect_ids(node.taken, out)
        if node.not_taken is not None:
            _collect_ids(node.not_taken, out)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown program node {node!r}")


#: Op kinds of a :class:`CountWalk`.
_BLOCKS, _LOOP, _BRANCH = 0, 1, 2


class CountWalk:
    """A program tree lowered once to a flat op list.

    The ops are the tree's nodes in pre-order, with sequences flattened
    away and runs of sibling blocks fused into one op.  Every loop body
    and branch arm gets a *slot* holding its multiplier: the root's slot
    0 holds 1.0, and a loop or branch op writes its children's slots
    with exactly the float operations the recursive definition applies
    (``m * trips``, ``m * p_taken``, ``m - taken``).  An op whose slot
    holds ``<= 0`` jumps past its subtree, so a zero-multiplier subtree
    draws no jitter and counts nothing, and the loops that do run
    resolve their trips in the same pre-order, drawing jitter from the
    generator in the same order.

    It also records what the kernel layer asks of a tree: the argument
    names its trip counts read (:attr:`trip_args`, and sorted in
    :attr:`trip_arg_order`) and whether any trip is jittered
    (:attr:`jittered`).
    """

    __slots__ = ("ops", "n_slots", "trip_args", "trip_arg_order", "jittered")

    def __init__(self, node: Node) -> None:
        self.ops: list[tuple] = []
        self.n_slots = 1
        names: set[str] = set()
        self.jittered = False
        self._lower(node, 0, names)
        self.trip_args = frozenset(names)
        self.trip_arg_order = tuple(sorted(names))

    def _lower(self, node: Node, slot: int, names: set[str]) -> None:
        ops = self.ops
        if isinstance(node, Block):
            last = ops[-1] if ops else None
            if last is not None and last[0] == _BLOCKS and last[1] == slot:
                ops[-1] = last[:3] + (last[3] + (node.block_id,),)
            else:
                ops.append((_BLOCKS, slot, len(ops) + 1, (node.block_id,)))
        elif isinstance(node, Seq):
            for child in node.children:
                self._lower(child, slot, names)
        elif isinstance(node, Loop):
            trip = node.trip
            if trip.arg is not None:
                names.add(trip.arg)
            self.jittered = self.jittered or trip.jitter > 0
            at, body = len(ops), self._slot()
            ops.append(None)
            self._lower(node.body, body, names)
            ops[at] = (
                _LOOP, slot, len(ops), body,
                float(trip.base), trip.arg, trip.scale, trip.jitter,
            )
        elif isinstance(node, Branch):
            at, taken = len(ops), self._slot()
            ops.append(None)
            self._lower(node.taken, taken, names)
            not_taken = None
            if node.not_taken is not None:
                not_taken = self._slot()
                self._lower(node.not_taken, not_taken, names)
            ops[at] = (_BRANCH, slot, len(ops), taken, not_taken, node.p_taken)
        else:
            raise TypeError(f"unknown program node {node!r}")

    def _slot(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def counts(
        self,
        args: ArgValues,
        rng: np.random.Generator,
        n_block_ids: int,
    ) -> np.ndarray:
        """Per-block execution counts for one pass (see
        :func:`execution_counts`)."""
        counts = [0] * n_block_ids
        mults = [0.0] * self.n_slots
        mults[0] = 1.0
        ops = self.ops
        pc, end = 0, len(ops)
        while pc < end:
            op = ops[pc]
            multiplier = mults[op[1]]
            if multiplier <= 0.0:
                pc = op[2]
                continue
            pc += 1
            kind = op[0]
            if kind == _BLOCKS:
                executions = int(round(multiplier))
                for block_id in op[3]:
                    counts[block_id] += executions
            elif kind == _LOOP:
                _, _, _, body, trips, arg, scale, jitter = op
                if arg is not None:
                    trips += scale * float(args.get(arg, 0.0))
                if jitter:
                    trips += int(rng.integers(-jitter, jitter + 1))
                mults[body] = multiplier * max(0, int(round(trips)))
            else:
                taken = multiplier * op[5]
                mults[op[3]] = taken
                if op[4] is not None:
                    mults[op[4]] = multiplier - taken
        return np.array(counts, dtype=np.int64)


def execution_counts(
    node: Node,
    args: ArgValues,
    rng: np.random.Generator,
    n_block_ids: int,
) -> np.ndarray:
    """Per-block execution counts for ONE pass over the program tree.

    Returns a dense ``int64`` vector indexed by block id.  Trip counts and
    branch splits are resolved with ``rng``, so two calls with differently
    seeded generators model two non-deterministic trials.  A block adds
    ``round(m)`` for its multiplier ``m``: 1.0 at the root, times a
    loop's trips inside its body, ``m * p_taken`` in a taken arm and
    ``m - m * p_taken`` in a not-taken arm.  Kernels keep their lowered
    :class:`CountWalk` (:attr:`repro.isa.kernel.KernelBinary.count_walk`);
    this lowers ``node`` for one call.
    """
    return CountWalk(node).counts(args, rng, n_block_ids)


def seq(*children: Node) -> Seq:
    """Convenience constructor collapsing nested sequences."""
    flat: list[Node] = []
    for child in children:
        if isinstance(child, Seq):
            flat.extend(child.children)
        else:
            flat.append(child)
    return Seq(tuple(flat))


def straight_line(block_ids_: Sequence[int]) -> Seq:
    """A Seq of plain Block leaves, in order."""
    return Seq(tuple(Block(b) for b in block_ids_))

"""The compiled count walk against the recursive walk it replaced.

:func:`oracle_counts` is the recursive definition of per-block execution
counts, kept here as the oracle: a node with multiplier ``m <= 0`` is
skipped whole, a block adds ``round(m)``, a loop resolves its trips
(drawing jitter) and multiplies, a branch splits ``m`` into
``m * p_taken`` and ``m - m * p_taken``.  The compiled
:class:`~repro.isa.program.CountWalk` must give the same counts and leave
the generator in the same state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.driver.jit import JITCompiler, KernelSource
from repro.isa.builder import KernelBuilder
from repro.isa.kernel import KernelBinary
from repro.isa.program import (
    Block,
    Branch,
    CountWalk,
    Loop,
    Node,
    Seq,
    TripCount,
    execution_counts,
)

from conftest import build_tiny_kernel

N_BLOCKS = 6
ARG_NAMES = ("a", "b", "missing")


def _accumulate(node, args, rng, multiplier, counts) -> None:
    if multiplier <= 0.0:
        return
    if isinstance(node, Block):
        counts[node.block_id] += int(round(multiplier))
    elif isinstance(node, Seq):
        for child in node.children:
            _accumulate(child, args, rng, multiplier, counts)
    elif isinstance(node, Loop):
        trips = node.trip.resolve(args, rng)
        _accumulate(node.body, args, rng, multiplier * trips, counts)
    elif isinstance(node, Branch):
        taken = multiplier * node.p_taken
        _accumulate(node.taken, args, rng, taken, counts)
        if node.not_taken is not None:
            _accumulate(node.not_taken, args, rng, multiplier - taken, counts)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown program node {node!r}")


def oracle_counts(node, args, rng, n_block_ids) -> np.ndarray:
    counts = np.zeros(n_block_ids, dtype=np.int64)
    _accumulate(node, args, rng, 1.0, counts)
    return counts


trips = st.builds(
    TripCount,
    base=st.integers(0, 5),
    arg=st.sampled_from((None,) + ARG_NAMES),
    scale=st.sampled_from((0.0, 0.5, 1.5, -0.5, 2.0)) | st.floats(-3, 3),
    jitter=st.integers(0, 3),
)
p_taken = st.sampled_from((0.0, 1.0, 0.5, 0.25)) | st.floats(0.0, 1.0)

trees = st.recursive(
    st.builds(Block, st.integers(0, N_BLOCKS - 1)),
    lambda children: st.one_of(
        st.builds(Seq, st.lists(children, max_size=4).map(tuple)),
        st.builds(Loop, children, trips),
        st.builds(Branch, children, st.none() | children, p_taken),
    ),
    max_leaves=14,
)
arg_values = st.fixed_dictionaries(
    {},
    optional={
        "a": st.sampled_from((0.0, 0.5, 1.5, 3.0)) | st.floats(-4, 8),
        "b": st.integers(-3, 6).map(float),
    },
)

ZERO_TRIPS_OVER_JITTER = Seq((
    Loop(
        Seq((Block(0), Loop(Block(1), TripCount(base=2, jitter=3)))),
        TripCount(base=0),
    ),
    Loop(Block(2), TripCount(base=1, jitter=2)),
    Branch(Loop(Block(3), TripCount(base=3, jitter=1)), Block(4), 0.0),
    Branch(Block(5), Loop(Block(4), TripCount(base=3, jitter=1)), 1.0),
))


@settings(max_examples=300, deadline=None)
@given(tree=trees, args=arg_values, seed=st.integers(0, 2**32 - 1))
@example(tree=ZERO_TRIPS_OVER_JITTER, args={}, seed=7)
@example(
    tree=Loop(Branch(Block(0), Block(1), 0.5), TripCount(base=3)),
    args={}, seed=0,
)
@example(
    tree=Loop(Block(2), TripCount(base=0, arg="a", scale=0.5)),
    args={"a": 5.0}, seed=0,
)
def test_compiled_walk_equals_recursive_oracle(tree, args, seed):
    expected_rng = np.random.default_rng(seed)
    expected = oracle_counts(tree, args, expected_rng, N_BLOCKS)
    rng = np.random.default_rng(seed)
    counts = execution_counts(tree, args, rng, N_BLOCKS)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected.tolist()
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    # One lowered walk evaluated again gives the same again.
    walk = CountWalk(tree)
    again_rng = np.random.default_rng(seed)
    assert walk.counts(args, again_rng, N_BLOCKS).tolist() == expected.tolist()
    assert again_rng.bit_generator.state == expected_rng.bit_generator.state


def _six_blocks():
    """Six blocks with different footprints (loads, stores, ALU mixes)."""
    kb = KernelBuilder("walk", simd_width=16)
    for i in range(N_BLOCKS):
        with kb.block(f"b{i}") as b:
            b.mov(exec_size=1)
            for _ in range(i):
                b.alu("mul")
            if i % 2:
                b.load(bytes_per_channel=4 * i)
            if i % 3:
                b.store(bytes_per_channel=2 * i)
    return kb.build().blocks


BLOCKS = _six_blocks()


@settings(max_examples=200, deadline=None)
@given(
    tree=trees, args=arg_values, seed=st.integers(0, 2**32 - 1),
    threads=st.integers(1, 4096),
)
@example(tree=ZERO_TRIPS_OVER_JITTER, args={}, seed=7, threads=3)
def test_invocation_totals_equal_the_oracle_on_miss_and_hit(
    tree, args, seed, threads
):
    """The device's counts and totals, memoized or not, are the oracle's
    counts times the thread count and their exact products."""
    binary = KernelBinary("walk", BLOCKS, Seq((Block(0), tree)))
    arrays = binary.arrays
    for _ in range(2):  # the second call hits the memo when jitter-free
        expected_rng = np.random.default_rng(seed)
        expected = oracle_counts(
            binary.program, args, expected_rng, N_BLOCKS
        ) * threads
        rng = np.random.default_rng(seed)
        counts, instructions, read, written, cycles = (
            binary.invocation_totals(args, rng, threads)
        )
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        assert counts.dtype == np.int64
        assert counts.tolist() == expected.tolist()
        assert instructions == int(expected @ arrays.instruction_counts)
        assert read == int(expected @ arrays.bytes_read)
        assert written == int(expected @ arrays.bytes_written)
        assert cycles == float(
            expected.astype(np.float64) @ arrays.issue_cycles
        )
        counts[:] = -1  # the caller owns its copy; the memo is unharmed


def _has_jitter(node: Node) -> bool:
    if isinstance(node, Seq):
        return any(_has_jitter(c) for c in node.children)
    if isinstance(node, Loop):
        return node.trip.jitter > 0 or _has_jitter(node.body)
    if isinstance(node, Branch):
        return _has_jitter(node.taken) or (
            node.not_taken is not None and _has_jitter(node.not_taken)
        )
    return False


def _trip_args(node: Node) -> set[str]:
    if isinstance(node, Seq):
        return set().union(*(_trip_args(c) for c in node.children))
    if isinstance(node, Loop):
        own = {node.trip.arg} if node.trip.arg is not None else set()
        return own | _trip_args(node.body)
    if isinstance(node, Branch):
        arms = [node.taken] + ([node.not_taken] if node.not_taken else [])
        return set().union(*(_trip_args(a) for a in arms))
    return set()


@settings(max_examples=100, deadline=None)
@given(tree=trees)
def test_walk_records_trip_args_and_jitter(tree):
    walk = CountWalk(tree)
    assert walk.trip_args == frozenset(_trip_args(tree))
    assert walk.trip_arg_order == tuple(sorted(_trip_args(tree)))
    assert walk.jittered == _has_jitter(tree)


def test_jit_output_shares_the_body_lowered_state():
    body = build_tiny_kernel()
    binary = JITCompiler().compile(KernelSource(body.name, body))
    assert binary is not body
    assert binary.metadata["jit.compiled"] is True
    assert binary.count_walk is body.count_walk
    assert binary.arrays is body.arrays
    assert binary.footprints is body.footprints
    assert binary.send_plan is body.send_plan
    assert binary.exec_size_set is body.exec_size_set
    counts = binary.footprints
    assert counts.dtype == np.int64
    assert counts[:, 0].tolist() == body.arrays.instruction_counts.tolist()
    assert counts[:, 1].tolist() == body.arrays.bytes_read.tolist()
    assert counts[:, 2].tolist() == body.arrays.bytes_written.tolist()

"""Per-interval feature vectors (Table III).

Each interval is summarized as a sparse ``{event key: weighted count}``
vector; :func:`build_feature_vectors` returns all intervals' vectors as
one :class:`FeatureMatrix`.  Keys are program events at two
granularities -- kernels (KN family) or basic blocks (BB family) --
optionally specialized by data interaction (argument values, global
work size, memory bytes).

Following Section V-B, every computational entry is **weighted by
instruction count**: an interval that executes block A 10 times (3
instructions each) and block B 5 times (20 instructions each) scores
A=30, B=100, reflecting their actual importance.  Memory dimensions
(the ``-R``/``-W``/``-(R+W)`` suffixes) contribute the interval's byte
counts for the event as additional vector entries.

The paper does not spell out the exact encoding of the compound vectors;
we use the natural one -- extra keys appended to the base vector -- and
treat it as a modelled design decision (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import enum
import operator
from collections import abc
from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.gtpin.tools.invocations import InvocationLog, InvocationProfile
from repro.sampling.intervals import Interval

#: A sparse feature vector: event key -> weighted dynamic count.
FeatureVector = dict[Hashable, float]


class FeatureKind(enum.Enum):
    """Table III's ten feature-vector constructions."""

    KN = "KN"
    KN_ARGS = "KN-ARGS"
    KN_GWS = "KN-GWS"
    KN_ARGS_GWS = "KN-ARGS-GWS"
    KN_RW = "KN-RW"
    BB = "BB"
    BB_R = "BB-R"
    BB_W = "BB-W"
    BB_R_W = "BB-R-W"
    BB_R_PLUS_W = "BB-(R+W)"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_kernel_based(self) -> bool:
        return self.value.startswith("KN")

    @property
    def is_block_based(self) -> bool:
        return self.value.startswith("BB")

    @property
    def uses_memory(self) -> bool:
        return self in (
            FeatureKind.KN_RW,
            FeatureKind.BB_R,
            FeatureKind.BB_W,
            FeatureKind.BB_R_W,
            FeatureKind.BB_R_PLUS_W,
        )


#: All ten kinds, in Table III order.
ALL_FEATURE_KINDS: tuple[FeatureKind, ...] = (
    FeatureKind.KN,
    FeatureKind.KN_ARGS,
    FeatureKind.KN_GWS,
    FeatureKind.KN_ARGS_GWS,
    FeatureKind.KN_RW,
    FeatureKind.BB,
    FeatureKind.BB_R,
    FeatureKind.BB_W,
    FeatureKind.BB_R_W,
    FeatureKind.BB_R_PLUS_W,
)


def _kernel_key(kind: FeatureKind, profile: InvocationProfile) -> Hashable:
    """The KN-family event key for one invocation."""
    if kind is FeatureKind.KN_ARGS:
        return ("kn", profile.kernel_name, profile.arg_items)
    if kind is FeatureKind.KN_GWS:
        return ("kn", profile.kernel_name, profile.global_work_size)
    if kind is FeatureKind.KN_ARGS_GWS:
        return (
            "kn",
            profile.kernel_name,
            profile.arg_items,
            profile.global_work_size,
        )
    return ("kn", profile.kernel_name)


def _accumulate_kernel(
    vector: FeatureVector,
    kind: FeatureKind,
    profile: InvocationProfile,
    weighted: bool,
) -> None:
    key = _kernel_key(kind, profile)
    value = float(profile.instruction_count) if weighted else 1.0
    vector[key] = vector.get(key, 0.0) + value
    if kind is FeatureKind.KN_RW:
        read_key = ("kn_r", profile.kernel_name)
        write_key = ("kn_w", profile.kernel_name)
        vector[read_key] = vector.get(read_key, 0.0) + float(profile.bytes_read)
        vector[write_key] = vector.get(write_key, 0.0) + float(
            profile.bytes_written
        )


def _accumulate_blocks(
    vector: FeatureVector,
    kind: FeatureKind,
    profile: InvocationProfile,
    log: InvocationLog,
    weighted: bool,
) -> None:
    arrays = log.binary(profile.kernel_name).arrays
    counts = profile.block_counts
    if weighted:
        base_values = counts * arrays.instruction_counts
    else:
        base_values = counts
    reads = counts * arrays.bytes_read
    writes = counts * arrays.bytes_written
    kernel = profile.kernel_name
    for block_id in counts.nonzero()[0].tolist():
        key = ("bb", kernel, block_id)
        vector[key] = vector.get(key, 0.0) + float(base_values[block_id])
        if kind in (FeatureKind.BB_R, FeatureKind.BB_R_W):
            rkey = ("bb_r", kernel, block_id)
            vector[rkey] = vector.get(rkey, 0.0) + float(reads[block_id])
        if kind in (FeatureKind.BB_W, FeatureKind.BB_R_W):
            wkey = ("bb_w", kernel, block_id)
            vector[wkey] = vector.get(wkey, 0.0) + float(writes[block_id])
        if kind is FeatureKind.BB_R_PLUS_W:
            ckey = ("bb_rw", kernel, block_id)
            vector[ckey] = vector.get(ckey, 0.0) + float(
                reads[block_id] + writes[block_id]
            )


def feature_vector(
    log: InvocationLog,
    interval: Interval,
    kind: FeatureKind,
    weighted: bool = True,
) -> FeatureVector:
    """Build one interval's sparse feature vector."""
    vector: FeatureVector = {}
    for i in interval.invocation_indices():
        profile = log.invocations[i]
        if kind.is_kernel_based:
            _accumulate_kernel(vector, kind, profile, weighted)
        else:
            _accumulate_blocks(vector, kind, profile, log, weighted)
    return vector


@dataclasses.dataclass(frozen=True, eq=False)
class FeatureMatrix(abc.Sequence):
    """Every interval's feature vector, as one sparse COO matrix.

    Element ``e`` is ``values[e]`` for interval ``rows[e]`` and key
    ``keys[cols[e]]``.  Elements run in row order and, within a row, in
    :func:`feature_vector`'s key order; no (row, column) pair repeats.
    Column ids number keys by first occurrence.  As a read-only
    sequence, row ``i`` is :func:`feature_vector`'s dict (same keys, key
    order and Python ``float`` values).
    """

    rows: np.ndarray  # (nnz,) int64 interval index, non-decreasing
    cols: np.ndarray  # (nnz,) int64 index into ``keys``
    values: np.ndarray  # (nnz,) float64
    keys: tuple[Hashable, ...]
    n_rows: int

    @classmethod
    def from_vectors(cls, vectors: Sequence[FeatureVector]) -> FeatureMatrix:
        """The matrix of a sequence of dicts; a matrix is returned as is."""
        if isinstance(vectors, FeatureMatrix):
            return vectors
        ids: dict[Hashable, int] = {}
        rows: list[int] = []
        cols: list[int] = []
        values: list[float] = []
        for i, vector in enumerate(vectors):
            for key, value in vector.items():
                rows.append(i)
                cols.append(ids.setdefault(key, len(ids)))
                values.append(value)
        return cls(
            rows=np.asarray(rows, dtype=np.int64),
            cols=np.asarray(cols, dtype=np.int64),
            values=np.asarray(values, dtype=np.float64),
            keys=tuple(ids),
            n_rows=len(vectors),
        )

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(
        self, index: int | slice
    ) -> FeatureVector | list[FeatureVector]:
        picked = range(self.n_rows)[index]  # list semantics, IndexError
        if isinstance(picked, range):
            return [self[i] for i in picked]
        lo, hi = np.searchsorted(self.rows, [picked, picked + 1])
        keys = map(self.keys.__getitem__, self.cols[lo:hi].tolist())
        return dict(zip(keys, self.values[lo:hi].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


#: The key families each block kind's vector holds, in element order.
_BLOCK_FAMILIES = {
    FeatureKind.BB: ("bb",),
    FeatureKind.BB_R: ("bb", "bb_r"),
    FeatureKind.BB_W: ("bb", "bb_w"),
    FeatureKind.BB_R_W: ("bb", "bb_r", "bb_w"),
    FeatureKind.BB_R_PLUS_W: ("bb", "bb_rw"),
}


def _block_matrices(
    log: InvocationLog,
    intervals: Sequence[Interval],
    kinds: Sequence[FeatureKind],
    weighted: bool,
) -> Iterator[FeatureMatrix]:
    """BB-family matrices for ``kinds``, in order, by one pass over the log.

    The pass computes, per kernel, every interval's summed block counts
    by array code over prefix sums, once for all kinds; each matrix is
    then assembled from it and yielded, so only one is held at a time.

    Bit-identical to :func:`feature_vector`: every contribution is an
    integer (block counts times static per-block integers), and each of
    the scalar path's partial float sums is an exactly representable
    integer, so summing in int64 and converting once yields the same
    floats.  The scalar path inserts a block's keys at the first
    invocation that executes it, ascending block id within an
    invocation, one family after another: element order is the sort by
    (interval, first executing invocation, block id), families side by
    side, and a key's column is its block's first-occurrence rank times
    the family count plus its family's position.
    """
    groups: dict[str, list[int]] = {}
    for i, profile in enumerate(log.invocations):
        groups.setdefault(profile.kernel_name, []).append(i)
    kernels = list(groups)
    starts = np.asarray([iv.start for iv in intervals], dtype=np.int64)
    stops = np.asarray([iv.stop for iv in intervals], dtype=np.int64)
    # Intervals are contiguous invocation ranges, so a per-kernel
    # prefix-sum matrix gives every interval's summed block counts by one
    # subtraction.  A kernel's part has, per (interval, executed block):
    # interval, first executing invocation, kernel id, block id and the
    # value of each family.
    parts: list[tuple[np.ndarray, ...]] = []
    width = 0  # the most blocks any kernel has
    for g, kernel in enumerate(kernels):
        positions = np.asarray(groups[kernel], dtype=np.int64)
        counts = np.vstack(
            [log.invocations[i].block_counts for i in groups[kernel]]
        )
        n_inv, n_blocks = counts.shape
        width = max(width, n_blocks)
        prefix = np.zeros((n_inv + 1, n_blocks), dtype=np.int64)
        np.cumsum(counts, axis=0, out=prefix[1:])
        # nxt[r, b]: first row >= r executing block b (n_inv = never).
        nxt = np.where(counts > 0, np.arange(n_inv)[:, None], n_inv)
        nxt = np.minimum.accumulate(nxt[::-1], axis=0)[::-1]
        lo = np.searchsorted(positions, starts)
        hi = np.searchsorted(positions, stops)
        active = np.nonzero(hi > lo)[0]
        summed = prefix[hi[active]] - prefix[lo[active]]
        rows, blocks = np.nonzero(summed)
        hot = summed[rows, blocks]
        arrays = log.binary(kernel).arrays
        parts.append((
            active[rows],
            positions[nxt[lo[active[rows]], blocks]],
            np.full(rows.size, g),
            blocks,
            hot * arrays.instruction_counts[blocks] if weighted else hot,
            hot * arrays.bytes_read[blocks],
            hot * arrays.bytes_written[blocks],
        ))
    ivs, firsts, kernel_ids, blocks, base, reads, writes = (
        np.concatenate(column) for column in zip(*parts)
    )
    order = np.lexsort((blocks, firsts, ivs))
    needed = {family for kind in kinds for family in _BLOCK_FAMILIES[kind]}
    values = {
        family: column[order]
        for family, column in (
            ("bb", base), ("bb_r", reads), ("bb_w", writes),
            ("bb_rw", reads + writes),
        )
        if family in needed
    }
    ivs = ivs[order]
    # One integer code per (kernel, block); blocks rank by the first
    # element that holds them.
    unique, first_element, inverse = np.unique(
        (kernel_ids * width + blocks)[order],
        return_index=True, return_inverse=True,
    )
    ranked = np.argsort(first_element)  # rank -> unique index
    rank_of = np.argsort(ranked)[inverse]  # element -> its block's rank
    key_kernels, key_blocks = np.divmod(unique[ranked], width)
    block_keys = list(zip(
        [kernels[g] for g in key_kernels.tolist()], key_blocks.tolist()
    ))
    # The generator's frame lives until the last kind is built: keep
    # only what the matrices read.
    del parts, firsts, kernel_ids, blocks, base, reads, writes, order
    del unique, first_element, inverse, ranked
    for kind in kinds:
        families = _BLOCK_FAMILIES[kind]
        n_fam = len(families)
        yield FeatureMatrix(
            rows=np.repeat(ivs, n_fam),
            cols=(rank_of[:, None] * n_fam + np.arange(n_fam)).ravel(),
            values=np.stack(
                [values[family] for family in families], axis=1
            ).ravel().astype(float),
            keys=tuple(
                (family, kernel, block)
                for kernel, block in block_keys
                for family in families
            ),
            n_rows=len(intervals),
        )


def feature_matrices(
    log: InvocationLog,
    intervals: Sequence[Interval],
    kinds: Sequence[FeatureKind],
    weighted: bool = True,
) -> Iterator[FeatureMatrix]:
    """:func:`build_feature_vectors` for each of ``kinds``, in order,
    one matrix at a time; the block kinds share one pass over the log."""
    blocks = _block_matrices(
        log, intervals, [kind for kind in kinds if kind.is_block_based],
        weighted,
    )
    for kind in kinds:
        if kind.is_block_based:
            yield next(blocks)
        else:
            yield FeatureMatrix.from_vectors(
                [feature_vector(log, iv, kind, weighted) for iv in intervals]
            )


def build_feature_vectors(
    log: InvocationLog,
    intervals: Sequence[Interval],
    kind: FeatureKind,
    weighted: bool = True,
) -> FeatureMatrix:
    """Feature vectors for every interval, in interval order, as a matrix.

    ``weighted=False`` disables the instruction-count weighting -- kept
    for the ablation study of that design choice.

    Block-family kinds are built by array code (bit-identical to the
    per-invocation accumulation, element order included); kernel-family
    kinds are one event per invocation, built by :func:`feature_vector`
    and packed into the matrix.
    """
    return next(feature_matrices(log, intervals, (kind,), weighted))

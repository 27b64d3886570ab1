"""Kernel binaries: the unit the JIT produces and GT-Pin rewrites.

A :class:`KernelBinary` is what the GPU driver hands to the device -- a set
of basic blocks plus the structured program tree describing their control
flow (see :mod:`repro.isa.program`).  It also carries the kernel's argument
signature, which the KN-ARGS / KN-GWS feature vectors of Table III consume.

For bulk dynamic accounting the kernel precomputes dense per-block arrays
(:class:`KernelArrays`): given a vector of per-block execution counts, every
Figure 3/4 statistic is a single matrix-vector product.

Everything derived from a kernel's blocks and program tree (those arrays,
the send plan, the exec-size set, the lowered count walk, rewritten block
tuples) lives in one :class:`_Lowered` record that a JIT output shares
with its source body, so it is computed once per kernel, not once per
build or run.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.isa.basic_block import BasicBlock
from repro.isa.instruction import EXEC_SIZES, AccessPattern, SendMessage
from repro.isa.opcodes import FIGURE_4A_ORDER, OpClass
from repro.isa.program import CountWalk, Node, block_ids


@dataclasses.dataclass(frozen=True)
class KernelArrays:
    """Dense per-block static footprints for vectorized dynamic accounting.

    All arrays are indexed by block id.  ``class_counts`` has one column
    per :data:`~repro.isa.opcodes.FIGURE_4A_ORDER` class; ``width_counts``
    one column per :data:`~repro.isa.instruction.EXEC_SIZES` width.
    """

    instruction_counts: np.ndarray  # (n_blocks,) int64
    issue_cycles: np.ndarray  # (n_blocks,) float64
    bytes_read: np.ndarray  # (n_blocks,) int64
    bytes_written: np.ndarray  # (n_blocks,) int64
    send_counts: np.ndarray  # (n_blocks,) int64
    class_counts: np.ndarray  # (n_blocks, 5) int64
    width_counts: np.ndarray  # (n_blocks, 5) int64

    @staticmethod
    def of(blocks: Sequence[BasicBlock]) -> "KernelArrays":
        n = len(blocks)
        instr = np.zeros(n, dtype=np.int64)
        cycles = np.zeros(n, dtype=np.float64)
        br = np.zeros(n, dtype=np.int64)
        bw = np.zeros(n, dtype=np.int64)
        sends = np.zeros(n, dtype=np.int64)
        cls = np.zeros((n, len(FIGURE_4A_ORDER)), dtype=np.int64)
        wid = np.zeros((n, len(EXEC_SIZES)), dtype=np.int64)
        for block in blocks:
            s = block.summary
            i = block.block_id
            instr[i] = s.instruction_count
            cycles[i] = s.issue_cycles
            br[i] = s.bytes_read
            bw[i] = s.bytes_written
            sends[i] = s.send_count
            for c, op_class in enumerate(FIGURE_4A_ORDER):
                cls[i, c] = s.class_counts[op_class]
            for w, width in enumerate(EXEC_SIZES):
                wid[i, w] = s.width_counts[width]
        return KernelArrays(instr, cycles, br, bw, sends, cls, wid)


@dataclasses.dataclass(frozen=True)
class SendSite:
    """One send instruction's static footprint inside a block.

    The detailed simulator's batched stepping iterates these instead of
    re-scanning every instruction of every dynamic block execution.
    """

    message: SendMessage
    exec_size: int

    @property
    def is_random(self) -> bool:
        return self.message.pattern is AccessPattern.RANDOM

    @property
    def addresses_per_execution(self) -> int:
        """Stream length of one execution (matches expand_addresses)."""
        if self.message.pattern is AccessPattern.BROADCAST:
            return 1
        return self.exec_size


@dataclasses.dataclass(frozen=True)
class SendPlan:
    """Precomputed per-block send footprints of one kernel binary."""

    #: Per block id: its send instructions, in program order.
    sites: tuple[tuple[SendSite, ...], ...]
    #: Per block id: True if any of its sends draws RANDOM addresses.
    random_blocks: tuple[bool, ...]
    #: True if any send draws RANDOM addresses (consumes RNG state).
    has_random_sends: bool
    #: Per block id: RNG indices one execution's RANDOM sends consume.
    random_draws: tuple[int, ...]
    #: ``bytes_per_channel`` shared by every RANDOM site of the kernel,
    #: or None if they disagree.  When set, all random draws of an
    #: invocation target one element grid, so they can be fused into a
    #: single generator call (numpy generators emit the same values
    #: whether draws are fused or split).
    uniform_random_bytes: int | None

    @staticmethod
    def of(blocks: Sequence[BasicBlock]) -> "SendPlan":
        sites = tuple(
            tuple(
                SendSite(message=i.send, exec_size=i.exec_size)
                for i in block.instructions
                if i.is_send and i.send is not None
            )
            for block in blocks
        )
        random_blocks = tuple(
            any(site.is_random for site in block) for block in sites
        )
        random_draws = tuple(
            sum(s.exec_size for s in block if s.is_random) for block in sites
        )
        random_bytes = {
            s.message.bytes_per_channel
            for block in sites
            for s in block
            if s.is_random
        }
        return SendPlan(
            sites=sites,
            random_blocks=random_blocks,
            has_random_sends=any(random_blocks),
            random_draws=random_draws,
            uniform_random_bytes=(
                random_bytes.pop() if len(random_bytes) == 1 else None
            ),
        )


class _Lowered:
    """A kernel's derived state, computed on first use.

    Every binary over the same block tuple shares one instance (a JIT
    output and its source body; the GT-Pin rewrites of one kernel for
    one capability set).  Only ``arrays`` is pickled: the rest is
    rebuilt on demand, so profile pickles carry no lowered state.
    """

    __slots__ = (
        "arrays", "footprints", "send_plan", "exec_size_set", "walk",
        "rewrites", "totals",
    )

    def __init__(self, arrays: "KernelArrays | None" = None) -> None:
        self.arrays = arrays
        #: (n_blocks, 3) int64: instructions, bytes read, bytes written.
        self.footprints: np.ndarray | None = None
        self.send_plan: SendPlan | None = None
        self.exec_size_set: frozenset[int] | None = None
        self.walk: CountWalk | None = None
        #: rewrite key -> (rewritten blocks, their shared _Lowered).
        self.rewrites: dict[Hashable, tuple] = {}
        #: (threads, trip-arg values) -> invocation_totals result.
        self.totals: dict[tuple, tuple] = {}

    def __getstate__(self) -> tuple:
        return (self.arrays,)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)


#: Entries a kernel's invocation-totals memo holds before it is cleared.
_TOTALS_CAPACITY = 4096


def validate_exec_sizes(
    binary: "KernelBinary",
    allowed: frozenset[int] | set[int],
    provider: str = "provider",
) -> None:
    """Reject a binary whose exec sizes a backend cannot execute.

    ``allowed`` is a provider's capability exec-size set
    (:class:`repro.gpu.providers.ProviderCapabilities`); both the compile
    width and every instruction execution size must be members.  Raises
    ``ValueError`` naming the offending sizes.
    """
    unsupported = sorted(binary.exec_size_set - frozenset(allowed))
    if unsupported:
        raise ValueError(
            f"kernel {binary.name!r} uses execution sizes {unsupported} "
            f"not supported by provider {provider!r} "
            f"(supported: {sorted(allowed)})"
        )


class KernelBinary:
    """A JIT-compiled GPU kernel: blocks + control structure + signature.

    Parameters
    ----------
    name:
        The OpenCL kernel name (unique within its program).
    blocks:
        Basic blocks with contiguous ids ``0..n-1``; block 0 is the entry.
    program:
        Structured control-flow tree over those block ids.
    simd_width:
        The width the JIT compiled the kernel's work-items at; work-items
        per hardware thread.  Individual instructions may still use other
        execution sizes (address setup is often SIMD1).
    arg_names:
        Declared kernel argument names, in ``clSetKernelArg`` index order.
    source_lines:
        Approximate source size, for static source-vs-assembly reporting.
    """

    def __init__(
        self,
        name: str,
        blocks: Sequence[BasicBlock],
        program: Node,
        simd_width: int = 16,
        arg_names: tuple[str, ...] = (),
        source_lines: int = 0,
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        if not name:
            raise ValueError("kernel name must be non-empty")
        if simd_width not in EXEC_SIZES:
            raise ValueError(
                f"simd_width must be one of {EXEC_SIZES}, got {simd_width}"
            )
        self.name = name
        self.blocks: tuple[BasicBlock, ...] = tuple(blocks)
        if not self.blocks:
            raise ValueError(f"kernel {name!r} has no basic blocks")
        ids = [b.block_id for b in self.blocks]
        if ids != list(range(len(ids))):
            raise ValueError(
                f"kernel {name!r}: block ids must be contiguous 0..n-1, got {ids}"
            )
        referenced = block_ids(program)
        if not referenced:
            raise ValueError(f"kernel {name!r}: program tree references no blocks")
        out_of_range = [b for b in referenced if b >= len(self.blocks)]
        if out_of_range:
            raise ValueError(
                f"kernel {name!r}: program references unknown blocks {out_of_range}"
            )
        self.program = program
        self.simd_width = simd_width
        self.arg_names = tuple(arg_names)
        self.source_lines = source_lines
        self.metadata = dict(metadata or {})
        self._lowered = _Lowered()

    def __setstate__(self, state: dict) -> None:
        if "_lowered" not in state:
            # Pickled before the derived state moved into _Lowered.
            arrays = state.get("_arrays")
            state = {k: v for k, v in state.items() if k[:1] != "_"}
            state["_lowered"] = _Lowered(arrays)
        self.__dict__.update(state)

    # -- structure ----------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block(self, block_id: int) -> BasicBlock:
        return self.blocks[block_id]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    @property
    def arrays(self) -> KernelArrays:
        """Cached dense static footprints (see :class:`KernelArrays`)."""
        lowered = self._lowered
        if lowered.arrays is None:
            lowered.arrays = KernelArrays.of(self.blocks)
        return lowered.arrays

    @property
    def footprints(self) -> np.ndarray:
        """Cached ``(n_blocks, 3)`` int64 matrix of per-block instruction
        counts, bytes read and bytes written.

        ``counts @ footprints`` gives an invocation's three integer
        totals in one exact int64 product.
        """
        lowered = self._lowered
        if lowered.footprints is None:
            arrays = self.arrays
            lowered.footprints = np.column_stack((
                arrays.instruction_counts, arrays.bytes_read,
                arrays.bytes_written,
            ))
        return lowered.footprints

    @property
    def send_plan(self) -> SendPlan:
        """Cached per-block send footprints (see :class:`SendPlan`)."""
        lowered = self._lowered
        if lowered.send_plan is None:
            lowered.send_plan = SendPlan.of(self.blocks)
        return lowered.send_plan

    @property
    def count_walk(self) -> CountWalk:
        """The program tree lowered once for block-count resolution.

        ``binary.count_walk.counts(args, rng, binary.n_blocks)`` equals
        :func:`~repro.isa.program.execution_counts` on ``binary.program``.
        """
        lowered = self._lowered
        if lowered.walk is None:
            lowered.walk = CountWalk(self.program)
        return lowered.walk

    def invocation_totals(
        self,
        args: Mapping[str, float],
        rng: np.random.Generator,
        n_hw_threads: int,
    ) -> tuple[np.ndarray, int, int, int, float]:
        """Block counts and dynamic totals of one invocation.

        Returns ``(block_counts, instructions, bytes_read, bytes_written,
        issue_cycles)``: the :attr:`count_walk` counts times
        ``n_hw_threads``, the three integer totals from one exact int64
        product with :attr:`footprints`, and issue cycles from one float
        product.  A jitter-free walk reads nothing but its trip
        arguments' values and draws no RNG, so its result is memoized
        on ``(n_hw_threads, those values)`` and a hit returns the same
        numbers with a fresh copy of the counts.
        """
        walk = self.count_walk
        memo = key = None
        if not walk.jittered:
            memo = self._lowered.totals
            key = (n_hw_threads, *[
                float(args.get(name, 0.0)) for name in walk.trip_arg_order
            ])
            hit = memo.get(key)
            if hit is not None:
                return (hit[0].copy(), *hit[1:])
        block_counts = walk.counts(args, rng, self.n_blocks) * n_hw_threads
        instructions, bytes_read, bytes_written = (
            block_counts @ self.footprints
        ).tolist()
        issue_cycles = float(
            block_counts.astype(np.float64) @ self.arrays.issue_cycles
        )
        totals = (block_counts, instructions, bytes_read, bytes_written,
                  issue_cycles)
        if memo is not None:
            if len(memo) >= _TOTALS_CAPACITY:
                memo.clear()
            memo[key] = (block_counts.copy(), *totals[1:])
        return totals

    @property
    def is_deterministic(self) -> bool:
        """True if simulating an invocation consumes no RNG state.

        Holds when no loop trip is jittered and no send uses a RANDOM
        address pattern; such kernels' simulation results are a pure
        function of (arguments, global work size, cache state), which
        enables invocation memoization.
        """
        return self.counts_deterministic and not (
            self.send_plan.has_random_sends
        )

    @property
    def counts_deterministic(self) -> bool:
        """True if per-thread block counts are a pure function of args.

        Weaker than :attr:`is_deterministic`: a kernel whose sends draw
        RANDOM addresses still has deterministic *counts* as long as no
        trip is jittered, so its counts can be precomputed or cached
        without touching the RNG.
        """
        return not self.count_walk.jittered

    @property
    def exec_size_set(self) -> frozenset[int]:
        """Cached set of execution sizes the binary actually uses.

        Includes the compile width.  Device providers check this against
        their capability flags (:func:`validate_exec_sizes`) before
        accepting a dispatch.
        """
        lowered = self._lowered
        if lowered.exec_size_set is None:
            sizes = {self.simd_width}
            for block in self.blocks:
                for instr in block.instructions:
                    sizes.add(instr.exec_size)
            lowered.exec_size_set = frozenset(sizes)
        return lowered.exec_size_set

    @property
    def trip_args(self) -> frozenset[str]:
        """Cached argument names the kernel's trip counts consume.

        Intersected with the host-written ``__`` buffer namespace this
        is the kernel's buffer *read set*: the only device-memory state
        that can change its dynamic behaviour.
        """
        return self.count_walk.trip_args

    # -- static statistics ----------------------------------------------------

    @property
    def static_instruction_count(self) -> int:
        return int(self.arrays.instruction_counts.sum())

    @property
    def static_encoded_bytes(self) -> int:
        return sum(b.summary.encoded_bytes for b in self.blocks)

    def static_class_counts(self) -> dict[OpClass, int]:
        totals = self.arrays.class_counts.sum(axis=0)
        return {
            op_class: int(totals[i])
            for i, op_class in enumerate(FIGURE_4A_ORDER)
        }

    # -- rewriting support -----------------------------------------------------

    def with_blocks(
        self, blocks: Sequence[BasicBlock], metadata: Mapping[str, object] | None = None
    ) -> "KernelBinary":
        """A copy sharing this kernel's structure and signature.

        ``metadata`` is merged over this binary's.  Given this binary's
        own block tuple (what the JIT does), the copy also shares its
        derived state, so nothing is recomputed.
        """
        blocks = tuple(blocks)
        if blocks is self.blocks:
            return self._derive(blocks, self._lowered, metadata)
        return KernelBinary(
            name=self.name,
            blocks=blocks,
            program=self.program,
            simd_width=self.simd_width,
            arg_names=self.arg_names,
            source_lines=self.source_lines,
            metadata={**self.metadata, **(metadata or {})},
        )

    def rewritten(
        self,
        key: Hashable,
        rewrite: Callable[["KernelBinary"], Sequence[BasicBlock]],
        metadata: Mapping[str, object] | None = None,
    ) -> "KernelBinary":
        """A copy whose blocks are ``rewrite(self)``, computed once per key.

        The rewritten blocks and their derived state are memoized under
        ``key`` on the state this binary shares with its source body, so
        every later build of the kernel reuses them.  ``rewrite`` must
        depend only on ``key`` and this binary's blocks and program; the
        GT-Pin rewriter keys on its capability set.  The original binary
        is never modified.
        """
        memo = self._lowered.rewrites
        entry = memo.get(key)
        if entry is None:
            first = self.with_blocks(rewrite(self))
            entry = memo.setdefault(key, (first.blocks, first._lowered))
        blocks, lowered = entry
        return self._derive(blocks, lowered, metadata)

    def _derive(
        self,
        blocks: tuple[BasicBlock, ...],
        lowered: _Lowered,
        metadata: Mapping[str, object] | None,
    ) -> "KernelBinary":
        """A copy over already-validated ``blocks`` and their state."""
        derived = object.__new__(KernelBinary)
        derived.__dict__.update(self.__dict__)
        derived.blocks = blocks
        derived.metadata = {**self.metadata, **(metadata or {})}
        derived._lowered = lowered
        return derived

    def disassemble(self) -> str:
        header = (
            f"// kernel {self.name}  simd{self.simd_width}"
            f"  args={list(self.arg_names)}"
            f"  {self.n_blocks} blocks,"
            f" {self.static_instruction_count} static instructions"
        )
        return "\n".join([header] + [b.disassemble() for b in self.blocks])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelBinary({self.name!r}, simd{self.simd_width}, "
            f"{self.n_blocks} blocks)"
        )

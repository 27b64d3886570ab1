"""A detailed (instruction-granularity) reference GPU simulator.

The paper never builds a simulator -- it quotes the cost of detailed
simulation (up to 2,000,000x slowdown) and shows how to avoid paying it.
We *do* build one, for two reasons: to demonstrate the sampled-simulation
loop end-to-end (Section V-D's payoff), and to measure the speed gap that
motivates the whole methodology (Section III-C's comparison).

The model is an in-order EU pipeline: every dynamic instruction of a
representative hardware thread is stepped individually; sends walk a
set-associative cache and pay hit/miss latencies; thread-level parallelism
is applied analytically at the end (threads spread across EUs).

Two engines produce **bit-identical** results:

* ``engine="reference"`` steps every dynamic instruction in a Python
  loop and walks the cache address-by-address -- deliberately *detailed
  where it matters for cost*, which makes it orders of magnitude slower
  per instruction than the native-execution model in
  :mod:`repro.gpu.execution`.  It is the behaviour oracle.
* ``engine="batched"`` (the default) executes the same model as array
  operations: non-send work collapses to one dot product over the
  kernel's precomputed per-block footprints, address streams run through
  :meth:`~repro.gpu.cache.CacheSimulator.access_stream` in as few calls
  as possible, and repeated block executions fast-forward once the
  cache reaches a steady state.  It simulates a synchronization epoch's
  invocations (:mod:`repro.simulation.dispatch_graph`) as one unit --
  their pending address streams merge into shared cache calls (with
  per-dispatch stats recovered through stream attribution) -- and
  memoizes whole epochs on the per-dispatch resolved block counts plus
  the epoch-entry cache signature.  A lone
  :meth:`DetailedGPUSimulator.simulate` call is an epoch of one, so the
  same memo covers it.  Keying on resolved *counts* rather than raw
  argument values means host-data drift that rounds away in the trip
  counts cannot defeat the memo.

Bit-identity across engines rests on two contracts.  Issue-cycle costs
are integer-valued (``Opcode.issue_cycles`` is an int, width scaling is
x1 or x2), so any summation order yields the same float.  Send latencies
are not exact, so both engines collect them as one term per dynamic send
and combine them with ``math.fsum``, whose result depends only on the
term multiset -- never on evaluation order.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import telemetry
from repro.obs import events as obs_events
from repro.gpu.cache import CacheConfig, CacheSimulator, CacheState, CacheStats
from repro.gpu.device import DeviceSpec
from repro.gpu.memory import (
    DEFAULT_SURFACE,
    expand_addresses,
    expand_addresses_batched,
)
from repro.isa.kernel import KernelBinary

#: Cache hit/miss service latencies, EU cycles.
HIT_LATENCY_CYCLES = 40.0
MISS_LATENCY_CYCLES = 320.0

#: Fraction of a send's latency hidden by SMT on the modelled EU.
LATENCY_HIDING = 0.75

#: Supported simulation engines.
ENGINES = ("batched", "reference")

#: Chunk of block executions drawn per RNG call when a block has RANDOM
#: sends (no steady state to fast-forward to).
_RANDOM_CHUNK = 1024

#: Pending random-stream addresses that trigger a cache flush; bounds
#: both the working set and the round count of one merged cache call.
_FLUSH_ADDRESSES = 16384

#: Deterministic blocks with at most this many executions (and at most
#: ``_TILE_ADDRESSES`` total addresses) are tiled into the merged pending
#: batch instead of running the steady-state machinery, which would force
#: a flush (it reads the live cache state for its signature check).  Both
#: bounds matter: each tiled execution revisits the same sets, so the
#: merged cache call's round count grows with the execution count, and
#: large counts are exactly where steady-state fast-forwarding is O(1).
_TILE_EXECUTIONS = 8
_TILE_ADDRESSES = 4096

#: Epoch-memo capacity; beyond it the oldest entry is dropped.
_MEMO_CAPACITY = 1024


def _latency_term(hits: int, misses: int, accesses: int) -> float:
    """Visible-latency cycles one send execution adds to the pipe.

    Shared by both engines so the float operations (and therefore the
    rounding) are identical.
    """
    latency = (
        hits * HIT_LATENCY_CYCLES + misses * MISS_LATENCY_CYCLES
    ) / max(1, accesses)
    return latency * (1.0 - LATENCY_HIDING)


@dataclasses.dataclass(frozen=True)
class SimulatedDispatch:
    """Detailed-simulation result for one kernel invocation."""

    kernel_name: str
    instruction_count: int  #: whole-invocation dynamic instructions
    simulated_instructions: int  #: instructions actually stepped
    cycles: float
    seconds: float
    cache: CacheStats  #: this dispatch's cache activity (delta, not lifetime)

    @property
    def spi(self) -> float:
        if self.instruction_count == 0:
            return 0.0
        return self.seconds / self.instruction_count


@dataclasses.dataclass
class _EpochMemoEntry:
    """Everything needed to replay one memoized epoch of dispatches.

    Stored only for all-deterministic epochs, so no RNG state is needed;
    each result's ``cache`` field holds that dispatch's exact delta.
    """

    results: list[SimulatedDispatch]
    total_delta: CacheStats
    end_state: CacheState
    end_sig: bytes  #: ``end_state.signature()``, precomputed
    stepped: int  #: sum of the results' simulated_instructions


class DetailedGPUSimulator:
    """In-order, cache-aware, instruction-stepping GPU model."""

    def __init__(
        self,
        device: DeviceSpec | str,
        cache_config: CacheConfig | None = None,
        engine: str = "batched",
        memoize: bool = True,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if isinstance(device, str):
            # Accept registry tokens ("hd4000", "wave64:w64-cu28", ...)
            # everywhere a spec is accepted.
            from repro.gpu.providers import resolve_device

            device = resolve_device(device)
        self.device = device
        self.engine = engine
        # The default geometry is the device's own modelled LLC: capacity
        # from the spec, line size / associativity from its provider's
        # capability flags (identical to CacheConfig() on the HD 4000).
        self.cache = CacheSimulator(
            cache_config or CacheConfig.for_device(device)
        )
        #: Total instructions stepped over this simulator's lifetime --
        #: the cost metric behind "simulation is ~10^6x slower".  The
        #: batched engine counts the instructions its batches and memo
        #: replays *cover*, so both engines report identical totals.
        self.total_simulated_instructions = 0
        #: Epoch memoization (batched engine): keyed on each dispatch's
        #: *resolved block counts* rather than raw argument values, so
        #: host-data drift that rounds to the same trip counts still hits.
        self.memoize = memoize and engine == "batched"
        self._epoch_memo: dict[tuple, _EpochMemoEntry] = {}
        #: Resolved per-thread counts of jitter-free kernels, keyed on
        #: (kernel name, trip-argument values) -- the inputs counts are a
        #: pure function of (see ``KernelBinary.counts_deterministic``).
        self._counts_cache: dict[tuple, np.ndarray] = {}
        #: (cache.mutations, canonical-state signature) -- the cache's
        #: signature is recomputed only when its contents have changed,
        #: so chains of memoized invocations never re-snapshot it.
        self._state_sig: tuple[int, bytes] | None = None
        #: Per-block address-stream templates, keyed by ``id()`` of the
        #: block's send-site tuple (hashing the dataclasses themselves is
        #: measurably expensive); each value keeps the tuple alive and is
        #: identity-checked on lookup, so a recycled id cannot alias.
        self._templates: dict[int, tuple] = {}
        self._random_templates: dict[int, tuple] = {}
        #: Proven cache fixed points per block template: signature of the
        #: touched sets -> (one execution's latency terms, stats batch).
        #: A hit replays every execution of the block without touching
        #: the cache arrays at all.
        self._block_memo: dict[int, dict[bytes, tuple]] = {}
        self._block_memo_entries = 0
        self.epoch_memo_hits = 0
        self.epoch_memo_misses = 0
        #: Instructions whose stepping was skipped via memo replay.
        self.memo_stepped_avoided = 0
        #: Block executions skipped by steady-state fast-forwarding.
        self.steady_state_skips = 0
        #: Cross-dispatch batching bookkeeping (simulate_epoch calls).
        self.epoch_count = 0
        self.epoch_dispatches = 0
        self.max_batch_width = 0

    def simulate(
        self,
        binary: KernelBinary,
        arg_values: Mapping[str, float],
        global_work_size: int,
        rng: np.random.Generator,
    ) -> SimulatedDispatch:
        """Step one invocation instruction-by-instruction."""
        tm = telemetry.get()
        with tm.span(
            f"simulate.{binary.name}", category="simulation",
            global_work_size=global_work_size,
        ) as span:
            if self.engine == "reference":
                result = self._simulate_reference(
                    binary, arg_values, global_work_size, rng
                )
            else:
                # A lone dispatch is an epoch of one: the same streaming
                # walk, and the same counts-keyed epoch memo.
                result = self._epoch_dispatch(
                    [(binary, arg_values, global_work_size)], rng
                )[0]
            span.annotate(stepped=result.simulated_instructions)
        if tm.enabled:
            tm.inc("simulation.stepped_instructions",
                   result.simulated_instructions)
            tm.inc("simulation.simulated_invocations")
        return result

    def _cache_signature(self) -> bytes:
        """The cache's canonical-state signature, mutation-cached."""
        cached = self._state_sig
        if cached is not None and cached[0] == self.cache.mutations:
            return cached[1]
        sig = self.cache.canonical_state().signature()
        self._state_sig = (self.cache.mutations, sig)
        return sig

    # -- batched (cross-dispatch) engine ------------------------------------

    def simulate_epoch(
        self,
        items: Sequence[tuple[KernelBinary, Mapping[str, float], int]],
        rng: np.random.Generator,
        counts: Sequence[np.ndarray | None] | None = None,
    ) -> list[SimulatedDispatch]:
        """Simulate one hazard-free epoch of dispatches as a unit.

        ``items`` holds ``(binary, arg_values, global_work_size)`` in
        dispatch order; the caller (see
        :mod:`repro.simulation.dispatch_graph`) guarantees no dispatch
        depends on another.  Results are bit-identical to simulating the
        invocations one at a time -- batching changes speed, never
        outcomes.  ``counts`` optionally supplies precomputed per-thread
        block counts (only valid for jitter-free kernels, e.g. resolved
        ahead of time by a worker pool); ``None`` entries resolve here.

        On the reference engine this degrades to a per-invocation loop
        (and ``counts`` is ignored).
        """
        items = list(items)
        if not items:
            return []
        if self.engine == "reference":
            return [
                self.simulate(binary, arg_values, gws, rng)
                for binary, arg_values, gws in items
            ]
        width = len(items)
        self.epoch_count += 1
        self.epoch_dispatches += width
        if width > self.max_batch_width:
            self.max_batch_width = width
        log = obs_events.get()
        if log.enabled:
            log.debug(
                "simulation.epoch",
                width=width,
                kernels=",".join(sorted({b.name for b, _, _ in items})),
            )
        tm = telemetry.get()
        with tm.span(
            "simulate.epoch", category="simulation", dispatches=width
        ) as span:
            results = self._epoch_dispatch(items, rng, counts)
            if tm.enabled:
                stepped = sum(r.simulated_instructions for r in results)
                span.annotate(stepped=stepped)
        if tm.enabled:
            tm.inc("simulation.epoch_count")
            tm.inc("simulation.simulated_invocations", width)
            tm.inc("simulation.stepped_instructions", stepped)
            tm.observe_hist("simulation.batch_width", width, "dispatches")
        return results

    def batch_stats(self) -> dict[str, float]:
        """Cross-dispatch batching summary over this simulator's life."""
        epochs = self.epoch_count
        return {
            "epochs": epochs,
            "dispatches": self.epoch_dispatches,
            "mean_width": (
                self.epoch_dispatches / epochs if epochs else 0.0
            ),
            "max_width": self.max_batch_width,
            "epoch_memo_hits": self.epoch_memo_hits,
            "epoch_memo_misses": self.epoch_memo_misses,
        }

    def _resolved_counts(
        self,
        binary: KernelBinary,
        arg_values: Mapping[str, float],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-thread block counts, cached for jitter-free kernels.

        Jitter-free counts are a pure function of the kernel's trip
        arguments (missing ones resolve as 0.0, so the key uses the same
        default), and resolving them consumes no RNG -- the cache is
        transparent to both results and generator state.
        """
        if not binary.counts_deterministic:
            return binary.count_walk.counts(
                arg_values, rng, binary.n_blocks
            )
        key = (
            binary.name,
            tuple(
                sorted(
                    (name, float(arg_values.get(name, 0.0)))
                    for name in binary.trip_args
                )
            ),
        )
        counts = self._counts_cache.get(key)
        if counts is None:
            if len(self._counts_cache) >= _MEMO_CAPACITY * 4:
                self._counts_cache.clear()
            counts = binary.count_walk.counts(
                arg_values, rng, binary.n_blocks
            )
            counts.setflags(write=False)
            self._counts_cache[key] = counts
        return counts

    def _epoch_dispatch(
        self,
        items: list[tuple[KernelBinary, Mapping[str, float], int]],
        rng: np.random.Generator,
        counts: Sequence[np.ndarray | None] | None = None,
    ) -> list[SimulatedDispatch]:
        """Epoch-memo lookup + streaming walk for one epoch."""
        memoizable = self.memoize and all(
            binary.is_deterministic for binary, _, _ in items
        )
        if not memoizable:
            return self._simulate_epoch_stream(items, rng, counts)

        tm = telemetry.get()
        resolved = [
            counts[i]
            if counts is not None and counts[i] is not None
            else self._resolved_counts(binary, arg_values, rng)
            for i, (binary, arg_values, _) in enumerate(items)
        ]
        key = (
            tuple(
                (binary.name, resolved[i].tobytes(), gws)
                for i, (binary, _, gws) in enumerate(items)
            ),
            self._cache_signature(),
        )
        entry = self._epoch_memo.get(key)
        if entry is not None:
            self.epoch_memo_hits += 1
            self.memo_stepped_avoided += entry.stepped
            self.cache.restore_state(
                entry.end_state, entry.total_delta.accesses
            )
            self.cache.stats = self.cache.stats.merge(entry.total_delta)
            self._state_sig = (self.cache.mutations, entry.end_sig)
            self.total_simulated_instructions += entry.stepped
            if tm.enabled:
                tm.inc("simulation.epoch_memo_hits")
                tm.inc("simulation.memo_stepped_avoided", entry.stepped)
            return [
                dataclasses.replace(result, cache=result.cache.copy())
                for result in entry.results
            ]

        self.epoch_memo_misses += 1
        if tm.enabled:
            tm.inc("simulation.epoch_memo_misses")
        stats_before = self.cache.stats
        results = self._simulate_epoch_stream(items, rng, resolved)
        if len(self._epoch_memo) >= _MEMO_CAPACITY:
            self._epoch_memo.pop(next(iter(self._epoch_memo)))
        end_state = self.cache.canonical_state()
        end_sig = end_state.signature()
        self._state_sig = (self.cache.mutations, end_sig)
        self._epoch_memo[key] = _EpochMemoEntry(
            results=[
                dataclasses.replace(r, cache=r.cache.copy())
                for r in results
            ],
            total_delta=self.cache.stats.minus(stats_before),
            end_state=end_state,
            end_sig=end_sig,
            stepped=sum(r.simulated_instructions for r in results),
        )
        return results

    def _simulate_epoch_stream(
        self,
        items: list[tuple[KernelBinary, Mapping[str, float], int]],
        rng: np.random.Generator,
        counts: Sequence[np.ndarray | None] | None = None,
    ) -> list[SimulatedDispatch]:
        """The array walk, with pending streams shared epoch-wide.

        Pending pieces carry their owner dispatch's index; a flush merges
        them into one cache call and recovers each owner's exact stats
        slice through stream attribution
        (:meth:`repro.gpu.cache.StreamOutcome.slice_stats`).  A
        single-dispatch epoch skips attribution: its delta is the cache's
        whole change.  RNG draws still happen strictly in dispatch order
        -- jitter resolution, then the invocation's fused pool -- so
        generator state evolves exactly as in per-invocation simulation.
        """
        tm = telemetry.get()
        log = obs_events.get()
        single = len(items) == 1
        stats_before = self.cache.stats
        # Per dispatch: latency terms as ordered pieces (lists/iterators),
        # flattened once into fsum, and its attributed cache-stats slices.
        term_pieces: list[list[Iterable[float]]] = [[] for _ in items]
        owner_stats: list[list[CacheStats]] = [[] for _ in items]
        pending: list[tuple] = []
        pending_size = 0

        def flush() -> None:
            nonlocal pending, pending_size
            if not pending:
                return
            # Dispatches are walked in order, so pending pieces are grouped
            # by owner, in owner order.
            multi_owner = pending[0][0] != pending[-1][0]
            if len(pending) == 1:
                _, addresses, writes, _segments, _lens = pending[0]
            else:
                addresses = np.concatenate([p[1] for p in pending])
                writes = np.concatenate([p[2] for p in pending])
                if multi_owner and log.enabled:
                    log.debug(
                        "simulation.batch",
                        owners=len({piece[0] for piece in pending}),
                        pieces=len(pending),
                        addresses=int(addresses.size),
                    )
            outcome = self.cache.access_stream(
                addresses, writes, attribute=multi_owner
            )
            # One stats slice per run of same-owner pieces.
            offset = 0
            run_owner, run_start = pending[0][0], 0
            for owner, addrs, _w, segments, lens_f in pending:
                if owner != run_owner:
                    owner_stats[run_owner].append(
                        outcome.slice_stats(run_start, offset)
                    )
                    run_owner, run_start = owner, offset
                size = addrs.size
                term_pieces[owner].append(
                    self._segment_terms(
                        outcome.hit[offset:offset + size], segments, lens_f
                    )
                )
                offset += size
            if multi_owner:
                owner_stats[run_owner].append(
                    outcome.slice_stats(run_start, offset)
                )
            elif not single:
                owner_stats[run_owner].append(outcome.to_stats())
            pending = []
            pending_size = 0

        walked: list[tuple] = []
        for i, (binary, arg_values, global_work_size) in enumerate(items):
            n_threads = max(
                1, -(-global_work_size
                     // self.device.items_per_thread(binary.simd_width))
            )  # ceil div
            if counts is not None and counts[i] is not None:
                per_thread = counts[i]
            else:
                per_thread = self._resolved_counts(binary, arg_values, rng)
            arrays = binary.arrays
            plan = binary.send_plan
            # All non-send pipe occupancy in one dot product.  Issue
            # cycles are integer-valued floats, so this is exact and
            # equals the reference engine's per-instruction running sum.
            issue_cycles = float(per_thread @ arrays.issue_cycles)
            stepped = int(per_thread @ arrays.instruction_counts)
            if tm.enabled:
                # Both engines observe the same per-block products, so
                # the histogram is engine-independent.
                tm.histogram(
                    "simulation.block_steps", "instructions"
                ).observe_array(per_thread * arrays.instruction_counts)

            # With a single element grid behind every RANDOM site, the
            # whole invocation's random indices come from one fused
            # generator call (bit-identical to the reference's per-send
            # draws); each random block then slices its span off the pool.
            pool: np.ndarray | None = None
            pool_cursor = 0
            element = plan.uniform_random_bytes
            if element is not None:
                total_draws = 0
                for block_id, draws_per_exec in enumerate(plan.random_draws):
                    if draws_per_exec:
                        total_draws += (
                            int(per_thread[block_id]) * draws_per_exec
                        )
                if total_draws:
                    n_elements = max(1, DEFAULT_SURFACE.size_bytes // element)
                    pool = (
                        DEFAULT_SURFACE.base_address
                        + element * rng.integers(
                            0, n_elements, size=total_draws, dtype=np.int64
                        )
                    )

            for block_id, executions in enumerate(per_thread.tolist()):
                if executions == 0 or not plan.sites[block_id]:
                    continue
                sites = plan.sites[block_id]
                if plan.random_blocks[block_id]:
                    draws = None
                    if pool is not None:
                        need = executions * plan.random_draws[block_id]
                        draws = pool[pool_cursor:pool_cursor + need]
                        pool_cursor += need
                    for piece in self._random_pieces(
                        sites, executions, rng, draws
                    ):
                        pending.append((i, *piece))
                        pending_size += piece[0].size
                        if pending_size >= _FLUSH_ADDRESSES:
                            flush()
                elif executions == 1:
                    # A single execution has no steady state to detect;
                    # its fixed template stream joins the merged batch.
                    addresses, writes, segments, lens_f, _ = (
                        self._det_template(sites)
                    )
                    pending.append((i, addresses, writes, segments, lens_f))
                    pending_size += addresses.size
                    if pending_size >= _FLUSH_ADDRESSES:
                        flush()
                elif (
                    pending
                    and executions <= _TILE_EXECUTIONS
                    and executions * self._det_template(sites)[0].size
                    <= _TILE_ADDRESSES
                    and self._block_memo_unpromising(sites)
                ):
                    # Small repeated blocks whose fixed-point memo keeps
                    # missing (interleaved random streams churn their
                    # sets' signatures): tiling the template -- executions
                    # back to back, exactly the stream the steady-state
                    # path would run -- into the merged batch beats
                    # forcing a flush.
                    piece = self._tiled_det_piece(sites, executions)
                    pending.append((i, *piece))
                    pending_size += piece[0].size
                    if pending_size >= _FLUSH_ADDRESSES:
                        flush()
                else:
                    # The steady-state path reads live cache state, so
                    # the shared pending batch must land first; in a
                    # multi-dispatch epoch the block run's stats are
                    # snapshot-attributed to this owner.
                    flush()
                    before = self.cache.stats
                    term_pieces[i].append(
                        self._run_deterministic_block(sites, executions)
                    )
                    if not single:
                        owner_stats[i].append(self.cache.stats.minus(before))
            walked.append(
                (binary, per_thread, n_threads, stepped, issue_cycles)
            )
        flush()

        return [
            self._finish(
                binary,
                per_thread,
                n_threads,
                stepped,
                issue_cycles + math.fsum(
                    itertools.chain.from_iterable(term_pieces[i])
                ),
                self.cache.stats.minus(stats_before) if single
                else CacheStats.merge_all(owner_stats[i]),
            )
            for i, (binary, per_thread, n_threads, stepped, issue_cycles)
            in enumerate(walked)
        ]

    # -- shared model pieces ------------------------------------------------

    def _finish(
        self,
        binary: KernelBinary,
        per_thread: np.ndarray,
        n_threads: int,
        stepped: int,
        cycles: float,
        cache_delta: CacheStats,
    ) -> SimulatedDispatch:
        """Thread-level extrapolation, identical for both engines."""
        device = self.device
        parallelism = device.eu_count * device.threads_per_eu
        effective_passes = max(1.0, n_threads / parallelism)
        # SMT within an EU shares one issue pipe: threads_per_eu threads
        # interleave, so a full machine pass costs ~threads_per_eu times
        # the single-thread cycles spread over the EUs.
        total_cycles = cycles * effective_passes * device.threads_per_eu
        seconds = total_cycles / device.frequency_hz
        instruction_count = (
            int(per_thread @ binary.arrays.instruction_counts) * n_threads
        )
        self.total_simulated_instructions += stepped
        return SimulatedDispatch(
            kernel_name=binary.name,
            instruction_count=instruction_count,
            simulated_instructions=stepped,
            cycles=total_cycles,
            seconds=seconds,
            cache=cache_delta,
        )

    # -- reference engine ---------------------------------------------------

    def _simulate_reference(
        self,
        binary: KernelBinary,
        arg_values: Mapping[str, float],
        global_work_size: int,
        rng: np.random.Generator,
    ) -> SimulatedDispatch:
        n_threads = max(
            1, -(-global_work_size
                 // self.device.items_per_thread(binary.simd_width))
        )  # ceil div
        per_thread = binary.count_walk.counts(
            arg_values, rng, binary.n_blocks
        )

        tm = telemetry.get()
        if tm.enabled:
            tm.histogram(
                "simulation.block_steps", "instructions"
            ).observe_array(per_thread * binary.arrays.instruction_counts)

        issue_cycles = 0.0
        latency_terms: list[float] = []
        stepped = 0
        stats_before = self.cache.stats
        for block_id, executions in enumerate(per_thread.tolist()):
            if executions == 0:
                continue
            block = binary.block(block_id)
            for _ in range(executions):
                for instr in block.instructions:
                    stepped += 1
                    issue_cycles += instr.issue_cycles
                    if instr.is_send and instr.send is not None:
                        addresses = expand_addresses(
                            instr.send,
                            instr.exec_size,
                            1,
                            DEFAULT_SURFACE,
                            rng=rng,
                        )
                        batch = self.cache.access_reference(
                            addresses, is_write=instr.send.writes
                        )
                        latency_terms.append(
                            _latency_term(
                                batch.hits, batch.misses, batch.accesses
                            )
                        )

        cycles = issue_cycles + math.fsum(latency_terms)
        return self._finish(
            binary, per_thread, n_threads, stepped, cycles,
            self.cache.stats.minus(stats_before),
        )

    def _site_template(
        self, sites, rng: np.random.Generator | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One execution's (addresses, writes, segment ids, lengths).

        With ``rng`` None every RANDOM site must be absent; the caller
        passes the live generator only when drawing a concrete execution.
        """
        parts = [
            expand_addresses(
                site.message, site.exec_size, 1, DEFAULT_SURFACE, rng=rng
            )
            for site in sites
        ]
        lengths = np.array([p.size for p in parts], dtype=np.int64)
        addresses = np.concatenate(parts)
        writes = np.repeat(
            np.array([s.message.writes for s in sites], dtype=bool), lengths
        )
        segments = np.repeat(np.arange(len(sites)), lengths)
        return addresses, writes, segments, lengths

    def _segment_terms(
        self,
        hit: np.ndarray,
        segments: np.ndarray,
        lens_f: np.ndarray,
    ) -> list[float]:
        """Per-send latency terms from one batch's per-access hit mask.

        ``lens_f`` is the per-segment access count as float64.  The array
        expression performs the same IEEE-754 double operations as
        :func:`_latency_term` (hit/miss counts are exact in float64), so
        the terms are bit-identical to the scalar computation.
        """
        seg_hits = np.bincount(segments, weights=hit, minlength=lens_f.size)
        latency = (
            seg_hits * HIT_LATENCY_CYCLES
            + (lens_f - seg_hits) * MISS_LATENCY_CYCLES
        ) / lens_f
        return (latency * (1.0 - LATENCY_HIDING)).tolist()

    def _det_template(self, sites) -> tuple:
        """Cached one-execution stream of a block without RANDOM sends."""
        cached = self._templates.get(id(sites))
        if cached is None or cached[0] is not sites:
            addresses, writes, segments, lengths = self._site_template(
                sites, rng=None
            )
            touched = np.unique(self.cache._split(addresses)[0])
            lens_f = lengths.astype(np.float64)
            cached = (sites, addresses, writes, segments, lens_f, touched, {})
            self._templates[id(sites)] = cached
        return cached[1:6]

    def _tiled_det_piece(self, sites, executions: int) -> tuple:
        """``executions`` back-to-back template streams as one piece.

        Cached per execution count (bounded by ``_TILE_ADDRESSES``
        addresses each, so the cache stays small).
        """
        cached = self._templates[id(sites)]
        tiled = cached[6].get(executions)
        if tiled is None:
            addresses, writes, segments, lens_f = cached[1:5]
            n_sites = lens_f.size
            tiled = (
                np.tile(addresses, executions),
                np.tile(writes, executions),
                np.tile(segments, executions)
                + np.repeat(
                    np.arange(executions) * n_sites, addresses.size
                ),
                np.tile(lens_f, executions),
            )
            cached[6][executions] = tiled
        return tiled

    def _block_memo_slot(self, sites) -> tuple:
        """This block template's fixed-point memo: (sites, entries, counts).

        ``counts`` is a mutable ``[lookup hits, lookup misses]`` pair --
        the signal behind :meth:`_block_memo_unpromising`.
        """
        memo_slot = self._block_memo.get(id(sites))
        if memo_slot is None or memo_slot[0] is not sites:
            memo_slot = (sites, {}, [0, 0])
            self._block_memo[id(sites)] = memo_slot
        return memo_slot

    def _block_memo_unpromising(self, sites) -> bool:
        """True once this block's fixed-point lookups mostly miss.

        Interleaved RANDOM streams can churn a block's set signatures so
        its fixed points never recur; streaming it again then costs more
        than tiling it into the surrounding merged batch.
        """
        hits, misses = self._block_memo_slot(sites)[2]
        return misses > hits + 4

    def _run_deterministic_block(self, sites, executions: int):
        """All executions of a block whose sends draw no RNG.

        Every execution touches the same address stream, so once the
        cache's touched sets return to the state they were in before an
        execution, every later execution repeats it exactly -- stats and
        latency terms fast-forward in O(1).
        """
        addresses, writes, segments, lens_f, touched = (
            self._det_template(sites)
        )
        signature = self.cache.set_signature(touched)

        # A recorded fixed point replays every execution without running
        # the cache: the touched sets provably return to this exact
        # canonical state, so each execution repeats the stored outcome.
        # (The LRU stamps are not refreshed, but within-set recency
        # order -- the only thing replacement ever compares -- is
        # unchanged, and the clock still advances past the batch.)
        memo_slot = self._block_memo_slot(sites)
        block_memo, counts = memo_slot[1], memo_slot[2]
        entry = block_memo.get(signature)
        if entry is not None:
            counts[0] += 1
            exec_terms, batch = entry
            self.steady_state_skips += executions
            self.cache.fast_forward(batch, executions)
            if executions == 1:
                return exec_terms
            return itertools.chain.from_iterable(
                itertools.repeat(exec_terms, executions)
            )

        counts[1] += 1
        terms: list[float] = []
        for e in range(executions):
            outcome = self.cache.access_stream(addresses, writes)
            exec_terms = self._segment_terms(outcome.hit, segments, lens_f)
            terms.extend(exec_terms)
            now = self.cache.set_signature(touched)
            if now == signature:
                if self._block_memo_entries >= _MEMO_CAPACITY * 4:
                    self._block_memo.clear()
                    self._block_memo_entries = 0
                    memo_slot = (sites, {}, counts)
                    self._block_memo[id(sites)] = memo_slot
                    block_memo = memo_slot[1]
                block_memo[signature] = (exec_terms, outcome.to_stats())
                self._block_memo_entries += 1
                remaining = executions - e - 1
                if remaining:
                    self.steady_state_skips += remaining
                    self.cache.fast_forward(outcome.to_stats(), remaining)
                    return itertools.chain(
                        terms,
                        *(
                            itertools.repeat(t, remaining)
                            for t in exec_terms
                        ),
                    )
                break
            signature = now
        return terms

    def _random_pieces(self, sites, executions: int, rng, draws=None):
        """Stream pieces for all executions of a block with RANDOM sends.

        Address streams differ per execution (so no steady state); this
        yields ``(addresses, writes, segments, lens_f)`` chunks for the
        caller to merge into shared cache calls.  RNG draws happen in
        the reference order -- per execution, per send.  With ``draws``
        (this block's span of the invocation-wide fused pool) the chunks
        are assembled with O(sites) array ops; otherwise uniform random
        sites batch into one ``integers`` call per chunk (bit-identical
        to split draws either way).
        """
        cached = self._random_templates.get(id(sites))
        if cached is not None and cached[0] is not sites:
            cached = None
        if cached is None:
            random_sites = [i for i, s in enumerate(sites) if s.is_random]
            lengths = np.array(
                [s.addresses_per_execution for s in sites], dtype=np.int64
            )
            fixed_parts = {
                i: expand_addresses(
                    s.message, s.exec_size, 1, DEFAULT_SURFACE, rng=None
                )
                for i, s in enumerate(sites)
                if not s.is_random
            }
            writes_one = np.repeat(
                np.array(
                    [s.message.writes for s in sites], dtype=bool
                ),
                lengths,
            )
            # All random sites drawing the same count from the same
            # element grid can share one fused ``integers`` call per
            # chunk: numpy generators emit the same values whether the
            # draws happen fused or split, and exec-major order is
            # exactly the reference's draw order.
            uniform = (
                len(
                    {
                        (sites[i].exec_size, sites[i].message.bytes_per_channel)
                        for i in random_sites
                    }
                )
                == 1
            )
            rand_pos = {i: j for j, i in enumerate(random_sites)}
            # Layout of one execution's stream for pool assembly: per
            # site its output span and either its fixed addresses or its
            # span within the execution's pool draws.  Draw order within
            # an execution is site order, so an all-random block's
            # stream IS its pool span.
            layout = []
            out_start = 0
            rand_start = 0
            for i, s in enumerate(sites):
                length = int(lengths[i])
                if s.is_random:
                    layout.append((out_start, length, rand_start, None))
                    rand_start += s.exec_size
                else:
                    layout.append((out_start, length, 0, fixed_parts[i]))
                out_start += length
            cached = (
                sites, random_sites, lengths, fixed_parts, writes_one,
                uniform, rand_pos, layout, out_start, rand_start,
                not fixed_parts, {},
            )
            self._random_templates[id(sites)] = cached
        (
            _, random_sites, lengths, fixed_parts, writes_one,
            uniform, rand_pos, layout, exec_len, draws_per_exec,
            all_random, chunk_arrays,
        ) = cached
        done = 0
        while done < executions:
            chunk = min(_RANDOM_CHUNK, executions - done)
            per_chunk = chunk_arrays.get(chunk)
            if per_chunk is None:
                per_chunk = (
                    np.tile(writes_one, chunk),
                    np.repeat(
                        np.arange(chunk * len(sites)), np.tile(lengths, chunk)
                    ),
                    np.tile(lengths, chunk).astype(np.float64),
                )
                chunk_arrays[chunk] = per_chunk
            writes, segments, lens_f = per_chunk
            if draws is not None:
                span = draws[
                    done * draws_per_exec:(done + chunk) * draws_per_exec
                ]
                if all_random:
                    addresses = span
                else:
                    addresses = np.empty(chunk * exec_len, dtype=np.int64)
                    out = addresses.reshape(chunk, exec_len)
                    drawn = span.reshape(chunk, draws_per_exec)
                    for start, length, rstart, fixed in layout:
                        if fixed is not None:
                            out[:, start:start + length] = fixed
                        else:
                            out[:, start:start + length] = drawn[
                                :, rstart:rstart + length
                            ]
            elif uniform:
                n_rand = len(random_sites)
                site = sites[random_sites[0]]
                drawn = expand_addresses_batched(
                    site.message, site.exec_size, chunk * n_rand,
                    DEFAULT_SURFACE, rng=rng,
                ).reshape(chunk, n_rand, -1)
                addresses = np.concatenate([
                    drawn[e, rand_pos[i]] if s.is_random else fixed_parts[i]
                    for e in range(chunk)
                    for i, s in enumerate(sites)
                ])
            else:
                addresses = np.concatenate([
                    expand_addresses(
                        s.message, s.exec_size, 1, DEFAULT_SURFACE, rng=rng
                    )
                    if s.is_random
                    else fixed_parts[i]
                    for _ in range(chunk)
                    for i, s in enumerate(sites)
                ])
            yield addresses, writes, segments, lens_f
            done += chunk

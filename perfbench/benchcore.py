"""Shared plumbing for the perfbench workloads.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions; nothing inside ``src/`` is instrumented.  A
disabled :class:`Tracer` records nothing, so the untraced runs that give
the end-to-end metrics pay only a no-op context manager per call.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Iterator

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = ROOT / "src"

#: Every workload runs the suite at this volume scale.
SCALE = 0.25
#: Sized for a 2-vCPU host: at most two pool workers or clients.
JOBS = 2
#: Residual row of every layer table: traced wall not covered by a layer.
RESIDUAL = "(residual)"


def fail(message: str, code: int = 2) -> None:
    """Exit without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder (thread-safe; one stack per thread).

    Each span carries name, start, end (unix seconds, derived from the
    monotonic clock), parent span id, workload, and a trace id (the serve
    job's W3C trace id where there is one).
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._offset = time.time() - time.perf_counter()

    @contextlib.contextmanager
    def span(
        self, name: str, trace_id: str = "", **attrs: Any
    ) -> Iterator[dict[str, Any] | None]:
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record: dict[str, Any] = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "workload": self.workload,
            "trace_id": trace_id or (parent["trace_id"] if parent else ""),
            "start": time.perf_counter() + self._offset,
            "end": None,
        }
        if attrs:
            record["attrs"] = attrs
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() + self._offset
            stack.pop()
            with self._lock:
                self.spans.append(record)


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span never overlap (each thread keeps one stack), so
    subtracting their durations is exact.
    """
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= duration(s)
    return own


def layer_table(
    spans: list[dict[str, Any]], roots: tuple[str, ...]
) -> tuple[dict[str, float], float]:
    """Self time per span name; the ``roots`` rows become the residual.

    Returns ``(rows, wall)`` where ``wall`` is the summed duration of the
    top-level spans.  Rows add up to it exactly: a root span's own time
    (the part no child span covers) is reported as the residual.
    """
    own = self_times(spans)
    rows: dict[str, float] = {}
    for s in spans:
        name = RESIDUAL if s["name"] in roots else s["name"]
        rows[name] = rows.get(name, 0.0) + own[s["id"]]
    wall = sum(duration(s) for s in spans if s["parent"] is None)
    return rows, wall


def total(spans: list[dict[str, Any]], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def attr_sum(spans: list[dict[str, Any]], name: str, key: str) -> float:
    return sum(
        s.get("attrs", {}).get(key, 0) for s in spans if s["name"] == name
    )


def print_layer_table(
    title: str, rows: dict[str, float], wall: float, overhead_s: float
) -> None:
    print(f"\n{title}: layer self time (traced wall {wall:.4f} s)")
    print(f"  {'layer':<28} {'self s':>10} {'share':>7}")
    for name, seconds in sorted(
        rows.items(), key=lambda kv: (kv[0] == RESIDUAL, -kv[1])
    ):
        share = seconds / wall if wall else 0.0
        print(f"  {name:<28} {seconds:>10.4f} {share:>7.1%}")
    print(f"  {'total':<28} {sum(rows.values()):>10.4f} {1.0:>7.1%}")
    print(f"  tracing overhead (traced - untraced wall): {overhead_s:+.4f} s")


# -- statistics ----------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1 <= q <= 99) by the default (exclusive)
    method of ``statistics.quantiles``, the one the steadiness report's
    quartiles use too."""
    return statistics.quantiles(values, n=100)[q - 1]


def robust_rate(items: dict[Any, list[tuple[float, float]]]) -> float:
    """Work per second over repeated items: total work over the sum of
    each item's median time.  ``items`` maps an item to its
    ``(work, seconds)`` repeats; an item's work is the same every time."""
    work = sum(repeats[0][0] for repeats in items.values())
    seconds = sum(
        statistics.median(t for _, t in repeats) for repeats in items.values()
    )
    return work / seconds


def import_seconds() -> float:
    """Time to import the program's entry modules in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        "import repro.sampling, repro.simulation.sampled; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


# -- host resources ------------------------------------------------------------


def steal_ticks() -> int:
    """Host steal ticks (aggregate ``cpu`` line of /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0
    except OSError:
        return 0


def cpu_seconds(children: bool) -> float:
    """User+system CPU of this process, plus its reaped children."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    seconds = usage.ru_utime + usage.ru_stime
    if children:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        seconds += kids.ru_utime + kids.ru_stime
    return seconds


def peak_rss_mb(children: bool) -> float:
    """Peak resident set (MB) of this process, or of it and its children."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of another process, from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def run_context(seed: int) -> dict[str, Any]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


# -- expected outputs and the result line ------------------------------------


def load_expected() -> dict[str, Any]:
    with open(BENCH_DIR / "expected.json") as f:
        return json.load(f)


class Checker:
    """Collects output mismatches; any mismatch makes the run incorrect."""

    def __init__(self) -> None:
        self.mismatches: list[str] = []

    def equal(self, what: str, got: Any, want: Any) -> bool:
        if got != want:
            self.mismatches.append(f"{what}: got {got!r}, expected {want!r}")
            return False
        return True


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(
    workload: str,
    seed: int,
    trace: bool,
    context: dict[str, Any],
    checker: Checker,
    attempted: int,
    failed: int,
    metrics: dict[str, dict[str, Any]],
    spans: list[dict[str, Any]] | None = None,
    extra: dict[str, Any] | None = None,
) -> None:
    """Write the run record under ``out/`` and print the result line last.

    ``extra`` adds fields to the record.  Its ``measured_metrics`` are
    the metrics with host times as the clock measured them, before
    scaling to reference seconds; they are printed too, but are not in
    the result line."""
    for line in checker.mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    if len(checker.mismatches) > 20:
        print(
            f"... {len(checker.mismatches) - 20} more mismatches",
            file=sys.stderr,
        )
    correct = not checker.mismatches and failed == 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "context": context,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "mismatches": checker.mismatches,
        "metrics": metrics,
    }
    record.update(extra or {})
    raw = record.get("measured_metrics")
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as f:
            json.dump(spans, f)
    print("context: " + json.dumps(context, sort_keys=True))
    for name, m in metrics.items():
        line = f"  {name:<40} {m['value']:>16.6g} {m['unit']}"
        if raw is not None and raw[name] != m["value"]:
            line += f"  (measured {raw[name]:.6g})"
        print(line)
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )

"""Golden dispatch streams of the three Section V runs of an application.

The CoFluent record run, the GT-Pin run (with its post-processed
:class:`~repro.gtpin.tools.invocations.InvocationLog`) and a Figure 8
replay are pinned dispatch by dispatch for three suite apps at scale
0.25 and two trial seeds.  Integer fields (block counts, instruction and
byte totals, sync epochs, enqueue indices, buffer reads) must match
exactly; issue cycles and times match to the golden harness's relative
1e-6.  To keep the file small, each record's integer fields are one
space-joined string (``ints``, in the order named by ``DISPATCH_INTS`` and
``INVOCATION_INTS``), and so is each integer sequence.

To regenerate after an *intentional* change to what the runtime
produces::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_runtime_golden.py
"""

from __future__ import annotations

import sys
import threading
from typing import Iterable

from repro.cofluent.recorder import record, replay
from repro.gpu.device import HD4000
from repro.gtpin.profiler import GTPinSession, build_runtime
from repro.gtpin.tools.invocations import InvocationLog, InvocationLogTool
from repro.opencl.runtime import ProgramRun
from repro.parallel.cache import ProfileCache
from repro.workloads import load_app

from test_goldens import _check_golden

APPS = ("cb-gaussian-buffer", "cb-gaussian-image", "cb-throughput-juliaset")
SCALE = 0.25
TRIAL_SEEDS = (0, 3)

DISPATCH_INTS = (
    "global_work_size", "n_hw_threads", "instruction_count", "bytes_read",
    "bytes_written", "sync_epoch", "enqueue_call_index", "instrumented",
)
INVOCATION_INTS = (
    "index", "global_work_size", "instruction_count", "bytes_read",
    "bytes_written", "sync_epoch", "enqueue_call_index",
)


def _ints(values: Iterable[int]) -> str:
    return " ".join(str(int(v)) for v in values)


def _items(items: Iterable[tuple[str, float]]) -> str:
    return " ".join(f"{name}={value!r}" for name, value in items)


def _run_snapshot(run: ProgramRun) -> dict:
    return {
        "device": run.device_name,
        "api_calls": len(run.api_calls),
        "sync_call_indices": _ints(run.sync_call_indices),
        "host_writes": len(run.host_writes),
        "dispatches": [
            {
                "kernel": d.kernel_name,
                "ints": _ints(getattr(d, f) for f in DISPATCH_INTS),
                "block_counts": _ints(d.block_counts),
                "buffer_reads": " ".join(d.buffer_reads),
                "issue_cycles": d.issue_cycles,
                "time_seconds": d.time_seconds,
            }
            for d in run.dispatches
        ],
    }


def _log_snapshot(log: InvocationLog) -> list[dict]:
    return [
        {
            "kernel": p.kernel_name,
            "ints": _ints(getattr(p, f) for f in INVOCATION_INTS),
            "block_counts": _ints(p.block_counts),
            "args": _items(p.arg_items),
            "data": _items(p.data_items),
        }
        for p in log.invocations
    ]


def _app_snapshot(app) -> dict:
    per_seed = {}
    for seed in TRIAL_SEEDS:
        recording, recorded = record(app, HD4000, seed)
        session = GTPinSession([InvocationLogTool()])
        runtime = build_runtime(recording, HD4000, None, session)
        profiled = runtime.run(recording.host_program, trial_seed=seed)
        log = session.post_process(profiled)["invocations"]
        replayed = replay(recording, HD4000, seed + 1)
        per_seed[f"seed={seed}"] = {
            "record": _run_snapshot(recorded),
            "gtpin": _run_snapshot(profiled),
            "invocation_log": _log_snapshot(log),
            "replay": _run_snapshot(replayed),
        }
    return per_seed


def test_record_gtpin_and_replay_runs_match_golden():
    apps = {name: _app_snapshot(load_app(name, scale=SCALE)) for name in APPS}
    _check_golden(
        "runtime_runs",
        {"scale": SCALE, "trial_seeds": list(TRIAL_SEEDS), "apps": apps},
    )


def test_threads_sharing_one_app_get_the_serial_runs(tmp_path):
    """Threads running one loaded app fill its kernels' shared state
    (lowered walks, GT-Pin rewrites, invocation totals, the cache
    fingerprint) at once, as ``gtpin serve``'s workers do; a lost or
    torn update would change some thread's runs or key."""
    name = APPS[0]
    expected = _app_snapshot(load_app(name, scale=SCALE))
    expected_key = ProfileCache(tmp_path).key(
        load_app(name, scale=SCALE), HD4000, 0
    )
    app = load_app(name, scale=SCALE)
    results: list = []
    errors: list = []

    def work() -> None:
        try:
            key = ProfileCache(tmp_path).key(app, HD4000, 0)
            results.append((key, _app_snapshot(app)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == len(threads)
    for key, snapshot in results:
        assert key == expected_key
        assert snapshot == expected

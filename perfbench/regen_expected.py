"""Regenerate ``expected.json`` from the current program's outputs.

Usage (from the repository root): ``python3 perfbench/regen_expected.py``

Run it only when a change is meant to alter simulated or selected
results; the benchmark fails any run whose outputs differ from the file.
"""

from __future__ import annotations

import json
import sys

import benchcore as bc

sys.path.insert(0, str(bc.SRC_DIR))

import explore_wl  # noqa: E402
import serve_wl  # noqa: E402
from repro.serve.protocol import JobSpec  # noqa: E402
from repro.serve.work import execute_job  # noqa: E402


def explore_expected() -> dict:
    off = bc.Tracer("explore", enabled=False)
    apps = explore_wl.setup(off)
    return {
        name: explore_wl.run_pass(off, apps[name], False)["outputs"]
        for name in explore_wl.APPS
    }


def serve_expected() -> dict:
    specs = serve_wl.warm_specs() + [
        serve_wl.cold_spec(i) for i in range(serve_wl.COLD_POOL)
    ]
    expected = {}
    for spec in specs:
        fields = {k: v for k, v in spec.items() if k != "cold"}
        result = execute_job(JobSpec(scale=bc.SCALE, **fields))
        expected[serve_wl.spec_key(spec)] = json.loads(
            json.dumps(serve_wl.checked_fields(result))
        )
    return expected


def main() -> int:
    expected = {
        "explore": explore_expected(),
        "serve": serve_expected(),
    }
    with open(bc.BENCH_DIR / "expected.json", "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

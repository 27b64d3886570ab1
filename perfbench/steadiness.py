"""Steadiness report: repeated runs of each workload, two sets of them.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads explore,serve] \\
        [--runs 10] [--sets 2] [--seconds 20] [--seed-base 100]

Each run uses its own seed.  Per workload and end-to-end metric the
report prints the median and quartiles of each set (``statistics.quantiles``,
default method), the spread (quartile distance over median) and how much
worse the second set's median is than the first's, both as a share, next
to the metric's bound in ``BENCHMARK.json``.  The ``measured`` column is
the spread of the same runs' host times as the clock measured them,
before scaling to reference seconds; it is shown, not checked.  A metric passes when every
spread is within its bound and the two sets' medians differ by no more
than the bound in either direction; the target for a steady benchmark is
a spread of a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import benchcore as bc


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(bc.BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=bc.ROOT, capture_output=True,
                          text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: "
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    record = bc.OUT_DIR / f"{workload}-seed{seed}-trace0.json"
    result["measured_metrics"] = json.loads(record.read_text()).get(
        "measured_metrics", {}
    )
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    bench = json.loads((bc.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args(argv)
    metrics = bench["end_to_end"]
    report: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for set_index in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + 1000 * set_index + i
                runs.append(run_once(workload, seed, args.seconds))
                print(f"{workload} set {set_index + 1} run {i + 1}/"
                      f"{args.runs} (seed {seed}) done", file=sys.stderr)
            sets.append(runs)
        print(f"\n{workload}: {args.runs} runs x {args.sets} sets, "
              f"{args.seconds} s each")
        print(f"  {'metric':<18} {'set':>3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>8} {'measured':>8} {'bound':>6} "
              f"{'2nd worse':>9}")
        report[workload] = {}
        for m in metrics:
            name = m["name"]
            rows = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                measured = [r["measured_metrics"].get(name, v)
                            for r, v in zip(runs, values)]
                mq1, mmed, mq3 = quartiles(measured)
                rows.append({"values": values, "q1": q1, "median": med,
                             "q3": q3, "spread": spread,
                             "measured_values": measured,
                             "measured_spread":
                                 (mq3 - mq1) / mmed if mmed else 0.0})
            drift = (worse_by(rows[0]["median"], rows[1]["median"],
                              m["better"]) if len(rows) == 2 else 0.0)
            for index, row in enumerate(rows):
                flag = ""
                if row["spread"] > m["bound"]:
                    flag, ok = " SPREAD>BOUND", False
                elif row["spread"] > m["bound"] / 3:
                    flag = " spread>bound/3"
                tail = f"{drift:>+9.3f}" if index == len(rows) - 1 else ""
                if index == len(rows) - 1 and abs(drift) > m["bound"]:
                    flag, ok = flag + " DRIFT>BOUND", False
                print(f"  {name:<18} {index + 1:>3} {row['q1']:>12.5g} "
                      f"{row['median']:>12.5g} {row['q3']:>12.5g} "
                      f"{row['spread']:>8.3f} {row['measured_spread']:>8.3f} "
                      f"{m['bound']:>6.2f}{tail}{flag}")
            report[workload][name] = {"sets": rows, "second_worse_by": drift}
    bc.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(bc.OUT_DIR / "steadiness.json", "w") as f:
        json.dump(report, f, indent=1)
    print("\nRESULT:", "steady within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

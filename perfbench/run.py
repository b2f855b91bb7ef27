"""Benchmark of viscodiff: time to solution, set-up time and peak memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py              # every workload in turn

Runs whole rounds of the workload, each in a fresh child process
(perfbench/scenario.py) and one process at a time, for as many rounds
as fit in S seconds, and at least one.  The inputs are fixed presets,
so the seed selects nothing; it is accepted and recorded.  With
--trace 0 the metrics are the medians
over the rounds of wall_s, setup_s and peak_rss_mb.  With --trace 1
untraced and traced rounds alternate, the metrics are the per-layer
medians of the traced rounds, and trace.overhead_s is the traced minus
the untraced median wall_s.  The last line of standard output is one
JSON object; the rounds are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Every run, the first one included, must end within this many seconds.
DEADLINE_S = 170.0
# numpy and scipy each load their own OpenBLAS, and each would start a
# worker thread; with one thread per round a round never competes with
# itself for the 2 cores, and stray millisecond stalls leave setup_s.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def _round(workload: str, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "scenario.py"), workload,
           str(HERE / "out" / workload)]
    if traced:
        cmd.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for a round")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          env=CHILD_ENV)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(_round(workload, False, deadline))
        if trace:
            traced.append(_round(workload, True, deadline))
        # stop before a further round would end past the time asked for
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break

    rounds = plain + traced
    unexpected = [msg for r in rounds for msg in r["unexpected"]]
    if len({r["sha256"] for r in rounds}) != 1:
        unexpected.append("the final states differ between rounds")
    if trace:
        values = {m["name"]: statistics.median(r["layers"][m["name"]] for r in traced)
                  for m in SPEC["per_layer"] if m["name"] in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
    else:
        values = {name: statistics.median(r[name] for r in plain)
                  for name in ("wall_s", "setup_s", "peak_rss_mb")}
    result = {
        "correct": not unexpected,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": v, "unit": UNITS[name]}
                    for name, v in values.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "result": result, "rounds": rounds}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"result-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for msg in unexpected + sorted({m for r in rounds for m in r["known"]}):
        print(f"check failed: {msg}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = [args.workload] if args.workload else WORKLOADS
    try:
        for w in workloads:
            result = run_workload(w, args.seed, args.seconds, bool(args.trace))
            for name, m in result["metrics"].items():
                print(f"{w}: {name} = {m['value']:.6g} {m['unit']}")
            print(f"{w}: {result['attempted']} operations attempted, "
                  f"{result['failed']} failed, correct: {result['correct']}")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

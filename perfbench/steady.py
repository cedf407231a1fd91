"""Steadiness check: run workloads over several seeds, report spreads.

    python3 perfbench/steady.py --seeds 5 --seconds 20 [--workload NAME ...]

For every end-to-end metric it prints the ten (or ``--seeds``) values'
median and their interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  Runs are sequential, one fresh process each.  It
also prints each run's wall time and what a full check (4 + 22 runs
per workload) of the chosen workloads would take at that pace.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["host"] = json.loads(lines[-2])["detail"]["host"]
    result["wall_s"] = time.perf_counter() - t0
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    walls: dict[str, list[float]] = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = one_run(workload, seed, args.seconds)
            walls.setdefault(workload, []).append(result["wall_s"])
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, host {result['host']}",
                  flush=True)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            flag = "ok" if spread < bounds[name] / 3 else ("WIDE" if spread > bounds[name] else "near")
            print(
                f"{workload:15s} {name:12s} median {statistics.median(vals):12.4f} "
                f"spread {spread:6.3f} bound {bounds[name]:.2f} {flag}  "
                f"{[round(v, 4) for v in vals]}",
                flush=True,
            )
    # a full check makes 4 + 22 runs per workload
    per_run = {w: statistics.mean(v) for w, v in walls.items()}
    print(f"mean run wall {per_run}; a full check of these workloads would take "
          f"~{22 * sum(per_run.values()) + 4 * max(per_run.values()):.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

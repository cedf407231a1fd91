"""The repository's benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``paper``, ``serve_validate``, ``serve_schedule``,
``allsources`` (see ``perfbench/README.md``).  With ``--trace 0`` the
last stdout line is the end-to-end result; with ``--trace 1`` the same
workload runs with span wrappers installed and the line carries the
per-layer metrics instead.  The line before it holds the run's details
(host stamp, per-workload numbers, trace self-checks).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

import common

WORKLOADS = ("paper", "serve_validate", "serve_schedule", "allsources")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_s": "s",
    "p50_ms": "ms",
}

PER_LAYER = {
    "analysis.e14_s": "s",
    "analysis.e18_s": "s",
    "analysis.e09_s": "s",
    "analysis.rest_s": "s",
    "graphs.build_s": "s",
    "graphs.build_calls": "count",
    "graphs.bfs_s": "s",
    "graphs.bfs_calls": "count",
    "graphs.diameter_s": "s",
    "schedulers.run_s": "s",
    "schedulers.calls": "count",
    "io.frame_from_dict_s": "s",
    "io.frame_to_dict_s": "s",
    "io.schedule_to_dict_s": "s",
    "service.protocol.decode_s": "s",
    "service.protocol.encode_s": "s",
    "engine.batch.to_frame_s": "s",
    "engine.batch_validate_s": "s",
    "engine.all_sources_s": "s",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "model.fast_validate_s": "s",
    "model.reference_calls": "count",
    "service.coalesce.wait_s": "s",
    "service.coalesce.passes": "count",
    "service.coalesce.requests_per_pass": "count",
    "service.http.read_s": "s",
    "service.http.render_s": "s",
    "service.app.server_ms": "ms",
    "loadgen.queue_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.reconnects": "count",
    "corpus.lookup_s": "s",
    "corpus.frame_at_s": "s",
    "corpus.hit_ratio": "ratio",
    "corpus.write_s": "s",
    "corpus.verify_s": "s",
    "host.cpu_probe_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

# Trace self-check: layers each workload must exercise, layers predicted
# to do no work at all on it, and counts that must agree.  Greedy runs one
# BFS per call, so the scheduler misses of serve_schedule and the greedy
# corpus group of allsources do BFS: there it must equal the scheduler
# calls (and is zero on serve_validate, which runs no scheduler).
EXPECT = {
    "paper": {
        "busy": ["analysis.rest_s", "graphs.build_calls", "graphs.bfs_calls",
                 "graphs.diameter_s", "schedulers.calls", "model.fast_validate_s"],
        "idle": ["corpus.lookup_s", "corpus.frame_at_s", "service.coalesce.passes"],
        "equal": [],
    },
    "serve_validate": {
        "busy": ["service.protocol.decode_s", "io.frame_from_dict_s",
                 "service.coalesce.wait_s", "service.coalesce.passes",
                 "engine.batch_validate_s", "model.fast_validate_s",
                 "model.reference_calls", "service.http.read_s",
                 "service.http.render_s"],
        "idle": ["graphs.bfs_calls", "graphs.build_calls", "corpus.lookup_s",
                 "corpus.frame_at_s", "schedulers.calls"],
        "equal": [],
    },
    "serve_schedule": {
        "busy": ["corpus.lookup_s", "corpus.frame_at_s", "io.frame_to_dict_s",
                 "service.protocol.encode_s", "schedulers.calls",
                 "service.http.read_s"],
        "idle": ["service.coalesce.passes", "io.frame_from_dict_s",
                 "graphs.build_calls"],
        "equal": [("graphs.bfs_calls", "schedulers.calls")],
    },
    "allsources": {
        "busy": ["corpus.write_s", "corpus.verify_s", "engine.all_sources_s",
                 "engine.batch.to_frame_s", "io.schedule_to_dict_s",
                 "engine.batch_validate_s", "schedulers.calls"],
        "idle": ["service.coalesce.passes", "corpus.lookup_s"],
        "equal": [("graphs.bfs_calls", "schedulers.calls")],
    },
}


def trace_checks(workload: str, metrics: dict[str, float]) -> dict[str, bool]:
    expect = EXPECT[workload]
    checks = {f"busy:{name}": metrics[name] > 0 for name in expect["busy"]}
    checks.update({f"idle:{name}": metrics[name] == 0 for name in expect["idle"]})
    checks.update(
        {f"equal:{a}={b}": metrics[a] == metrics[b] for a, b in expect["equal"]}
    )
    return checks


def run_workload(ctx: common.Context) -> common.Outcome:
    if ctx.workload in ("paper", "allsources"):
        import wl_offline

        return wl_offline.run(ctx, ctx.workload)
    import wl_serve

    return wl_serve.run(ctx, ctx.workload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    # SIGTERM unwinds like Ctrl-C, so the daemon and scratch are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = common.ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    ctx = common.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scratch=scratch,
        tiny=args.tiny,
    )
    try:
        probe_before = common.cpu_probe_ms()
        ticks_before = common.cpu_ticks()
        t0 = time.perf_counter()
        outcome = run_workload(ctx)
        wall = time.perf_counter() - t0
        ticks_after = common.cpu_ticks()
        probe_after = common.cpu_probe_ms()
        host = common.host_stamp(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    detail = dict(outcome.detail)
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "wall_s": wall,
            "host": dict(
                host,
                cpu_probe_ms=[probe_before, probe_after],
                # share of CPU time the hypervisor gave to other guests
                steal_frac=(ticks_after[0] - ticks_before[0])
                / max(1, ticks_after[1] - ticks_before[1]),
            ),
        }
    )
    if ctx.trace:
        metrics = {name: outcome.metrics.get(name, 0.0) for name in PER_LAYER}
        metrics["host.cpu_probe_ms"] = (probe_before + probe_after) / 2
        detail["trace_checks"] = trace_checks(args.workload, metrics)
        detail["trace_checks"]["wrappers_removed"] = bool(detail.get("wrappers_removed"))
        # each self-check is one more operation: a failed one fails the run
        for name, ok in detail["trace_checks"].items():
            outcome.check(ok, f"trace self-check {name}")
        units = PER_LAYER
    else:
        metrics = outcome.metrics
        units = END_TO_END
    detail["problems"] = outcome.problems
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

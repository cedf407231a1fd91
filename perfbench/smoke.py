"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py          # or: python -m pytest perfbench/smoke.py

Each workload runs once with its correctness gate and once traced, where
every trace self-check must hold, the span wrappers are shown to come off
again, the metric
lists in ``BENCHMARK.json`` are checked against ``run.py``, and a
checkout without the program's sources must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_each_workload_passes_its_gate() -> None:
    for workload in run.WORKLOADS:
        detail, result = _result(workload, 0)
        assert result["correct"] and result["failed"] == 0, (workload, detail["problems"])
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values()), result


def test_traced_runs_pass_their_self_checks() -> None:
    for workload in run.WORKLOADS:
        detail, result = _result(workload, 1)
        assert set(result["metrics"]) == set(run.PER_LAYER)
        failed = [name for name, ok in detail["trace_checks"].items() if not ok]
        assert not failed, (workload, failed)
        assert detail["trace_checks"]["wrappers_removed"], workload
        assert result["correct"] and result["failed"] == 0, (workload, detail["problems"])


def test_wrappers_are_removed_in_process() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import repro.io
    import repro.service.app

    originals = (repro.io.frame_from_dict, repro.service.app.read_request)
    tracer = tracing.Tracer()
    tracer.install(service=True)
    assert repro.io.frame_from_dict is not originals[0]
    assert repro.service.app.read_request is not originals[1]
    assert tracing.leftover_wrappers()
    assert tracer.uninstall()
    assert (repro.io.frame_from_dict, repro.service.app.read_request) == originals
    assert tracing.leftover_wrappers() == []


def test_benchmark_json_matches_run() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_program_sources() -> None:
    bare = ROOT / ".perfbench-tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "paper", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}", flush=True)

"""Shared pieces of the benchmark: statistics, host stamp, processes.

Nothing here imports ``repro``; the workloads do that after ``run.py``
has put the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Context:
    """What one benchmark run was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scratch: Path
    # smoke tests shrink the inputs (hidden --tiny flag)
    tiny: bool = False


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a wrong answer counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def phase_break() -> None:
    """Between timed phases: collect garbage, settings left as they are."""
    gc.collect()


def subprocess_env(scratch: Path) -> dict[str, str]:
    """Environment for every child: the checkout's sources, scratch tmp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(scratch)
    return env


def timed_child(code: str, scratch: Path) -> float:
    """Run ``code`` in a fresh interpreter; it prints one float (seconds)."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(scratch),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def die_with_parent() -> None:
    """In a child before exec: get SIGTERM if the benchmark process dies."""
    import ctypes
    import signal

    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGTERM)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- host capacity stamp -----------------------------------------------------


# What one ``burst_ms`` takes on the host whose speed the scaled times
# are reported at (2-vCPU shared VM, Python 3.11.7, NumPy 2.4.6).
REFERENCE_BURST_MS = 18.0

_BURST_INPUT: Any = None


def cpu_probe_ms() -> float:
    """The host capacity stamp: the median of seven bursts, in ms.

    The first bursts in a process run up to twice as slow as later ones,
    so the median, not the first, is the figure.
    """
    return statistics.median([burst_ms() for _ in range(7)])


def burst_ms() -> float:
    """One fixed burst of pure-Python and NumPy work, in ms.

    Several kinds of interpreter work (integer loop, dict counting, tuple
    sort, string join and split, set inserts), so that no single loop's
    code layout sets its speed, then in-place shifts and sorts of a fixed
    300,000-element array.  It calls nothing of the program.  Its arrays
    are allocated once, so the allocator's state, which the workload
    changes, does not change the burst.  ~18 ms warm.
    """
    import numpy as np

    global _BURST_INPUT
    if _BURST_INPUT is None:
        base = np.random.default_rng(12345).integers(0, 1 << 40, size=300_000)
        _BURST_INPUT = (base, np.empty_like(base), np.empty_like(base))
    base, data, shifted = _BURST_INPUT

    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    counts: dict[int, int] = {}
    for i in range(15_000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    pairs = sorted(((i * 7919) % 1009, str(i)) for i in range(6_000))
    words = ",".join(s for _, s in pairs[::3]).split(",")
    prefixes = {w[:2] for w in words}
    np.copyto(data, base)
    for _ in range(2):
        np.right_shift(data, 3, out=shifted)
        np.bitwise_xor(data, shifted, out=data)
        data.sort()
    if acc < 0 or not prefixes or data[-1] == 0:  # consume every result
        raise RuntimeError("cpu burst lost its result")
    return (time.perf_counter() - t0) * 1000.0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def _filesystem_of(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind


def host_stamp(scratch: Path) -> dict[str, Any]:
    """Who measured: cores, versions, scratch filesystem (no probe)."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scratch_fs": _filesystem_of(scratch),
    }

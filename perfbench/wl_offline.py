"""The two in-process workloads: ``paper`` and ``allsources``.

``paper`` regenerates E01–E23 through the registry runner with no result
cache, the way ``repro run --all`` does, one experiment per call.
``allsources`` builds and verifies corpora and a certificate that cover
every source.  Each runs a warm-up, then timed units (E01–E23 passes;
build + verify + certificate cycles) until ``--seconds`` have passed and
at least three have run, with a garbage collection before each.

The shared host these run on changes speed over minutes (one process saw
``paper`` passes of 7.5 to 16.9 s within seven minutes), more than any
median inside a run can absorb.  So a fixed burst of interpreter and
NumPy work (``common.burst_ms``) runs after every step, and each unit's
times are scaled by ``REFERENCE_BURST_MS`` over the median burst of that
unit: the times are reported at a reference host speed.  The unscaled
figures are in the details.  A traced run takes no bursts.

``paper``: ``work_s`` is the sum over experiments of each experiment's
median time over the passes, so a host stall inside one experiment of one
pass does not move it; ``p50_ms`` is the median pass.  ``allsources``:
``work_s`` is the median cycle and ``p50_ms`` the median corpus build, one
fixed step, so the metric keeps measuring the same operation whichever
step a change makes fastest.  Every step's median is in the details.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Any, Callable

import common
import tracing
from common import Context, Outcome

# sha256 of the canonical JSON of [[id, rows], ...] in registry order
# (sorted keys, compact separators) for E01–E23 at their defaults.
PAPER_DIGEST = "9f384c534918d86e932bff9efb59f4212b25775007558f2aef3ffbff2fc6f4a3"

CORPUS_SPEC = "sparse:11:4"
GREEDY_SPEC = "hypercube:4"
CERTIFICATE_SPEC = "sparse:9:4"
SETUP_REPEATS = 5
MIN_UNITS = 3
# paper's warm-up: every experiment but the five heavy ones (e09, e12,
# e14, e18, e22), ~1.5 s; a pass after it is no faster than the first
PAPER_WARMUP = [
    "e01", "e02", "e04", "e05", "e06", "e07", "e08", "e10", "e11",
    "e13", "e15", "e16", "e17", "e19", "e20", "e21", "e23",
]
# the smoke tests: three light experiments that reach every layer paper checks
PAPER_TINY = ["e01", "e16", "e23"]

PAPER_SETUP = """
import time
t0 = time.perf_counter()
from repro.analysis import registry
from repro.analysis.runner import ExperimentRunner
registry.load_all()
print(time.perf_counter() - t0)
"""

ALLSOURCES_SETUP = f"""
import time
t0 = time.perf_counter()
from repro import api, corpus, io
api.construction({CORPUS_SPEC!r})
api.construction({CERTIFICATE_SPEC!r})
print(time.perf_counter() - t0)
"""


def paper_digest(results: list[Any]) -> str:
    data = [[r.name, r.rows] for r in results]
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _sample(speed: list[float] | None, bursts: int = 1) -> None:
    """Time host-speed bursts between two timed steps."""
    if speed is not None:
        speed += [common.burst_ms() for _ in range(bursts)]


def _paper_unit(
    ctx: Context, out: Outcome, names: list[str] | None, speed: list[float] | None
) -> list[tuple[str, float]]:
    from repro.analysis import registry
    from repro.analysis.runner import ExperimentRunner

    runner = ExperimentRunner(jobs=1, cache_dir=None)
    results = []
    # one experiment per call, so a speed burst can follow each
    for name in names or registry.experiment_ids():
        results += runner.run([name])
        _sample(speed)
    if names is None:
        digest = paper_digest(results)
        out.check(digest == PAPER_DIGEST, f"paper rows digest {digest}")
    else:
        out.check(all(r.rows for r in results), f"paper run of {names} returned no rows")
    return [(r.name, r.seconds) for r in results]


def _allsources_unit(
    ctx: Context, out: Outcome, state: dict[str, Any], speed: list[float] | None
) -> list[tuple[str, float]]:
    from repro import api, corpus, io

    steps = []
    spec = "sparse:6:2" if ctx.tiny else CORPUS_SPEC
    paths = [ctx.scratch / "scheme.corpus", ctx.scratch / "greedy.corpus"]
    t0 = time.perf_counter()
    corpus.build_corpus(paths[0], spec)
    corpus.build_corpus(paths[1], GREEDY_SPEC, "greedy", sources=state["greedy_sources"])
    steps.append(("corpus_build", time.perf_counter() - t0))
    _sample(speed, 3)
    size = sum(p.stat().st_size for p in paths)
    state.setdefault("corpus_bytes", size)
    out.check(size == state["corpus_bytes"], f"corpus size {size} != {state['corpus_bytes']}")

    t0 = time.perf_counter()
    reports = [corpus.verify_corpus(p, seed=ctx.seed) for p in paths]
    steps.append(("corpus_verify", time.perf_counter() - t0))
    _sample(speed, 3)
    for p, report in zip(paths, reports):
        out.check(report.ok, f"verify_corpus({p.name}): {report.errors[:2]}")
        p.unlink()

    t0 = time.perf_counter()
    payload = api.certificate("sparse:6:2" if ctx.tiny else CERTIFICATE_SPEC)
    ok = io.verify_certificate(payload)
    steps.append(("certificate", time.perf_counter() - t0))
    _sample(speed, 3)
    out.check(ok, "verify_certificate returned False")
    return steps


def run(ctx: Context, kind: str) -> Outcome:
    out = Outcome()
    # host-speed bursts between the timed steps (none on a traced run,
    # whose spans would count them as unattributed time)
    speed: list[float] | None = None if ctx.trace else []
    if kind == "paper":
        setup_code = PAPER_SETUP
        state: dict[str, Any] = {}
        names = PAPER_TINY if ctx.tiny else None
        warmup: Callable[[], Any] = lambda: _paper_unit(ctx, out, PAPER_WARMUP, speed)
        unit: Callable[[], list[tuple[str, float]]] = lambda: _paper_unit(
            ctx, out, names, speed
        )
    else:
        setup_code = ALLSOURCES_SETUP
        rng = random.Random(ctx.seed)
        state = {"greedy_sources": sorted(rng.sample(range(16), 8))}
        unit = lambda: _allsources_unit(ctx, out, state, speed)
        warmup = unit

    setups = [
        common.timed_child(setup_code, ctx.scratch)
        for _ in range(1 if ctx.trace or ctx.tiny else SETUP_REPEATS)
    ]
    min_units = 1 if ctx.tiny else MIN_UNITS
    tracer = tracing.Tracer() if ctx.trace else None
    if tracer is not None:
        tracer.install()
    try:
        common.phase_break()
        t0 = time.perf_counter()
        warmup()
        warm_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.spans.clear()
            state["cache_before"] = _cache_counts()
        if speed is not None:
            speed.clear()  # the first bursts in a process run slow
        units: list[tuple[list[tuple[str, float]], float]] = []
        measure_start = time.perf_counter()
        while len(units) < min_units or time.perf_counter() - measure_start < ctx.seconds:
            common.phase_break()
            mark = len(speed or [])
            unit_steps = unit()
            # the unit at the reference host speed: a stretch on which the
            # host runs everything slower slows the unit's bursts alike
            scale = common.REFERENCE_BURST_MS / common.median(speed[mark:]) if speed else 1.0
            units.append((unit_steps, scale))
        measured = time.perf_counter() - measure_start
    finally:
        removed = tracer.uninstall() if tracer is not None else True

    work_s, p50_ms, step_median_s = _summarise(kind, units, scaled=True)
    out.metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": common.peak_rss_mb(),
        "work_s": work_s,
        "p50_ms": p50_ms,
    }
    raw_work_s, raw_p50_ms, _ = _summarise(kind, units, scaled=False)
    out.detail = {
        "setups_s": setups,
        "warmup_s": warm_s,
        "units_s": [sum(s for _, s in steps) for steps, _ in units],
        "speed_scales": [scale for _, scale in units],
        "unscaled_work_s": raw_work_s,
        "unscaled_p50_ms": raw_p50_ms,
    }
    if kind == "paper":
        out.detail["paper_s"] = work_s
        out.detail["experiment_median_s"] = step_median_s
    else:
        out.detail.update({f"{k}_s": v for k, v in step_median_s.items()})
        out.detail["corpus_bytes"] = state["corpus_bytes"]
    if tracer is not None:
        out.detail["wrappers_removed"] = removed
        out.metrics = _layers(tracer, measure_start, measured, state["cache_before"])
    return out


def _summarise(
    kind: str, units: list[tuple[list[tuple[str, float]], float]], scaled: bool
) -> tuple[float, float, dict[str, float]]:
    """``work_s``, ``p50_ms`` and each step's median over the units."""
    by_step: dict[str, list[float]] = {}
    unit_s = []
    for steps, scale in units:
        factor = scale if scaled else 1.0
        for name, s in steps:
            by_step.setdefault(name, []).append(s * factor)
        unit_s.append(sum(s for _, s in steps) * factor)
    step_median_s = {k: common.median(v) for k, v in by_step.items()}
    if kind == "paper":
        return sum(step_median_s.values()), 1000 * common.median(unit_s), step_median_s
    return common.median(unit_s), 1000 * step_median_s["corpus_build"], step_median_s


def _cache_counts() -> tuple[int, int]:
    from repro.engine.cache import cache_info

    info = cache_info()
    return info["hits"], info["misses"]


def _layers(
    tracer: tracing.Tracer, start: float, measured: float, before: tuple[int, int]
) -> dict[str, float]:
    summary = tracer.summary()
    roots = [(s[3], s[4]) for s in tracer.spans if s[1] is None]
    outside = measured - tracing.union_length(roots, start, start + measured)
    layers = tracing.layer_metrics(summary)
    hits, misses = _cache_counts()
    layers.update(
        {
            "engine.cache_hits": float(hits - before[0]),
            "engine.cache_misses": float(misses - before[1]),
            "trace.overhead_frac": len(tracer.spans) * tracing.wrapper_cost_s() / measured,
            "trace.unattributed_frac": (outside + tracing.unattributed_self_s(summary))
            / measured,
        }
    )
    return layers

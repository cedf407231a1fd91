"""The two daemon workloads: ``serve_validate`` and ``serve_schedule``.

Both start ``repro serve`` as a subprocess (through ``launcher.py`` on a
traced run), warm it with every distinct request once, then measure in
rounds, each of

* five bursts of ``common.burst_ms`` while nothing is in flight, which
  give the round's host speed;
* a closed-loop unit of fixed-composition blocks on 2 keep-alive
  connections (one validate block; four schedule blocks): ``work_s`` is
  the median unit time at the reference host speed (each unit times
  ``REFERENCE_BURST_MS`` over its round's median burst), as for the
  in-process workloads;
* one block in an open loop at a fixed seeded-Poisson rate of about a
  third of the closed-loop capacity, each latency timed from the
  request's due time.  ``p50_ms`` is the median over blocks of the
  block's median latency of the traffic's main kind (clean
  single-schedule validates; corpus hits), whose latency includes the
  contention from the heavier kinds mixed in with it.  It is not
  scaled: at a third of capacity a request mostly waits (sockets, the
  event loop, the coalescer's window); scaled by the bursts, the
  validate ``p50_ms`` spread 0.14 over five runs against 0.04 as
  measured.

Interleaving the two loops spreads both over the whole run, so a host
slowdown of a few seconds moves a few rounds, not a whole metric.  Tail
percentiles (block p75; pooled p99 over at least 1010 requests, per kind
and overall) are in the details only: on a shared 2-vCPU host they moved
by 25-36% between runs of the same code, more than any bound allows.

Every response is checked against the answer the same request gets from
serial in-process calls, computed before the daemon starts.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import common
import loadgen
import tracing
from common import Context, Outcome

VALIDATE_SPEC = "sparse:11:4"
SCHEDULE_SPEC = "sparse:11:4"
# greedy on hypercube:4 takes ~3 ms a source here; hypercube:5's ~10 ms
# misses kept hits waiting for the GIL ~10% of the time, right at the
# hit p90, which then jumped between runs.
MISS_SPEC = "hypercube:4"
CONNECTIONS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Traffic:
    """Distinct request bodies, how to check each answer, and the mix.

    The mix is a *block*: a fixed multiset of body indices (each body
    ``repeat[kind]`` times).  The request stream is a run of blocks, each
    shuffled by the seed, so every block carries exactly the same work and
    only the order varies between seeds.
    """

    path: str
    repeat: dict[str, int]
    bodies: list[bytes] = field(default_factory=list)
    expected: list[str] = field(default_factory=list)  # digests
    kinds: list[str] = field(default_factory=list)
    answer_of: Any = None  # response bytes -> digest to compare

    def add(self, body: bytes, expected: str, kind: str) -> None:
        self.bodies.append(body)
        self.expected.append(expected)
        self.kinds.append(kind)

    @property
    def block(self) -> list[int]:
        return [i for i, kind in enumerate(self.kinds) for _ in range(self.repeat[kind])]

    def sequence(self, n: int, rng: random.Random) -> list[int]:
        """``n`` body indices: whole shuffled blocks, cut at ``n``."""
        out: list[int] = []
        while len(out) < n:
            block = self.block
            rng.shuffle(block)
            out += block
        return out[:n]


# -- inputs and reference answers ---------------------------------------------


def validate_traffic(rng: random.Random, tiny: bool) -> Traffic:
    """Single-schedule sparse:11:4 bodies, ~10% with one corrupted path
    vertex, and multi-schedule bodies under a second batch key."""
    from repro import api
    from repro.core.broadcast import broadcast_schedule
    from repro.frame import as_frame
    from repro.io import frame_from_dict, frame_to_dict
    from repro.service import protocol

    sh = api.construction(VALIDATE_SPEC)
    graph = api.build_graph(VALIDATE_SPEC)
    n = sh.n_vertices
    # a block of 120: 80% clean, 10% corrupted, 10% multi-schedule
    traffic = Traffic("/v1/validate", repeat={"clean": 2, "corrupt": 1, "multi": 1})

    def reports_digest(payload: dict[str, Any]) -> str:
        frames = [frame_from_dict(p) for p in payload["schedules"]]
        reports = api.validate(
            graph,
            frames,
            payload["k"],
            require_minimum_time=payload.get("require_minimum_time", True),
        )
        wire = [
            protocol.ReportV1(
                ok=r.ok,
                rounds=r.rounds,
                max_call_length=r.max_call_length,
                errors=tuple(r.errors),
            ).to_wire()
            for r in reports
        ]
        return _digest(_canonical([VALIDATE_SPEC, payload["k"], wire]))

    counts = {"clean": 4, "corrupt": 1, "multi": 1} if tiny else {
        "clean": 48, "corrupt": 12, "multi": 12
    }
    frames = {}
    for s in rng.sample(range(n), counts["clean"] + counts["corrupt"] + 4 * counts["multi"]):
        frames[s] = frame_to_dict(as_frame(broadcast_schedule(sh, s)))
    sources = list(frames)
    for s in sources[: counts["clean"]]:
        payload = {"graph": VALIDATE_SPEC, "k": sh.k, "schedules": [frames[s]]}
        traffic.add(_canonical(payload), reports_digest(payload), "clean")
    for s in sources[counts["clean"] : counts["clean"] + counts["corrupt"]]:
        while True:
            bad = dict(frames[s])
            verts = list(bad["path_verts"])
            pos = rng.randrange(len(verts))
            verts[pos] = (verts[pos] + 1 + rng.randrange(n - 1)) % n
            bad["path_verts"] = verts
            payload = {"graph": VALIDATE_SPEC, "k": sh.k, "schedules": [bad]}
            report = api.validate(graph, frame_from_dict(bad), sh.k)
            if not report.ok:
                break
        traffic.add(_canonical(payload), reports_digest(payload), "corrupt")
    rest = sources[counts["clean"] + counts["corrupt"] :]
    for j in range(counts["multi"]):
        group = rest[4 * j : 4 * j + 4]
        payload = {
            "graph": VALIDATE_SPEC,
            "k": sh.k,
            "schedules": [frames[s] for s in group],
            "require_minimum_time": False,
        }
        traffic.add(_canonical(payload), reports_digest(payload), "multi")

    def answer_of(body: bytes) -> str:
        got = json.loads(body)
        return _digest(_canonical([got["graph"], got["k"], got["reports"]]))

    traffic.answer_of = answer_of
    return traffic


def schedule_traffic(rng: random.Random, tiny: bool) -> Traffic:
    """~90% corpus hits (``scheme`` on sparse:11:4, random sources) and
    ~10% misses that run ``greedy`` on small hypercubes."""
    from repro import api
    from repro.engine.batch import all_sources_schedules
    from repro.io import frame_to_dict
    from repro.service import protocol

    sh = api.construction(SCHEDULE_SPEC)
    # a block of 160: 144 hits and the 16 hypercube:4 misses
    traffic = Traffic("/v1/schedule", repeat={"hit": 1, "miss": 1})
    hits = sorted(rng.sample(range(sh.n_vertices), 8 if tiny else 144))
    for stack in all_sources_schedules(sh, hits):
        for i in range(stack.n_schedules):
            frame = stack.to_frame(i)
            response = protocol.ScheduleResponseV1(
                scheduler="scheme",
                graph=SCHEDULE_SPEC,
                source=frame.source,
                k=None,
                found=True,
                rounds=frame.n_rounds,
                valid=True,
                n_calls=frame.n_calls,
                schedule=frame_to_dict(frame),
            )
            body = {"graph": SCHEDULE_SPEC, "scheduler": "scheme", "source": frame.source}
            traffic.add(
                _canonical(body),
                _digest(protocol.encode_canonical(response.to_wire())),
                "hit",
            )
    for spec in (MISS_SPEC,):
        graph = api.build_graph(spec)
        for source in range(graph.n_vertices):
            result = api.schedule(graph, "greedy", source=source)
            if not (result.found and result.valid):
                raise RuntimeError(f"greedy found no valid schedule on {spec}:{source}")
            response = protocol.ScheduleResponseV1(
                scheduler=result.scheduler,
                graph=spec,
                source=result.source,
                k=result.k,
                found=result.found,
                rounds=result.rounds,
                valid=result.valid,
                n_calls=result.frame.n_calls if result.frame is not None else None,
                schedule=frame_to_dict(result.frame) if result.frame is not None else None,
            )
            body = {"graph": spec, "scheduler": "greedy", "source": source}
            traffic.add(
                _canonical(body),
                _digest(protocol.encode_canonical(response.to_wire())),
                "miss",
            )
    traffic.answer_of = _digest
    return traffic


# -- the daemon -----------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, corpus: Path | None, spans: Path | None) -> None:
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            launcher = Path(__file__).with_name("launcher.py")
            cmd = [sys.executable, str(launcher), "--spans", str(spans)]
        if corpus is not None:
            cmd += ["--corpus", str(corpus)]
        self.log = open(ctx.scratch / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            cmd,
            cwd=common.ROOT,
            env=common.subprocess_env(ctx.scratch),
            stdout=subprocess.PIPE,
            stderr=self.log,
            preexec_fn=common.die_with_parent,
        )
        self.port = self._read_port(deadline=time.monotonic() + 60)
        self._wait_healthy(deadline=time.monotonic() + 60)

    def _read_port(self, deadline: float) -> int:
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if "listening on http://" in line:
                    return int(line.strip().rsplit(":", 1)[1])
                if not line:
                    break
        self.stop()
        raise RuntimeError("repro serve did not report its port")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _wait_healthy(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                if self.get("/v1/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("repro serve never answered /v1/healthz")

    def stats(self) -> dict[str, Any]:
        status, body = self.get("/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM, wait for the drain; kill only if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def _build_corpus(ctx: Context, path: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", "corpus", "build", "--out", str(path),
         "--graph", SCHEDULE_SPEC],
        cwd=common.ROOT,
        env=common.subprocess_env(ctx.scratch),
        check=True,
        capture_output=True,
        timeout=120,
    )


# -- driving it -------------------------------------------------------------------


def _check_all(out: Outcome, traffic: Traffic, phases: list[tuple[list[int], list[loadgen.Reply]]]) -> None:
    for order, replies in phases:
        for reply in replies:
            i = order[reply.index]
            ok = reply.status == 200 and traffic.answer_of(reply.body) == traffic.expected[i]
            out.check(ok, f"{traffic.path} body #{i} ({traffic.kinds[i]}): status {reply.status}")


async def _drive(daemon: Daemon, traffic: Traffic, requests: list[bytes], plan: dict[str, Any], rng: random.Random) -> dict[str, Any]:
    """Rounds of one closed-loop unit followed by one open-loop block.

    Interleaving the two spreads each kind of sample over the whole run,
    so a host slowdown lasting a few seconds moves a few rounds of each,
    not a whole metric.
    """
    gen = loadgen.LoadGen("127.0.0.1", daemon.port, CONNECTIONS)
    await gen.start()
    units: list[float] = []
    scales: list[float] = []
    closed: list[tuple[list[int], list[loadgen.Reply]]] = []
    opened: list[tuple[list[int], list[loadgen.Reply]]] = []
    server = {"count": 0, "seconds": 0.0}
    endpoint = traffic.path.rsplit("/", 1)[1]
    try:
        for _ in range(plan["bursts"]):
            common.burst_ms()  # the first bursts in a process run slow
        before = daemon.stats()
        start = time.perf_counter()
        while len(units) < plan["min_rounds"] or time.perf_counter() - start < plan["seconds"]:
            # the round's host speed, taken while nothing is in flight (a
            # traced run takes none)
            bursts = [common.burst_ms() for _ in range(plan["bursts"])]
            scales.append(common.REFERENCE_BURST_MS / common.median(bursts) if bursts else 1.0)
            order = traffic.sequence(plan["unit_blocks"] * plan["block"], rng)
            common.phase_break()
            wall, replies = await gen.closed_loop([requests[i] for i in order])
            units.append(wall)
            closed.append((order, replies))

            order = traffic.sequence(plan["block"], rng)
            common.phase_break()
            seg_before = daemon.stats()["endpoints"][endpoint]
            replies = await gen.open_loop(
                [requests[i] for i in order], plan["rate"], rng.randrange(1 << 32)
            )
            seg_after = daemon.stats()["endpoints"][endpoint]
            for key in server:
                server[key] += seg_after[key] - seg_before[key]
            opened.append((order, replies))
        after = daemon.stats()
    finally:
        await gen.stop()
    return {
        "units": units,
        "scales": scales,
        "closed": closed,
        "open": opened,
        "server": server,
        "stats": (before, after),
        "measure_start": start,
        "reconnects": gen.reconnects,
        "resets": gen.resets,
    }


def run(ctx: Context, kind: str) -> Outcome:
    out = Outcome()
    rng = random.Random(ctx.seed)
    endpoint = kind.split("_", 1)[1]
    traffic = (validate_traffic if endpoint == "validate" else schedule_traffic)(rng, ctx.tiny)
    block = len(traffic.block)
    plan = {
        "block": block,
        # a closed-loop unit of ~0.7 s on either endpoint: one 120-request
        # validate block, four 160-request schedule blocks (one schedule
        # block's time swung between 0.12 and 0.25 s)
        "unit_blocks": 1 if endpoint == "validate" else 4,
        # about a third of the closed-loop capacity (with this load
        # generator on a 2-core host: ~170 validate/s, ~460 schedule/s)
        "rate": 60.0 if endpoint == "validate" else 150.0,
        "seconds": ctx.seconds,
        # at least ten samples beyond the pooled open-loop p99
        "min_rounds": 1 if ctx.tiny else -(-1010 // block),
        "bursts": 0 if ctx.trace else 5,
    }
    warm = list(range(len(traffic.bodies)))
    requests = [loadgen.encode_request("POST", traffic.path, b) for b in traffic.bodies]

    corpus = ctx.scratch / "serve.corpus" if endpoint == "schedule" else None
    spans_path = ctx.scratch / "spans.json" if ctx.trace else None
    setups: list[float] = []
    repeats = 1 if ctx.trace or ctx.tiny else SETUP_REPEATS
    daemon = None
    try:
        for rep in range(repeats):
            common.phase_break()
            t0 = time.perf_counter()
            if corpus is not None:
                _build_corpus(ctx, corpus)
            daemon = Daemon(ctx, corpus, spans_path)
            _, replies = asyncio.run(_drive_warm(daemon, requests, warm))
            setups.append(time.perf_counter() - t0)
            _check_all(out, traffic, [(warm, replies)])
            if rep < repeats - 1:
                daemon.stop()
        result = asyncio.run(_drive(daemon, traffic, requests, plan, rng))
        rss = common.peak_rss_mb(daemon.proc.pid)
    finally:
        if daemon is not None:
            daemon.stop()
    _check_all(out, traffic, result["closed"] + result["open"])

    main_kind = traffic.kinds[0]
    open_ms: list[float] = []
    by_kind: dict[str, list[float]] = {k: [] for k in traffic.repeat}
    segments = []
    for order, replies in result["open"]:
        ms = [(traffic.kinds[order[r.index]], r.latency_s * 1000) for r in replies]
        open_ms += [v for _, v in ms]
        for k, v in ms:
            by_kind[k].append(v)
        segments.append([v for k, v in ms if k == main_kind])
    # each round's closed-loop unit at the reference host speed; the
    # open-loop latency is mostly waiting and stays as measured
    scales = result["scales"]
    work_s = common.median([u * f for u, f in zip(result["units"], scales)])
    out.metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": rss,
        "work_s": work_s,
        "p50_ms": common.median([common.percentile(seg, 50) for seg in segments]),
    }
    server = result["server"]
    server_ms = 1000 * server["seconds"] / max(1, server["count"])
    before, after = result["stats"]
    late = [r.late_s * 1000 for _, replies in result["open"] for r in replies]
    detail: dict[str, Any] = {
        "setups_s": setups,
        "units_s": result["units"],
        "speed_scales": scales,
        "unscaled_work_s": common.median(result["units"]),
        f"{endpoint}_rps": plan["unit_blocks"] * block / work_s,
        "open_requests": len(open_ms),
        f"{main_kind}_segment_p75_ms": common.median(
            [common.percentile(seg, 75) for seg in segments]
        ),
        "open_p50_ms": common.percentile(open_ms, 50),
        "open_p99_ms": common.percentile(open_ms, 99),
        "open_rate_per_s": plan["rate"],
        "reconnects": result["reconnects"],
        "resets": result["resets"],
        "late_p99_ms": common.percentile(late, 99),
        "server_ms": server_ms,
        "queue_ms": sum(open_ms) / len(open_ms) - server_ms,
        "coalescer": after["coalescer"],
        "corpus": after["corpus"],
        "engine_cache": after["engine_cache"],
    }
    for k, lat in by_kind.items():
        detail[f"{k}_p50_ms"] = common.percentile(lat, 50)
        detail[f"{k}_p99_ms"] = common.percentile(lat, 99)
        detail[f"{k}_samples"] = len(lat)
    out.detail = detail
    if ctx.trace:
        out.metrics = _layers(spans_path, result, before, after, detail)
    return out


async def _drive_warm(daemon: Daemon, requests: list[bytes], warm: list[int]) -> tuple[float, list[loadgen.Reply]]:
    gen = loadgen.LoadGen("127.0.0.1", daemon.port, 1)
    await gen.start()
    try:
        return await gen.closed_loop([requests[i] for i in warm])
    finally:
        await gen.stop()


def _layers(spans_path: Path | None, result: dict[str, Any], before: dict[str, Any], after: dict[str, Any], detail: dict[str, Any]) -> dict[str, float]:
    """Per-layer numbers of the measured phases from the daemon's spans."""
    assert spans_path is not None
    dump = json.loads(spans_path.read_text())
    spans = [s for s in dump["spans"] if s[3] >= result["measure_start"]]
    summary = tracing.summarize(spans)
    busy = sum(
        summary.get(name, {}).get("total_s", 0.0)
        for name in ("service.app.dispatch", "service.http.read", "service.http.render")
    )
    passes = after["coalescer"]["passes"] - before["coalescer"]["passes"]
    requests = after["coalescer"]["requests"] - before["coalescer"]["requests"]
    hits = after["corpus"]["hits"] - before["corpus"]["hits"]
    misses = after["corpus"]["misses"] - before["corpus"]["misses"]
    layers = tracing.layer_metrics(summary)
    layers.update(
        {
            "service.coalesce.passes": float(passes),
            "service.coalesce.requests_per_pass": requests / passes if passes else 0.0,
            "service.app.server_ms": detail["server_ms"],
            "loadgen.queue_ms": detail["queue_ms"],
            "loadgen.late_p99_ms": detail["late_p99_ms"],
            "loadgen.reconnects": float(result["reconnects"]),
            "corpus.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "engine.cache_hits": float(
                after["engine_cache"]["hits"] - before["engine_cache"]["hits"]
            ),
            "engine.cache_misses": float(
                after["engine_cache"]["misses"] - before["engine_cache"]["misses"]
            ),
            "trace.overhead_frac": len(spans) * dump["wrapper_cost_s"] / busy if busy else 0.0,
            "trace.unattributed_frac": tracing.unattributed_self_s(summary) / busy
            if busy
            else 0.0,
        }
    )
    detail["wrappers_removed"] = dump["removed"] and not dump["leftover"]
    detail["spans"] = len(spans)
    return layers

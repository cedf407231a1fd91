"""Outside-in spans: wrap the program's public functions, never edit them.

A :class:`Tracer` replaces each target function with a wrapper that
records a span ``(id, parent, name, start, end, request id)`` in memory.
Targets are patched wherever a caller looks the name up: on the class
for methods, and in every ``repro`` module namespace that holds the
same function object for module-level functions (``from x import f``
copies the binding, so patching ``x.f`` alone would miss those callers).

Self time of a span is its duration minus the union of its children's
intervals, so the self times of all spans add up to the traced wall
time without double counting.  :meth:`Tracer.uninstall` restores every
original and then scans the loaded modules for any wrapper left behind.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

_SPAN_ATTR = "__perfbench_span__"

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_request: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)

# (module, attribute path, span name).  A name ending in "*" is completed
# from the call's first argument (the experiment id for the runner).
COMMON_TARGETS = [
    ("repro.graphs.base", "Graph.bfs_distances", "graphs.bfs"),
    ("repro.graphs.base", "Graph.diameter", "graphs.diameter"),
    ("repro.schedulers.registry", "run_scheduler", "schedulers.run"),
    ("repro.io", "frame_from_dict", "io.frame_from_dict"),
    ("repro.io", "frame_to_dict", "io.frame_to_dict"),
    ("repro.io", "schedule_to_dict", "io.schedule_to_dict"),
    ("repro.engine.batch", "StackedSchedules.to_frame", "engine.batch.to_frame"),
    ("repro.engine.batch", "BatchValidator.validate_many", "engine.batch_validate"),
    ("repro.engine.batch", "all_sources_schedules", "engine.all_sources"),
    ("repro.model.validator_fast", "FastValidator.validate", "model.fast_validate"),
    ("repro.corpus.reader", "CorpusReader.lookup", "corpus.lookup"),
    ("repro.corpus.reader", "CorpusReader.frame_at", "corpus.frame_at"),
    ("repro.corpus.writer", "CorpusWriter.add_frame", "corpus.write"),
    ("repro.corpus.writer", "CorpusWriter.close", "corpus.write"),
    ("repro.corpus.verify", "verify_corpus", "corpus.verify"),
    ("repro.analysis.runner", "_execute", "analysis.*"),
]

# Patched only in the namespace named: the fast validator's re-scans of
# failing rounds with the reference code (the reference validator's own
# calls to the same functions are not re-scans).
LOCAL_TARGETS = [
    ("repro.model.validator_fast", "validate_round", "model.reference"),
    ("repro.model.validator_fast", "validate_broadcast", "model.reference"),
]

SERVICE_TARGETS = [
    ("repro.service.app", "ReproService.dispatch", "service.app.dispatch"),
    ("repro.service.app", "ReproService._run_batch", "service.coalesce.pass"),
    ("repro.service.app", "_parse_json", "service.protocol.decode"),
    ("repro.service.protocol", "decode_validate_request", "service.protocol.decode"),
    ("repro.service.protocol", "decode_schedule_request", "service.protocol.decode"),
    ("repro.service.protocol", "encode_canonical", "service.protocol.encode"),
    ("repro.service.coalesce", "ValidateCoalescer.validate", "service.coalesce"),
    ("repro.service.http", "render_response", "service.http.render"),
]


class Tracer:
    """Installs span wrappers, keeps spans in memory, restores originals."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int | None]] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._restore: list[tuple[Any, str, Any]] = []
        self._headers: dict[int, float] = {}

    # -- span recording ---------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        spans, ids = self.spans, self._ids
        per_call = name.endswith("*")
        prefix = name[:-1]
        request_root = name == "service.app.dispatch"
        requests = self._requests

        def label(args: tuple[Any, ...]) -> str:
            return prefix + str(args[0][0]) if per_call else name

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def awrapper(*args: Any, **kwargs: Any) -> Any:
                sid = next(ids)
                parent = _current.get()
                token = _current.set(sid)
                rtoken = _request.set(next(requests)) if request_root else None
                rid = _request.get()
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    if rtoken is not None:
                        _request.reset(rtoken)
                    _current.reset(token)
                    spans.append((sid, parent, label(args), t0, t1, rid))

            wrapper: Callable[..., Any] = awrapper
        else:

            @functools.wraps(fn)
            def swrapper(*args: Any, **kwargs: Any) -> Any:
                sid = next(ids)
                parent = _current.get()
                token = _current.set(sid)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    _current.reset(token)
                    spans.append((sid, parent, label(args), t0, t1, _request.get()))

            wrapper = swrapper
        setattr(wrapper, _SPAN_ATTR, fn)
        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install_target(self, module: str, path: str, name: str, *, local: bool) -> None:
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            self._patch(cls, meth, self._wrap(cls.__dict__[meth], name))
            return
        original = getattr(mod, path)
        wrapper = self._wrap(original, name)
        owners = [mod] if local else [
            m
            for key, m in list(sys.modules.items())
            if key.split(".")[0] == "repro" and m is not None
        ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patch(owner, attr, wrapper)

    def _install_graph_build(self) -> None:
        """``graphs.build``: from ``Graph.__init__`` to its ``freeze()``.

        Builders make an empty graph, add edges, then freeze it, so the
        construction span opens in ``__init__`` and closes when
        ``freeze`` returns; a graph never frozen records no span.
        """
        from repro.graphs.base import Graph

        spans, ids = self.spans, self._ids
        init, freeze = Graph.__dict__["__init__"], Graph.__dict__["freeze"]

        @functools.wraps(init)
        def traced_init(self: Any, *args: Any, **kwargs: Any) -> None:
            opened = (time.perf_counter(), _current.get(), _request.get())
            init(self, *args, **kwargs)
            self.__dict__["_perfbench_build"] = opened

        @functools.wraps(freeze)
        def traced_freeze(self: Any) -> Any:
            out = freeze(self)
            opened = self.__dict__.pop("_perfbench_build", None)
            if opened is not None:
                t0, parent, rid = opened
                spans.append(
                    (next(ids), parent, "graphs.build", t0, time.perf_counter(), rid)
                )
            return out

        setattr(traced_init, _SPAN_ATTR, init)
        setattr(traced_freeze, _SPAN_ATTR, freeze)
        self._patch(Graph, "__init__", traced_init)
        self._patch(Graph, "freeze", traced_freeze)

    def _install_service(self) -> None:
        """Request-path spans plus two transport hooks for the daemon.

        ``service.http.read`` runs from the moment a request's header
        block has arrived to the parsed request, so idle keep-alive
        time is not counted; executor jobs inherit the caller's context
        so engine and scheduler spans nest under their request.
        """
        import repro.service.app as app

        headers = self._headers
        readuntil = asyncio.StreamReader.__dict__["readuntil"]

        @functools.wraps(readuntil)
        async def traced_readuntil(self: Any, *args: Any, **kwargs: Any) -> Any:
            data = await readuntil(self, *args, **kwargs)
            headers[id(self)] = time.perf_counter()
            return data

        original_read = app.read_request
        spans, ids = self.spans, self._ids

        @functools.wraps(original_read)
        async def traced_read(reader: Any) -> Any:
            request = await original_read(reader)
            t0 = headers.pop(id(reader), None)
            if request is not None and t0 is not None:
                spans.append(
                    (next(ids), None, "service.http.read", t0, time.perf_counter(), None)
                )
            return request

        run_in_executor = asyncio.BaseEventLoop.__dict__["run_in_executor"]

        @functools.wraps(run_in_executor)
        def traced_run_in_executor(self: Any, executor: Any, func: Any, *args: Any) -> Any:
            ctx = contextvars.copy_context()
            return run_in_executor(self, executor, functools.partial(ctx.run, func), *args)

        for fn, original in (
            (traced_readuntil, readuntil),
            (traced_read, original_read),
            (traced_run_in_executor, run_in_executor),
        ):
            setattr(fn, _SPAN_ATTR, original)
        self._patch(asyncio.StreamReader, "readuntil", traced_readuntil)
        self._patch(app, "read_request", traced_read)
        self._patch(asyncio.BaseEventLoop, "run_in_executor", traced_run_in_executor)

    def install(self, *, service: bool = False) -> None:
        """Wrap every target; ``service`` adds the daemon's request path."""
        importlib.import_module("repro.analysis.registry").load_all()
        for module in ("repro.api", "repro.corpus", "repro.service.app"):
            importlib.import_module(module)
        self._install_graph_build()
        for module, path, name in COMMON_TARGETS + (SERVICE_TARGETS if service else []):
            self._install_target(module, path, name, local=False)
        for module, path, name in LOCAL_TARGETS:
            self._install_target(module, path, name, local=True)
        if service:
            self._install_service()

    def uninstall(self) -> bool:
        """Restore every original; True when no wrapper is left anywhere."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return not leftover_wrappers()

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total, and self time in seconds."""
        return summarize(self.spans)


def leftover_wrappers() -> list[str]:
    """Names of any span wrapper still bound in a loaded module or class."""
    found = []
    owners: list[Any] = [asyncio.StreamReader, asyncio.BaseEventLoop]
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "repro" and mod is not None:
            owners.append(mod)
            owners.extend(v for v in vars(mod).values() if inspect.isclass(v))
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if hasattr(value, _SPAN_ATTR):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def summarize(spans: list[Any]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, t0, t1, _rid in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for sid, _parent, name, t0, t1, _rid in spans:
        covered = union_length(children.get(sid, []), t0, t1)
        row = out[name]
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - covered
    return dict(out)


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Seconds one span wrapper adds to a call (for the overhead figure)."""
    tracer = Tracer()

    def bare(x: int) -> int:
        return x

    wrapped = tracer._wrap(bare, "calibrate")
    t0 = time.perf_counter()
    for i in range(calls):
        bare(i)
    t1 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


# Spans that only group the layers under them: the experiment runner's
# per-experiment call and the daemon's per-request dispatch.  Their self
# time is spent in no named layer.
GROUPING_SPANS = ("analysis.", "service.app.dispatch")


def unattributed_self_s(summary: dict[str, dict[str, float]]) -> float:
    """Self seconds of the grouping spans: time inside them but in no layer."""
    return sum(v["self_s"] for n, v in summary.items() if n.startswith(GROUPING_SPANS))


def layer_metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics that come straight from span self times."""

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return float(summary.get(name, {}).get("calls", 0))

    # experiments are reported inclusive of the layers they call
    analysis = {n: v["total_s"] for n, v in summary.items() if n.startswith("analysis.")}
    named = ("analysis.e14", "analysis.e18", "analysis.e09")
    return {
        "analysis.e14_s": analysis.get("analysis.e14", 0.0),
        "analysis.e18_s": analysis.get("analysis.e18", 0.0),
        "analysis.e09_s": analysis.get("analysis.e09", 0.0),
        "analysis.rest_s": sum(v for n, v in analysis.items() if n not in named),
        "graphs.build_s": self_s("graphs.build"),
        "graphs.build_calls": calls("graphs.build"),
        "graphs.bfs_s": self_s("graphs.bfs"),
        "graphs.bfs_calls": calls("graphs.bfs"),
        "graphs.diameter_s": self_s("graphs.diameter"),
        "schedulers.run_s": self_s("schedulers.run"),
        "schedulers.calls": calls("schedulers.run"),
        "io.frame_from_dict_s": self_s("io.frame_from_dict"),
        "io.frame_to_dict_s": self_s("io.frame_to_dict"),
        "io.schedule_to_dict_s": self_s("io.schedule_to_dict"),
        "service.protocol.decode_s": self_s("service.protocol.decode"),
        "service.protocol.encode_s": self_s("service.protocol.encode"),
        "engine.batch.to_frame_s": self_s("engine.batch.to_frame"),
        "engine.batch_validate_s": self_s("engine.batch_validate"),
        "engine.all_sources_s": self_s("engine.all_sources"),
        "model.fast_validate_s": self_s("model.fast_validate"),
        "model.reference_calls": calls("model.reference"),
        "service.coalesce.wait_s": self_s("service.coalesce"),
        "service.http.read_s": self_s("service.http.read"),
        "service.http.render_s": self_s("service.http.render"),
        "corpus.lookup_s": self_s("corpus.lookup"),
        "corpus.frame_at_s": self_s("corpus.frame_at"),
        "corpus.write_s": self_s("corpus.write"),
        "corpus.verify_s": self_s("corpus.verify"),
    }

"""Span recording around the program's public entry points.

The benchmark never edits the program: in a traced run it replaces a fixed
list of functions and methods (:data:`TARGETS`) with wrappers that record a
span per call, and puts the originals back afterwards.  A span is (name,
start, end, parent, op); spans stay in memory and are written out once, at
the end of the run.

Parents come from a context-local stack, so nesting is right inside one
thread and inside one asyncio task.  A span opened on a thread whose stack
is empty (the program's own worker threads) takes as parent the most
recently opened span of the same op that is still open; the op comes from
the context (set per HTTP request inside the server), from a hand-off keyed
on the submitted spec (a query moving to a session's worker pool), or from
the op the in-process benchmark loop is running.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans, which may run on other threads.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field

#: (module, class or None, attribute, span name, kind).  ``kind`` is
#: ``call``, ``async`` (coroutine function), ``gen`` (generator function)
#: or ``handoff`` (records which span submitted a spec, no span of its own).
TARGETS: tuple[tuple[str, str | None, str, str, str], ...] = (
    ("repro.session.session", "Session", "sql", "session.lower", "call"),
    ("repro.session.builder", "QueryBuilder", "spec", "session.lower", "call"),
    ("repro.session.session", None, "execute_spec", "session.execute", "call"),
    ("repro.session.session", None, "stream_spec", "session.execute", "call"),
    ("repro.streaming.runner", None, "execute_spec", "session.execute", "call"),
    ("repro.streaming.runner", None, "stream_spec", "session.execute", "call"),
    ("repro.session.session", "Session", "submit", "session.submit", "handoff"),
    ("repro.catalog.catalog", "Catalog", "table", "catalog.table", "call"),
    ("repro.catalog.catalog", "Catalog", "population", "catalog.population", "call"),
    ("repro.catalog.catalog", "Catalog", "indexed_engine", "catalog.indexed_engine", "call"),
    ("repro.catalog.catalog", None, "population_from_chunks", "catalog.scan", "call"),
    ("repro.storage.durable", "DurableCatalog", "__init__", "storage.open", "call"),
    ("repro.storage.durable", "DurableCatalog", "population", "catalog.population", "call"),
    ("repro.storage.durable", "DurableCatalog", "indexed_engine", "storage.engine_load", "call"),
    ("repro.storage.mapped", "MappedNeedletailEngine", "__init__", "storage.mapped_engine", "call"),
    ("repro.needletail.engine", "NeedletailEngine", "__init__", "needletail.index_build", "call"),
    ("repro.engines.base", "SamplingEngine", "open_run", "engines.open_run", "call"),
    ("repro.engines.base", "EngineRun", "draw_block", "engines.draw", "call"),
    ("repro.session.planner", None, "run_algorithm", "core.loop", "call"),
    ("repro.session.planner", None, "run_ifocus_reference", "core.reference", "call"),
    ("repro.extensions.topt", None, "run_ifocus_reference", "core.reference", "call"),
    ("repro.extensions.trends", None, "run_ifocus_reference", "core.reference", "call"),
    ("repro.extensions.values", None, "run_ifocus_reference", "core.reference", "call"),
    ("repro.extensions.mistakes", None, "run_ifocus_reference", "core.reference", "call"),
    ("repro.session.planner", None, "_run_ifocus_topt", "extensions.variant", "call"),
    ("repro.session.planner", None, "_run_ifocus_trends", "extensions.variant", "call"),
    ("repro.session.planner", None, "_run_ifocus_values", "extensions.variant", "call"),
    ("repro.session.planner", None, "_run_ifocus_mistakes", "extensions.variant", "call"),
    ("repro.streaming.runner", "WindowRunner", "_close_window", "streaming.window", "gen"),
    ("repro.serve.app", "QueryService", "handle", "serve.handle", "async"),
    ("repro.serve.admission", "Admission", "wait", "serve.admission_wait", "async"),
    ("repro.session.result", "Result", "to_dict", "serve.encode", "call"),
    ("repro.serve.app", None, "canonical_json", "serve.encode", "call"),
)

#: Request header carrying the benchmark's op id into the server.
OP_HEADER = "x-perfbench-op"

_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar("perfbench_stack", default=())
_OP: contextvars.ContextVar[int | None] = contextvars.ContextVar("perfbench_op", default=None)


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int = 0
    parent: int | None = None
    op: int | None = None
    count: int = 0  # work units, e.g. values drawn by one draw_block

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.op, self.count]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """In-memory span recorder; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: op used by spans that find no op in their context (in-process runs)
        self.current_op: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open: dict[int | None, list[Span]] = {}
        self._handoff: dict[int, Span] = {}

    def begin(self, name: str, *, op: int | None = None, key: object = None) -> Span:
        stack = _STACK.get()
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is None and key is not None:
                parent = self._handoff.pop(id(key), None)
            if parent is not None:
                op = parent.op
            elif op is None:
                op = _OP.get()
                if op is None:
                    op = self.current_op
                opened = self._open.get(op)
                parent = opened[-1] if opened else None
            span = Span(
                id=next(self._ids),
                name=name,
                start=time.perf_counter_ns(),
                parent=parent.id if parent is not None else None,
                op=op,
            )
            self._open.setdefault(op, []).append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        with self._lock:
            opened = self._open.get(span.op)
            if opened is not None:
                opened.remove(span)
                if not opened:
                    del self._open[span.op]
            self.spans.append(span)

    def handoff(self, key: object) -> None:
        """Make the current span the parent of the next span opened for
        ``key`` on a thread with no open span (a query moving to a pool)."""
        stack = _STACK.get()
        if stack:
            with self._lock:
                self._handoff[id(key)] = stack[-1]

    def push(self, span: Span):
        return _STACK.set(_STACK.get() + (span,))

    @staticmethod
    def pop(token) -> None:
        _STACK.reset(token)

    @staticmethod
    def bind_op(op: int | None):
        """Set the op for spans opened in this context (one HTTP request)."""
        return _OP.set(op)

    @staticmethod
    def unbind_op(token) -> None:
        _OP.reset(token)


def _count_of(name: str, args: tuple, kwargs: dict) -> int:
    if name == "engines.draw":
        gids = args[1] if len(args) > 1 else kwargs["gids"]
        count = args[2] if len(args) > 2 else kwargs["count"]
        return int(count) * len(gids)
    return 0


def _spec_key(args: tuple, kwargs: dict):
    """The QuerySpec an execute/stream call runs (hand-off key)."""
    return args[0] if args else kwargs.get("spec")


def _wrap(tracer: Tracer, fn, name: str, kind: str):
    if kind == "handoff":

        @functools.wraps(fn)
        def handoff(self, what, *args, **kwargs):
            tracer.handoff(what)
            return fn(self, what, *args, **kwargs)

        return handoff

    if kind == "async":

        @functools.wraps(fn)
        async def coroutine(*args, **kwargs):
            op_token = None
            if name == "serve.handle":
                headers = args[3] if len(args) > 3 else kwargs.get("headers", {})
                raw = headers.get(OP_HEADER)
                op_token = Tracer.bind_op(int(raw) if raw is not None else None)
            span = tracer.begin(name)
            token = tracer.push(span)
            try:
                return await fn(*args, **kwargs)
            finally:
                Tracer.pop(token)
                tracer.end(span)
                if op_token is not None:
                    Tracer.unbind_op(op_token)

        return coroutine

    if kind == "gen":

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                while True:
                    # The span is on the stack only while the inner
                    # generator runs, never while its consumer does.
                    token = tracer.push(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        Tracer.pop(token)
                    yield item
            finally:
                inner.close()
                tracer.end(span)

        return generator

    keyed = name == "session.execute"

    @functools.wraps(fn)
    def call(*args, **kwargs):
        span = tracer.begin(name, key=_spec_key(args, kwargs) if keyed else None)
        span.count = _count_of(name, args, kwargs)
        token = tracer.push(span)
        try:
            return fn(*args, **kwargs)
        finally:
            Tracer.pop(token)
            tracer.end(span)

    return call


class Instrumentation:
    """Installs the wrappers of :data:`TARGETS`; :meth:`remove` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Instrumentation":
        for module_name, cls_name, attr, name, kind in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            expected = {
                "async": inspect.iscoroutinefunction,
                "gen": inspect.isgeneratorfunction,
            }.get(kind, callable)
            if not expected(original):
                raise TypeError(f"{module_name}.{cls_name or ''}.{attr} is not a {kind} target")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, original, name, kind))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


# -- analysis ---------------------------------------------------------------


def _covered(lo: int, hi: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time in ns (duration minus child coverage)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, []))
        for s in spans
    }


@dataclass
class OpLayers:
    """One op's per-layer self time (ms), span counts and work counts."""

    ms: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)
    wall_ms: float = 0.0


def per_op_layers(spans: list[Span], root: str = "op") -> dict[int, OpLayers]:
    """Group spans by op; root spans named ``root`` give the op's wall time."""
    selfs = self_times(spans)
    ops: dict[int, OpLayers] = {}
    for s in spans:
        if s.op is None:
            continue
        layers = ops.setdefault(s.op, OpLayers())
        if s.name == root:
            layers.wall_ms += (s.end - s.start) / 1e6
            continue
        layers.ms[s.name] = layers.ms.get(s.name, 0.0) + selfs[s.id] / 1e6
        layers.calls[s.name] = layers.calls.get(s.name, 0) + 1
        layers.work[s.name] = layers.work.get(s.name, 0) + s.count
    return ops

"""Span recording, parent assignment and self time."""

import asyncio
import importlib
import threading

import pytest

import tracing
from tracing import Instrumentation, Span, Tracer, per_op_layers, self_times


def S(id, name, start, end, parent=None, op=1, count=0):
    return Span(id=id, name=name, start=start, end=end, parent=parent, op=op, count=count)


def test_self_time_subtracts_nested_children():
    spans = [
        S(1, "op", 0, 100),
        S(2, "a", 10, 60, parent=1),
        S(3, "b", 20, 30, parent=2),
        S(4, "b", 40, 45, parent=2),
        S(5, "c", 70, 90, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 100 - 50 - 20, 2: 50 - 15, 3: 10, 4: 5, 5: 20}
    # self times of a tree add up to the root's duration
    assert sum(selfs.values()) == 100


def test_self_time_counts_overlapping_children_once():
    # two children on other threads overlap each other and stick out of
    # the parent; only the covered part of the parent is subtracted
    spans = [S(1, "window", 100, 200), S(2, "x", 90, 150, parent=1), S(3, "y", 140, 170, parent=1)]
    assert self_times(spans)[1] == 100 - 70


def test_per_op_layers_groups_by_op():
    spans = [
        S(1, "op", 0, 2_000_000, op=7),
        S(2, "engines.draw", 0, 500_000, parent=1, op=7, count=30),
        S(3, "engines.draw", 600_000, 1_000_000, parent=1, op=7, count=10),
        S(4, "storage.open", 0, 10, op=None),
    ]
    ops = per_op_layers(spans)
    assert list(ops) == [7]
    layers = ops[7]
    assert layers.wall_ms == 2.0
    assert layers.ms["engines.draw"] == pytest.approx(0.9)
    assert layers.calls["engines.draw"] == 2
    assert layers.work["engines.draw"] == 40


def test_wrapped_calls_nest_and_thread_spans_find_the_open_parent():
    tracer = Tracer()

    def leaf():
        return 1

    def worker():
        return leaf_w()

    def middle():
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        return leaf_w()

    leaf_w = tracing._wrap(tracer, leaf, "leaf", "call")
    middle_w = tracing._wrap(tracer, middle, "middle", "call")
    tracer.current_op = 3
    root = tracer.begin("op", op=3)
    token = tracer.push(root)
    middle_w()
    tracer.pop(token)
    tracer.end(root)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (mid,) = by_name["middle"]
    assert mid.parent == root.id
    # the leaf on the worker thread has an empty stack: it adopts "middle",
    # the newest open span of op 3; the other leaf nests normally
    assert [s.parent for s in by_name["leaf"]] == [mid.id, mid.id]
    assert all(s.op == 3 for s in tracer.spans)


def test_generator_span_covers_only_its_own_steps():
    tracer = Tracer()

    def gen():
        yield 1
        yield 2

    gen_w = tracing._wrap(tracer, gen, "g", "gen")
    assert list(gen_w()) == [1, 2]
    (span,) = tracer.spans
    assert span.name == "g" and span.end >= span.start


def test_async_handle_binds_the_op_from_the_header():
    tracer = Tracer()

    async def handle(self, method, target, headers, body):
        await asyncio.sleep(0)
        return "ok"

    handle_w = tracing._wrap(tracer, handle, "serve.handle", "async")
    result = asyncio.run(handle_w(None, "POST", "/query", {tracing.OP_HEADER: "42"}, b""))
    assert result == "ok"
    (span,) = tracer.spans
    assert span.op == 42


def test_handoff_parents_the_pool_thread_span():
    tracer = Tracer()
    spec = object()

    def execute(spec):
        return spec

    execute_w = tracing._wrap(tracer, execute, "session.execute", "call")
    root = tracer.begin("serve.handle", op=5)
    token = tracer.push(root)
    tracer.handoff(spec)
    tracer.pop(token)
    t = threading.Thread(target=execute_w, args=(spec,))
    t.start()
    t.join()
    tracer.end(root)
    (child,) = [s for s in tracer.spans if s.name == "session.execute"]
    assert child.parent == root.id and child.op == 5


def test_instrumentation_installs_and_restores_every_target():
    originals = []
    for module, cls, attr, _name, _kind in tracing.TARGETS:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        originals.append((owner, attr, owner.__dict__[attr]))
    with Instrumentation(Tracer()):
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

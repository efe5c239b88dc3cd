"""The benchmark's span recorder: timing wrappers around repro's layers.

:func:`install` replaces public functions of each layer with wrappers
that record a span -- name, start, end and self time -- around every
call; ``src/`` is never edited.  The same wrappers run in the benchmark
(client) process and, through ``sitecustomize``, in the server, router
and worker processes.  Spans stay in memory and each process writes its
own file when it exits.

Spans nest per thread: a span's self time is its duration minus the
durations of the spans opened inside it on the same thread.  Two spans
are *scopes*: ``client.query`` (one ``Client.query`` call) and
``server.request`` (one request frame, from the moment the server's
frame read returns to the moment its response frame is encoded).
Every span remembers its scope, so ``wire.encode`` under a client scope
is client encoding and under a server scope is result encoding.

Trace ids come from ``Tracer.trace``: the program adopts the client's
trace id in every process that handles the request, and the wrapper
hands that id to every span still open on the thread.  Spans that closed
before the id arrived (the server decodes and admits a request before it
adopts its trace) take the id of the scope they ran under.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter
_local = threading.local()

#: Finished spans of this process, in closing order.
SPANS: list["_Span"] = []

SCOPES = ("client.query", "server.request")


class _Span:
    __slots__ = ("name", "scope", "trace", "root", "start", "end", "child")

    def trace_id(self):
        return self.trace if self.trace is not None else self.root.trace


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _open(name: str) -> _Span:
    stack = _stack()
    span = _Span()
    span.name = name
    parent = stack[-1] if stack else None
    span.scope = name if name in SCOPES else (parent.scope if parent else None)
    span.root = stack[0] if stack else span
    span.trace = getattr(_local, "trace", None)
    span.child = 0.0
    stack.append(span)
    span.start = _clock()
    return span


def _close(span: _Span) -> None:
    span.end = _clock()
    stack = _stack()
    stack.pop()
    if stack:
        stack[-1].child += span.end - span.start
    SPANS.append(span)


def _timed(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = _open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(span)

    return wrapper


def _timed_acquire(name: str, fn):
    """Time only the entry of a lock's context manager: the wait."""

    @contextmanager
    def wrapper(*args, **kwargs):
        manager = fn(*args, **kwargs)
        span = _open(name)
        try:
            manager.__enter__()
        finally:
            _close(span)
        try:
            yield
        finally:
            manager.__exit__(None, None, None)

    return wrapper


def _request_frames(read_frame):
    """Open a ``server.request`` scope per frame the server reads."""

    @functools.wraps(read_frame)
    def wrapper(*args, **kwargs):
        stack = _stack()
        if stack and stack[-1].name == "server.request":
            _close(stack[-1])
        frame = read_frame(*args, **kwargs)
        if frame is not None:
            _open("server.request")
        return frame

    return wrapper


def _response_frames(encode_frame):
    """Close the ``server.request`` scope once its response is encoded.

    The send that follows wakes the client, which may run before the
    server thread gets the CPU back; ending the scope before the send
    keeps that wait out of the server's handling time."""
    timed = _timed("wire.encode", encode_frame)

    @functools.wraps(encode_frame)
    def wrapper(*args, **kwargs):
        frame = timed(*args, **kwargs)
        stack = _stack()
        if stack and stack[-1].name == "server.request":
            _close(stack[-1])
        return frame

    return wrapper


def _adopting(trace):
    @contextmanager
    def wrapper(self, trace_id, remote_parent=None):
        if trace_id is None:
            with trace(self, trace_id, remote_parent):
                yield
            return
        previous = getattr(_local, "trace", None)
        _local.trace = str(trace_id)
        for span in _stack():
            if span.trace is None:
                span.trace = _local.trace
        try:
            with trace(self, trace_id, remote_parent):
                yield
        finally:
            _local.trace = previous

    return wrapper


def install() -> None:
    """Wrap the layers' public functions in this process (idempotent)."""
    from repro.core import pipeline, pool
    from repro.ingest import rwlock
    from repro.obs import trace
    from repro.serve import client, engine, planner, server, wire
    from repro.shard import router

    if getattr(wire, "_servebench_installed", False):
        return
    wire._servebench_installed = True
    for name in ("encode_query_request", "encode_query_result"):
        setattr(wire, name, _timed("wire.encode", getattr(wire, name)))
    wire.encode_frame = _response_frames(wire.encode_frame)
    for name in ("decode_query_request", "decode_query_result", "decode_frame"):
        setattr(wire, name, _timed("wire.decode", getattr(wire, name)))
    wire.read_frame = _request_frames(wire.read_frame)
    for method in ("send_line", "recv_line"):
        setattr(client.BinaryTcpTransport, method,
                _timed("socket.wait", getattr(client.BinaryTcpTransport, method)))
    client.Client.query = _timed("client.query", client.Client.query)
    server.AdmissionController.admit = _timed(
        "server.admission", server.AdmissionController.admit
    )
    engine.SketchEngine.query = _timed("engine.query", engine.SketchEngine.query)
    engine.SketchEngine.update = _timed("engine.update", engine.SketchEngine.update)
    for method in ("read_locked", "write_locked"):
        setattr(rwlock.RWLock, method,
                _timed_acquire("engine.lock_wait", getattr(rwlock.RWLock, method)))
    planner.QueryPlanner.execute = _timed("planner.execute", planner.QueryPlanner.execute)
    planner.QueryPlanner.plan = _timed("planner.plan", planner.QueryPlanner.plan)
    # The planner binds the estimator by name at import.
    planner.estimate_distance_batch = _timed("estimators", planner.estimate_distance_batch)
    pool.SketchPool.apply_deltas = _timed("pool.apply_deltas", pool.SketchPool.apply_deltas)
    pipeline.cross_correlate2d_valid_batch = _timed(
        "fourier.correlate", pipeline.cross_correlate2d_valid_batch
    )
    router.ShardRouter.query = _timed("router.query", router.ShardRouter.query)
    trace.Tracer.trace = _adopting(trace.Tracer.trace)


def records() -> list[tuple]:
    """Finished spans as ``(trace, scope, name, start, end, self)``."""
    return [
        (s.trace_id(), s.scope, s.name, s.start, s.end, s.end - s.start - s.child)
        for s in list(SPANS)
    ]


def dump_at_exit(directory: str) -> None:
    """Write this process's spans to ``directory`` when it exits."""

    def dump() -> None:
        spans = records()
        if not spans:
            return
        payload = {
            "pid": os.getpid(),
            "ppid": os.getppid(),
            "spans": spans,
        }
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    atexit.register(dump)

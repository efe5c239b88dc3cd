"""Per-layer numbers from the spans of one traced run.

Spans come from every process of the run (see ``hooks/servebench_spans``)
and are joined by trace id: the client's request, the front process
(``repro serve``, or the router of ``repro shard-serve``) and, when
sharded, each worker's share of the request.  Each timing metric is the
median over the timed read requests of that request's figure.

Along one request the layers' self times add up to the client-observed
latency: the client's own work, ``transport_ms`` (client socket wait
minus the front process's handling time), the front server's decode,
admission, encode and own work, and below it either the engine layers
(engine, lock wait, planner, estimators) or the router (its own work
plus the wall time its shard calls cover).  Some of these are leaves:
each times one named function or wait (encode, decode, transport,
admission, lock wait, plan, estimators, the shard calls).  The others
are the self times of the scopes around them (client, server, engine,
planner execution, router), the part of each scope no leaf covers.
``accounted_ratio`` is the leaves' sum over the latency the benchmark's
stopwatch saw, and ``unattributed_ms`` is the scopes' sum, so the ratio
falls when a scope's own, unexplained time grows.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np


def _index(spans) -> dict:
    """trace id -> list of ``(scope, name, start, end, self)``."""
    by_trace: dict = defaultdict(list)
    for trace, scope, name, start, end, self_time in spans:
        if trace is not None:
            by_trace[trace].append((scope, name, start, end, self_time))
    return by_trace


def _self(spans, name, scope=None) -> float:
    return sum(s[4] for s in spans if s[1] == name and (scope is None or s[0] == scope))


def _durations(spans, name) -> list[float]:
    return [s[3] - s[2] for s in spans if s[1] == name]


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class TraceSet:
    """The spans of one traced launch, split by process."""

    def __init__(self, client_spans, trace_dir: Path, front_pid: int):
        self.client = _index(client_spans)
        self.front: dict = {}
        self.workers: list[dict] = []
        # Raw span lists: the front process, the workers, and any other
        # traced process (the `repro pool` archive builder).
        self.front_all: list = []
        self.worker_all: list = []
        self.builders: list = []
        for path in sorted(trace_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            spans = _index(payload["spans"])
            if payload["pid"] == front_pid:
                self.front = spans
                self.front_all = payload["spans"]
            elif payload["ppid"] == front_pid:
                self.workers.append(spans)
                self.worker_all += payload["spans"]
            else:
                self.builders += payload["spans"]
        if not self.front:
            raise ValueError(f"no spans from the front process {front_pid}")

    def request(self, trace: str, latency: float, sharded: bool) -> dict | None:
        """One read request's layer figures, in seconds or counts."""
        client = self.client.get(trace)
        front = self.front.get(trace)
        if not client or not front:
            return None
        handled = sum(_durations(front, "server.request"))
        row = {
            "client.encode_ms": _self(client, "wire.encode", "client.query"),
            "client.decode_ms": _self(client, "wire.decode", "client.query"),
            "client.self_ms": _self(client, "client.query"),
            "transport_ms": _self(client, "socket.wait", "client.query") - handled,
            "server.decode_ms": _self(front, "wire.decode", "server.request"),
            "server.admission_wait_ms": _self(front, "server.admission"),
            "server.encode_ms": _self(front, "wire.encode", "server.request"),
            "server.self_ms": _self(front, "server.request"),
        }
        engines = [w.get(trace, []) for w in self.workers] if sharded else [front]
        row.update({
            "engine.self_ms": sum(_self(e, "engine.query") for e in engines),
            "engine.lock_wait_ms": sum(_self(e, "engine.lock_wait") for e in engines),
            "planner.plan_ms": sum(_self(e, "planner.plan") for e in engines),
            "planner.execute_self_ms": sum(_self(e, "planner.execute") for e in engines),
            "estimators.ms": sum(_self(e, "estimators") for e in engines),
        })
        # The router's own per-shard client calls.
        shard_calls = [(s[2], s[3]) for s in front if s[1] == "client.query"]
        # Leaves time one named function or wait each; the self times of
        # the scopes that contain them are what no leaf explains.
        leaves = ["client.encode_ms", "client.decode_ms", "transport_ms",
                  "server.decode_ms", "server.admission_wait_ms", "server.encode_ms",
                  "engine.lock_wait_ms", "planner.plan_ms", "estimators.ms"]
        scopes = ["client.self_ms", "server.self_ms"]
        if sharded:
            routed = sum(_durations(front, "router.query"))
            covered = _covered(shard_calls)
            row["router.self_ms"] = routed - covered
            row["router.slowest_shard_ms"] = max((e - s for s, e in shard_calls), default=0.0)
            row["worker.engine_ms"] = float(np.mean(
                [d for e in engines for d in _durations(e, "engine.query")] or [0.0]
            ))
            # The shard calls run on the workers; the front process sees
            # only their wall time, which the worker layers break down.
            row["shard_calls_ms"] = covered
            leaves = leaves[:6] + ["shard_calls_ms"]
            scopes.append("router.self_ms")
        else:
            row["router.self_ms"] = row["router.slowest_shard_ms"] = 0.0
            row["worker.engine_ms"] = 0.0
            scopes += ["engine.self_ms", "planner.execute_self_ms"]
        row["router.shards_per_request"] = len(shard_calls)
        row["accounted_ratio"] = sum(row[name] for name in leaves) / latency
        row["unattributed_ms"] = sum(row[name] for name in scopes)
        return row

    def serving_spans(self) -> list:
        return self.front_all + self.worker_all


def layer_metrics(traces: TraceSet, reads, sharded: bool) -> tuple[dict, int]:
    """Median per-request layer figures over ``reads`` ``(trace, latency)``.

    Returns the metrics (times in ms) and how many requests joined.
    """
    rows = [r for r in (traces.request(t, lat, sharded) for t, lat in reads) if r]
    if not rows:
        raise ValueError("no traced request could be joined across processes")
    out = {}
    for name in rows[0]:
        value = float(np.median([row[name] for row in rows]))
        out[name] = value * 1e3 if name.endswith(("_ms", ".ms")) else value
    deltas = [end - start for _, _, name, start, end, _ in traces.serving_spans()
              if name == "pool.apply_deltas"]
    out["pool.apply_deltas_ms"] = float(np.median(deltas)) * 1e3 if deltas else 0.0
    built = traces.builders if sharded else traces.front_all
    out["fourier.correlate_ms"] = 1e3 * sum(
        end - start for _, _, name, start, end, _ in built if name == "fourier.correlate"
    )
    return out, len(rows)

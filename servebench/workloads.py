"""Inputs and reference answers for the serving benchmark.

Everything the served programs see is generated here from the run's
``--seed``: the 128x256 N(0,1) table, the query batches, the delta
batches and the accuracy probe.  The sketch configuration is fixed
(p=1, k=64, sketch seed 13) so a seed changes inputs, never the
configuration under test.

Queries mix three strategies in equal thirds, with window sides 8-31 so
that only dyadic exponents 3 and 4 are used.  Four sizes times four
compound streams make the 16 maps every workload keeps warm:

* ``grid`` -- both sides in {8, 16}, sent as ``auto`` (the planner
  resolves power-of-two shapes to one stream-0 lookup);
* ``compound`` -- sides in 8..31, not both powers of two, sent as
  ``auto`` (Definition 4: four corner lookups over four streams);
* ``disjoint`` -- sides in {8, 16, 24}, the exact dyadic composition.
"""

from __future__ import annotations

import numpy as np

from repro.serve import SketchEngine
from repro.serve.planner import RectQuery

SHAPE = (128, 256)
P, K, SKETCH_SEED = 1.0, 64, 13
SKETCH_ARGS = ["--p", "1", "--k", "64", "--seed", "13"]
# The largest dyadic exponent any query touches (sides <= 31), and the
# maps that covers: 2x2 sizes times 4 compound streams.
MAX_EXPONENT = 4
WARM_MAPS = 16

INTERACTIVE_QUERIES = 50
BULK_QUERIES = 3600
SHARDED_QUERIES = 64
UPDATE_CELLS = 32
READS_PER_UPDATE = 10
SHARD_TABLES = ("a", "b", "c", "d")
# Two tables per shard; unpinned, the hash ring puts all four on one shard.
SHARD_PINS = {"a": "s0", "b": "s0", "c": "s1", "d": "s1"}

# Distinct request batches cycled through by the timed loop; answers to
# each are computed once in process, so every served answer is checked.
DISTINCT_BATCHES = {"interactive": 48, "bulk": 4, "sharded": 48, "ingest": 48}
# Read requests in the exact-count prefix (ingest: one update cycle).
PREFIX_REQUESTS = {"interactive": 8, "bulk": 2, "sharded": 8}
PROBE_QUERIES = 4800
# Updates sent after each launch's read loop on the read-only workloads.
UPDATES_PER_LAUNCH = 12

_STREAM_TABLE, _STREAM_BATCHES, _STREAM_PROBE, _STREAM_DELTAS = range(4)


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def make_table(seed: int) -> np.ndarray:
    """The served table: 128x256 standard normal cells."""
    return _rng(seed, _STREAM_TABLE).standard_normal(SHAPE)


def _sides(rng, strategy: str, n: int) -> np.ndarray:
    if strategy == "grid":
        return rng.choice([8, 16], size=(n, 2))
    if strategy == "disjoint":
        return rng.choice([8, 16, 24], size=(n, 2))
    sides = rng.integers(8, 32, size=(n, 2))
    dyadic = np.isin(sides, (8, 16)).all(axis=1)
    sides[dyadic, 1] += 1  # 8->9, 16->17: still exponent 3 or 4
    return sides


def mixed_queries(rng, n: int, tables=("t",), strategies=None) -> list[RectQuery]:
    """``n`` queries, one third each grid / compound / disjoint, in a
    fixed interleaving, spread round-robin over ``tables``."""
    kinds = strategies or ("grid", "compound", "disjoint")
    order = [kinds[i % len(kinds)] for i in range(n)]
    queries: list[RectQuery | None] = [None] * n
    for kind in kinds:
        slots = [i for i, k in enumerate(order) if k == kind]
        sides = _sides(rng, kind, len(slots))
        rows = rng.integers(0, SHAPE[0] - sides[:, 0] + 1, size=(2, len(slots)))
        cols = rng.integers(0, SHAPE[1] - sides[:, 1] + 1, size=(2, len(slots)))
        wire = "disjoint" if kind == "disjoint" else "auto"
        for j, slot in enumerate(slots):
            h, w = int(sides[j, 0]), int(sides[j, 1])
            queries[slot] = RectQuery(
                tables[slot % len(tables)],
                (int(rows[0, j]), int(cols[0, j]), h, w),
                (int(rows[1, j]), int(cols[1, j]), h, w),
                wire,
            )
    return queries  # type: ignore[return-value]


def warmup_queries(tables=("t",)) -> list[RectQuery]:
    """One compound query per dyadic size and table: touches all 16 maps."""
    return [
        RectQuery(table, (0, 0, h, w), (40, 100, h, w), "auto")
        for table in tables
        for h in (9, 17)
        for w in (9, 17)
    ]


def tables_for(workload: str) -> tuple[str, ...]:
    return SHARD_TABLES if workload == "sharded" else ("t",)


def request_batches(workload: str, seed: int) -> list[list[RectQuery]]:
    """The distinct read requests of a workload, in loop order."""
    size = {
        "interactive": INTERACTIVE_QUERIES,
        "bulk": BULK_QUERIES,
        "sharded": SHARDED_QUERIES,
        "ingest": INTERACTIVE_QUERIES,
    }[workload]
    tables = tables_for(workload)
    return [
        mixed_queries(_rng(seed, _STREAM_BATCHES, i), size, tables)
        for i in range(DISTINCT_BATCHES[workload])
    ]


def probe_queries(workload: str, seed: int) -> list[RectQuery]:
    """The accuracy probe: grid and disjoint only, the strategies whose
    estimates carry the plain (1 +- eps) guarantee."""
    return mixed_queries(
        _rng(seed, _STREAM_PROBE), PROBE_QUERIES, tables_for(workload),
        strategies=("grid", "disjoint"),
    )


def delta_cells(seed: int, index: int) -> list[tuple[int, int, float]]:
    """Update ``index``: 32 distinct cells with N(0,1) deltas."""
    rng = _rng(seed, _STREAM_DELTAS, index)
    flat = rng.choice(SHAPE[0] * SHAPE[1], size=UPDATE_CELLS, replace=False)
    deltas = rng.standard_normal(UPDATE_CELLS)
    return [
        (int(cell // SHAPE[1]), int(cell % SHAPE[1]), float(delta))
        for cell, delta in zip(flat.tolist(), deltas.tolist())
    ]


def apply_cells(table: np.ndarray, cells) -> None:
    """The benchmark's own copy of an update, in the server's order."""
    rows, cols, deltas = zip(*cells)
    np.add.at(table, (np.array(rows), np.array(cols)), np.array(deltas))


def reference_engine(table: np.ndarray, tables=("t",)) -> SketchEngine:
    """An in-process engine with the served configuration.

    The sharded workload serves one archive under four names, so the
    reference registers one pool under the same four names: every table
    holds the same data, and the planner still groups by table name.
    """
    engine = SketchEngine(p=P, k=K, seed=SKETCH_SEED)
    # The pool adopts the array it is given, and updates write to it.
    first = engine.register_array(tables[0], table.copy())
    for name in tables[1:]:
        engine.register_pool(name, engine.pool(first))
    return engine


def exact_l1(table: np.ndarray, queries) -> np.ndarray:
    """Exact L1 distances between each query's two windows."""
    out = np.empty(len(queries))
    for i, query in enumerate(queries):
        a, b = query.a, query.b
        out[i] = np.abs(
            table[a.row:a.row + a.height, a.col:a.col + a.width]
            - table[b.row:b.row + b.height, b.col:b.col + b.width]
        ).sum()
    return out


def planner_counts(snapshot: dict) -> dict:
    """Planner counters of one engine ``stats`` snapshot."""
    planner = snapshot.get("planner", {})
    return {key: int(planner.get(key, 0)) for key in ("groups", "estimator_calls", "map_gathers")}

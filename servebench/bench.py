"""One run of one workload: launches, checks, timed loops, metrics.

See ``run.py`` for the command line and ``PREDICTIONS.md`` for what the
workloads and metrics mean.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import layers
import workloads as wl
from repro.ingest.deltas import DeltaBatch
from repro.obs.quality import theoretical_epsilon
from repro.serve import Client, RetryPolicy
from topology import BenchError, Topology, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOOKS = HERE / "hooks"

SETUPS = 3
# Host speed probe: a fixed stretch of pure-Python work timed between
# operations.  An operation counts as served on a full-speed host when
# the probes either side of it took at most FAST_MARGIN times the run's
# PROBE_QUANTILE-th percentile probe.
PROBE_ITERATIONS = 4000
FAST_MARGIN = 1.15
PROBE_QUANTILE = 5
# Share of a traced run's seconds spent on the untraced comparison loop.
UNTRACED_SHARE = 0.3
# float32 maps patched in place drift from a rebuild by rounding only;
# the repo's own float32 calibration allows 1e-4 relative.
PATCH_RTOL = 1e-4
BAND_DELTA = 0.05
# theoretical_epsilon(64, 0.05) = 0.34 is a calibration target, not a
# sharp bound: about 86% of honest p=1, k=64 estimates fall inside it.
# A biased scale factor moves the whole error distribution and drops the
# share well below this floor.
BAND_SHARE = 0.75

clock = time.perf_counter


class HostProbe:
    """Times a fixed amount of pure-Python work.

    The probe runs in the benchmark process between operations, on the
    one CPU the run is pinned to, while the served topology waits for
    the next request; so it sees the host's speed and not the program's.
    """

    def __init__(self):
        self.seen: list[float] = []

    def __call__(self) -> float:
        start = clock()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i
        took = clock() - start
        self.seen.append(took)
        return took

    def fast(self, scores) -> np.ndarray:
        """Mask of the operations whose score (the slower probe around
        them) is at most FAST_MARGIN times the run's PROBE_QUANTILE-th
        percentile probe.  When none is, the best-scored ones."""
        scores = np.asarray(scores)
        limit = FAST_MARGIN * np.percentile(self.seen, PROBE_QUANTILE)
        return scores <= max(limit, scores.min())


def units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _span_count(metrics: dict) -> int:
    """Spans the program's tracer finished, from its ``span_seconds``
    histograms in one registry dump."""
    samples = metrics.get("span_seconds", {}).get("samples", [])
    return sum(sample["histogram"]["count"] for sample in samples)


def _answers(results) -> list[tuple[float, str]]:
    return [(r.distance, r.strategy) for r in results]


class Bench:
    """One run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.tables = wl.tables_for(workload)
        self.table = wl.make_table(seed)
        self.table_path = workdir / "table.npy"
        np.save(self.table_path, self.table)
        self.batches = wl.request_batches(workload, seed)
        self.warmup = wl.warmup_queries(self.tables)
        self.probe = wl.probe_queries(workload, seed)
        self.ops = {"query": Counter(), "update": Counter()}
        self.errors: list[str] = []
        self.topology = None
        self.launch_counts: list[dict] = []
        self.next_update = 0
        self.live_table = self.table.copy()
        self.update_maps: list[tuple] = []
        self.host = HostProbe()
        self.last_probe = 0.0

    # ------------------------------------------------------------------
    # Checks and accounting
    # ------------------------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            if len(self.errors) < 5:
                print(f"servebench: WRONG: {message}", file=sys.stderr)
            self.errors.append(message)

    def _op(self, kind: str, call):
        """Run one operation; ``kind`` ``None`` is not workload traffic."""
        counter = self.ops.get(kind, Counter())
        counter["attempted"] += 1
        try:
            return call()
        except Exception as exc:  # every failure type fails the run
            counter["failed"] += 1
            raise BenchError(f"{kind or 'stats'} failed: {exc!r}") from exc

    def query(self, client, batch):
        return self._op("query", lambda: client.query(batch))

    def update(self, client, table: str):
        """Send the next delta batch; returns its latency in seconds."""
        index = self.next_update
        self.next_update += 1
        cells = wl.delta_cells(self.seed, index)
        start = clock()
        response = self._op(
            "update", lambda: client.update(table, cells, batch_id=f"{self.seed:x}-{index}")
        )
        elapsed = clock() - start
        wl.apply_cells(self.live_table, cells)
        self.update_maps.append((response.get("maps_patched"), response.get("maps_invalidated")))
        self.check(
            response.get("applied") is True and not response.get("duplicate")
            and response.get("cells") == len(cells)
            and response.get("maps_patched") == wl.WARM_MAPS
            and response.get("maps_invalidated") == 0,
            f"update {index}: expected {wl.WARM_MAPS} maps patched and none invalidated, "
            f"got {response}",
        )
        return elapsed

    def expect(self, results, expected, what: str) -> None:
        got = _answers(results)
        if got != expected:
            wrong = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
            self.check(False, f"{what}: {wrong} of {len(expected)} answers differ "
                              f"from the in-process engine")

    # ------------------------------------------------------------------
    # Reference answers and counts
    # ------------------------------------------------------------------

    def build_reference(self) -> None:
        """Answers and prefix counters of an in-process engine fed the
        same inputs, in the order a launch sends them."""
        engine = wl.reference_engine(self.table, self.tables)
        self.expected_warmup = _answers(engine.query(self.warmup))
        self.expected = [_answers(engine.query(batch)) for batch in self.batches]
        before = wl.planner_counts(engine.stats_snapshot())
        counts = Counter()
        if self.workload == "ingest":
            cells = wl.delta_cells(self.seed, 0)
            summary = engine.update(DeltaBatch.from_cells(self.tables[0], "ref", cells))
            counts["maps_patched"] = summary["maps_patched"]
            counts["maps_invalidated"] = summary["maps_invalidated"]
            self.prefix = [self.batches[1 + j] for j in range(wl.READS_PER_UPDATE)]
            self.expected_prefix = [_answers(engine.query(b)) for b in self.prefix]
        else:
            self.prefix = self.batches[1:1 + wl.PREFIX_REQUESTS[self.workload]]
            self.expected_prefix = self.expected[1:1 + len(self.prefix)]
            for batch in self.prefix:
                engine.query(batch)
        after = wl.planner_counts(engine.stats_snapshot())
        for key in after:
            counts[key] = after[key] - before[key]
        counts["maps_built"] = engine.pool(self.tables[0]).maps_built
        self.reference_counts = dict(counts)
        self.expected_probe = _answers(engine.query(self.probe))
        engine.close()

    def served_counts(self, client) -> Counter:
        """The program's own counters, summed over its engines."""
        snapshot = self._op(None, client.stats)
        engines = (list(snapshot["shards"].values())
                   if self.workload == "sharded" else [snapshot])
        counts = Counter()
        for engine in engines:
            counts.update(wl.planner_counts(engine))
            for table in engine["tables"].values():
                counts["maps_built"] += table["maps_built"]
                counts["map_hits"] += table["map_hits"]
            metrics = engine["metrics"]
            for name, key in (("ingest_patched_maps_total", "maps_patched"),
                              ("ingest_invalidated_maps_total", "maps_invalidated")):
                for sample in metrics.get(name, {}).get("samples", []):
                    counts[key] += int(sample["value"])
            for sample in metrics.get("telemetry_sample_seconds", {}).get("samples", []):
                counts["telemetry_s"] += sample["histogram"]["total"]
            counts["spans"] += _span_count(metrics)
        if self.workload == "sharded":
            counts["spans"] += _span_count(snapshot["metrics"])
        return counts

    # ------------------------------------------------------------------
    # Launch, exact-count pass, probe
    # ------------------------------------------------------------------

    def launch(self, traced: bool):
        """Start the topology; returns (client, setup seconds)."""
        trace_dir = None
        if traced:
            trace_dir = self.workdir / "spans"
            trace_dir.mkdir()
        self.trace_dir = trace_dir
        self.topology = Topology(
            self.workload, self.workdir, self.table_path,
            child_env(SRC, trace_dir, HOOKS),
        )
        self.live_table = self.table.copy()
        self.update_maps: list[tuple] = []
        start = clock()
        port = self.topology.launch()
        client = Client("127.0.0.1", port, protocol="binary", retry=RetryPolicy.none())
        self.expect(self.query(client, self.warmup), self.expected_warmup, "warm-up")
        self.expect(self.query(client, self.batches[0]), self.expected[0], "first request")
        setup = clock() - start
        self.count_pass(client)
        return client, setup

    def count_pass(self, client) -> None:
        """Run the fixed prefix and require its counters to repeat."""
        self.next_update = 0
        before = self.served_counts(client)
        if self.workload == "ingest":
            self.update(client, self.tables[0])
        for j, batch in enumerate(self.prefix):
            self.expect(self.query(client, batch), self.expected_prefix[j], f"prefix {j}")
        after = self.served_counts(client)
        counts = {key: after[key] - before[key] for key in
                  ("groups", "estimator_calls", "map_gathers", "maps_patched",
                   "maps_invalidated")}
        counts["maps_built"] = after["maps_built"] + self.topology.maps_pooled
        counts["map_hits"] = after["map_hits"]
        reference = {key: self.reference_counts.get(key, 0) for key in counts
                     if key != "map_hits"}
        self.check(
            {k: counts[k] for k in reference} == reference,
            f"exact-count pass {counts} differs from the in-process engine {reference}",
        )
        if self.launch_counts:
            self.check(counts == self.launch_counts[0],
                       f"exact-count pass {counts} differs from the first launch "
                       f"{self.launch_counts[0]}")
        self.launch_counts.append(counts)

    def band_check(self, queries, results, what: str):
        """Relative errors against exact L1 on the benchmark's own copy
        of the table; each strategy must keep at least BAND_SHARE of its
        answers inside the theoretical_epsilon band."""
        exact = wl.exact_l1(self.live_table, queries)
        estimate = np.array([r.distance for r in results])
        strategies = np.array([r.strategy for r in results])
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(exact > 0, np.abs(estimate - exact) / exact, np.nan)
        epsilon = theoretical_epsilon(wl.K, BAND_DELTA)
        for strategy in np.unique(strategies):
            errors = rel[(strategies == strategy) & ~np.isnan(rel)]
            inside = float(np.mean(errors <= epsilon))
            self.check(inside >= BAND_SHARE,
                       f"{what}: only {inside:.3f} of {strategy} estimates inside "
                       f"the eps={epsilon:.3f} band")
        return rel

    def run_probe(self, client) -> float:
        """Accuracy probe outside the timed loop; returns rel_err_p50."""
        results = self.query(client, self.probe)
        self.expect(results, self.expected_probe, "accuracy probe")
        # Relative error is undefined (nan) when both windows coincide.
        return float(np.nanmedian(self.band_check(self.probe, results, "accuracy probe")))

    # ------------------------------------------------------------------
    # Timed loops
    # ------------------------------------------------------------------

    def _scored(self, scores: list, operation):
        """Run one timed operation, probe the host after it and score it
        with the slower of the probes either side of it."""
        value = operation()
        after = self.host()
        scores.append(max(self.last_probe, after))
        self.last_probe = after
        return value

    def read_loop(self, client, seconds: float) -> dict:
        """Closed loop of read requests; ingest interleaves updates."""
        loop = {key: [] for key in ("reads", "sizes", "traces", "read_scores",
                                    "updates", "update_scores")}
        n = len(self.batches)
        index = 1 + len(self.prefix)
        ingest = self.workload == "ingest"
        self.last_probe = self.host()
        end = clock() + seconds
        while clock() < end:
            if ingest:
                loop["updates"].append(self._scored(
                    loop["update_scores"], lambda: self.update(client, self.tables[0])))
            for _ in range(wl.READS_PER_UPDATE if ingest else 1):
                batch = index % n
                index += 1

                def read():
                    start = clock()
                    results = self.query(client, self.batches[batch])
                    return results, clock() - start

                results, elapsed = self._scored(loop["read_scores"], read)
                loop["reads"].append(elapsed)
                loop["sizes"].append(len(results))
                loop["traces"].append(client.last_trace_id)
                if ingest:
                    # The table changes under the loop; strategies must
                    # hold and the final state is checked afterwards.
                    self.check(
                        [s for _, s in _answers(results)]
                        == [s for _, s in self.expected[batch]]
                        and all(np.isfinite(r.distance) for r in results),
                        f"read {index} strategies or values wrong",
                    )
                else:
                    self.expect(results, self.expected[batch], f"read {index}")
        return loop

    def after_loop(self, client, last: bool) -> tuple[list, list]:
        """After a launch's read loop: on the read-only workloads, a few
        updates, so every workload reports the write latency of its
        topology; on ``ingest``, the final check after the last loop.
        Then a clean drain.  Returns the update latencies and scores."""
        updates, scores = [], []
        if self.workload != "ingest":
            self.last_probe = self.host()
            updates = [self._scored(scores, lambda: self.update(client, self.tables[0]))
                       for _ in range(wl.UPDATES_PER_LAUNCH)]
        elif last:
            self.verify_final(client)
        client.close()
        self.topology.stop()
        return updates, scores

    def verify_final(self, client) -> None:
        """Ingest: answers after all updates against a fresh engine."""
        probe = self.probe[: len(self.probe) // 4]
        fresh = wl.reference_engine(self.live_table, self.tables)
        expected = fresh.query(probe)
        fresh.close()
        served = self.query(client, probe)
        got = np.array([r.distance for r in served])
        want = np.array([r.distance for r in expected])
        self.check([r.strategy for r in served] == [r.strategy for r in expected],
                   "final ingest strategies differ from a fresh engine")
        # Coincident windows give 0 on both engines; those must match
        # exactly, the rest within PATCH_RTOL.
        self.check(np.array_equal(got == 0, want == 0),
                   "final ingest answers are zero where a fresh engine's are not")
        nonzero = want != 0
        drift = float(np.max(np.abs(got - want)[nonzero] / want[nonzero], initial=0.0))
        print(f"servebench: ingest final drift {drift:.2e} (allowed {PATCH_RTOL:g})")
        self.check(drift <= PATCH_RTOL,
                   f"patched answers drift {drift:.2e} from a fresh engine")
        self.band_check(probe, served, "final ingest answers")

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def run(self) -> dict:
        self.build_reference()
        if self.trace:
            return self.run_traced()
        setups, rss = [], []
        timed = {key: [] for key in ("reads", "sizes", "read_scores",
                                     "updates", "update_scores")}
        for launch in range(SETUPS):
            client, setup = self.launch(traced=False)
            setups.append(setup)
            if launch == 0:
                rel_err = self.run_probe(client)
            loop = self.read_loop(client, self.seconds / SETUPS)
            rss.append(self.topology.peak_rss_mb())
            updates, scores = self.after_loop(client, last=launch == SETUPS - 1)
            for key in timed:
                timed[key] += loop[key]
            timed["updates"] += updates
            timed["update_scores"] += scores
        # The host's speed changes many times a second, and sometimes for
        # seconds at a time, independently of the program.  A figure over
        # all operations mixes fast and slow stretches in a share that
        # differs from run to run, so loop figures are taken over the
        # operations the host probe saw served at full speed.  The
        # selection never looks at an operation's own time.
        fast = self.host.fast(timed["read_scores"])
        reads = np.asarray(timed["reads"])[fast]
        sizes = np.asarray(timed["sizes"])[fast]
        updates = np.asarray(timed["updates"])[self.host.fast(timed["update_scores"])]
        values = {
            "setup_s": np.median(setups),
            "request_p50_ms": np.percentile(reads, 50) * 1e3,
            "request_p90_ms": np.percentile(reads, 90) * 1e3,
            "queries_per_s": sizes.sum() / reads.sum(),
            "update_p50_ms": np.median(updates) * 1e3,
            "server_rss_mb": np.median(rss),
            "rel_err_p50": rel_err,
        }
        print(f"servebench: {self.workload} seed={self.seed} "
              f"setups={np.round(setups, 3).tolist()} "
              f"full-speed reads {len(reads)} of {len(timed['reads'])}, "
              f"updates {len(updates)} of {len(timed['updates'])}; "
              f"p50 of all reads {np.percentile(timed['reads'], 50) * 1e3:.3f} ms")
        return self.result({name: (float(values[name]), unit)
                            for name, unit in units("end_to_end").items()})

    def run_traced(self) -> dict:
        client, _ = self.launch(traced=False)
        untraced = self.read_loop(client, self.seconds * UNTRACED_SHARE)
        self.after_loop(client, last=False)

        sys.path.insert(0, str(HOOKS))
        import servebench_spans

        servebench_spans.install()
        client, _ = self.launch(traced=True)
        counts = self.launch_counts[-1]
        self.run_probe(client)
        spans_per_stats = self.spans_per_stats(client)
        before = self.served_counts(client)
        started = clock()
        loop = self.read_loop(client, self.seconds * (1 - UNTRACED_SHARE))
        elapsed = clock() - started
        after = self.served_counts(client)
        loop_spans = after["spans"] - before["spans"] - spans_per_stats
        if loop["updates"]:
            # Ingest: take the update's spans out of the loop's count.
            self.update(client, self.tables[0])
            updated = self.served_counts(client)
            loop_spans -= len(loop["updates"]) * (
                updated["spans"] - after["spans"] - spans_per_stats)
        front_pid = self.topology.front.popen.pid
        self.after_loop(client, last=True)
        traces = layers.TraceSet(servebench_spans.records(), self.trace_dir, front_pid)
        values, joined = layers.layer_metrics(
            traces, zip(loop["traces"], loop["reads"]), self.workload == "sharded"
        )
        p50_traced, p50_untraced = (
            float(np.median(np.asarray(timed["reads"])[self.host.fast(timed["read_scores"])]))
            for timed in (loop, untraced)
        )
        requests = len(self.prefix)
        patched, invalidated = np.mean(self.update_maps, axis=0)
        values.update({
            "planner.groups_per_request": counts["groups"] / requests,
            "planner.map_gathers_per_request": counts["map_gathers"] / requests,
            "estimators.calls_per_request": counts["estimator_calls"] / requests,
            "pool.maps_patched_per_update": patched,
            "pool.maps_invalidated_per_update": invalidated,
            "pool.map_hit_ratio": counts["map_hits"] / (counts["map_hits"] + counts["maps_built"]),
            "fourier.maps_built": counts["maps_built"],
            "obs.spans_per_request": loop_spans / len(loop["reads"]),
            "obs.telemetry_sample_ms_per_s":
                (after["telemetry_s"] - before["telemetry_s"]) * 1e3 / elapsed,
            "trace_overhead_ratio": p50_traced / p50_untraced,
        })
        print(f"servebench: {self.workload} traced requests joined {joined} of "
              f"{len(loop['reads'])}; untraced p50 {p50_untraced * 1e3:.3f} ms, "
              f"traced p50 {p50_traced * 1e3:.3f} ms")
        return self.result({name: (float(values[name]), unit)
                            for name, unit in units("per_layer").items()})

    def spans_per_stats(self, client) -> int:
        """Program spans one ``stats`` request adds to the next count."""
        first = self.served_counts(client)["spans"]
        second = self.served_counts(client)["spans"]
        return second - first

    def result(self, metrics: dict) -> dict:
        attempted = sum(c["attempted"] for c in self.ops.values())
        failed = sum(c["failed"] for c in self.ops.values())
        print("servebench: operations " + ", ".join(
            f"{kind} attempted={c['attempted']} failed={c['failed']}"
            for kind, c in self.ops.items()))
        return {
            "correct": not self.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }

    def close(self) -> None:
        if self.topology is not None:
            self.topology.kill()

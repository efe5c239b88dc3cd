"""Serving-tier benchmark: end-to-end and per-layer numbers.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload interactive --seed 1 --seconds 15 --trace 0

Each run starts the workload's topology through the shipped CLI
(``repro serve``, or ``repro pool`` then ``repro shard-serve``) from the
checkout's ``src`` and drives it from this one process over one
binary-protocol connection in a closed loop: the next request goes out
when the previous answer is back.  Every answer is checked.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

An untraced run launches the topology three times; ``setup_s`` is the
median launch-to-first-correct-answer time.  The timed loop is split
over the three launches; a host-speed probe timed after every operation
selects the operations served at full host speed, and the loop figures
are taken over those.  A traced run first measures an
untraced loop, then relaunches with the span recorder of ``hooks/``
loaded into every process and reports per-layer self times joined by
trace id, plus the program's own counters read through the ``stats``
op.  The workloads, the metrics and what each layer is predicted to
move are recorded in ``BENCHMARK.json`` and ``servebench/PREDICTIONS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("interactive", "bulk", "sharded", "ingest")


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import Bench, BenchError

    signal.signal(signal.SIGTERM, _terminate)
    # One client in a closed loop and the server it waits on never run
    # at the same time, so one CPU serves both.  Pinning the run (the
    # launched processes inherit it) removes cross-CPU wake-ups and ties
    # every request to the one CPU the host probe watches.  The sharded
    # workload's two workers share that CPU too, so it measures the
    # scatter/gather path, not parallel speed-up.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = ROOT / ".servebench-work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = None
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        result = bench.run()
    except BenchError as exc:
        print(f"servebench: {exc}", file=sys.stderr)
        if bench is not None:
            bench.result({})
        return 1
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Launching, measuring and stopping the served topologies.

Every topology is started through the shipped CLI from the checkout's
``src``: ``repro serve`` for one table, or ``repro pool`` followed by
``repro shard-serve --workers 2`` for the sharded workload.  Each launch
runs in its own session, so a failure anywhere can kill the whole
process group; a normal stop sends SIGINT to the front process and
requires the CLI's clean-drain report.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import MAX_EXPONENT, SHARD_PINS, SHARD_TABLES, SKETCH_ARGS

READY_TIMEOUT = 60.0
# ShardCluster.stop joins each worker for 10 s before escalating to
# SIGKILL, so a stop that takes this long did not drain cleanly.
STOP_TIMEOUT = 9.0


class BenchError(RuntimeError):
    """A failed operation or an unclean topology: the run is invalid."""


def child_env(src: Path, trace_dir: Path | None, hooks: Path) -> dict:
    """Environment of every launched process: the checkout's ``src``,
    plus the tracing hooks when this launch is traced."""
    # A fixed hash seed gives every launch the same dict layouts.
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONHASHSEED="0")
    env.pop("SERVEBENCH_TRACE_DIR", None)
    path = [str(src)]
    if trace_dir is not None:
        path.append(str(hooks))
        env["SERVEBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


class _Process:
    """One launched CLI process with its merged output collected."""

    def __init__(self, argv: list[str], env: dict, cwd: Path):
        self.argv = argv
        self.popen = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            env=env, cwd=cwd, text=True, start_new_session=True,
        )
        self.lines: list[str] = []
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.popen.stdout:
            with self._cond:
                self.lines.append(line.rstrip("\n"))
                self._cond.notify_all()
        with self._cond:
            self._cond.notify_all()

    def wait_line(self, pattern: str) -> re.Match:
        regex = re.compile(pattern)
        deadline = time.monotonic() + READY_TIMEOUT
        with self._cond:
            while True:
                for line in self.lines:
                    found = regex.search(line)
                    if found:
                        return found
                left = deadline - time.monotonic()
                if self.popen.poll() is not None and not self._reader.is_alive():
                    raise BenchError(
                        f"repro {self.argv[0]} exited before ready:\n" + self.output()
                    )
                if left <= 0:
                    raise BenchError(f"repro {self.argv[0]} not ready in {READY_TIMEOUT}s")
                self._cond.wait(min(left, 0.5))

    def output(self) -> str:
        with self._cond:
            return "\n".join(self.lines[-40:])

    def close(self) -> None:
        """Kill whatever is left of the session, reap it and its reader."""
        try:
            os.killpg(self.popen.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.popen.wait()
        self._reader.join(timeout=5.0)


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # comm may contain spaces; the ppid is the second field after it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def _cmdline(pid: int) -> str:
    try:
        return (Path("/proc") / str(pid) / "cmdline").read_bytes().replace(b"\0", b" ").decode()
    except OSError:
        return ""


class Topology:
    """One launch of a workload's serving topology.

    ``launch`` blocks until the front process listens and returns its
    port; ``stop`` drains it and raises :class:`BenchError` unless every
    serving process exited cleanly.
    """

    def __init__(self, workload: str, workdir: Path, table_path: Path, env: dict):
        self.workload = workload
        self.workdir = workdir
        self.table_path = table_path
        self.env = env
        self.archive = workdir / "pool.npz"
        self.front: _Process | None = None
        self.maps_pooled = 0

    def launch(self) -> int:
        if self.workload == "sharded":
            return self._launch_sharded()
        argv = ["serve", "--table", f"t={self.table_path}", "--port", "0", *SKETCH_ARGS]
        if self.workload == "ingest":
            argv += ["--update-mode", "auto"]
        self.front = _Process(argv, self.env, self.workdir)
        return int(self.front.wait_line(r"^serving .* on [\d.]+:(\d+)").group(1))

    def _launch_sharded(self) -> int:
        pool = _Process(
            ["pool", str(self.table_path), "--out", str(self.archive), *SKETCH_ARGS,
             "--max-exponent", str(MAX_EXPONENT), "--workers", "2"],
            self.env, self.workdir,
        )
        try:
            code = pool.popen.wait(timeout=READY_TIMEOUT)
        except subprocess.TimeoutExpired:
            pool.close()
            raise BenchError("repro pool did not finish") from None
        pool.close()
        found = re.search(r"^pooled (\d+) maps", pool.output(), re.M)
        if code != 0 or not found:
            raise BenchError(f"repro pool failed ({code}):\n{pool.output()}")
        self.maps_pooled = int(found.group(1))
        argv = ["shard-serve", "--workers", "2", "--port", "0", *SKETCH_ARGS]
        for table in SHARD_TABLES:
            argv += ["--table", f"{table}={self.archive}", "--pin", f"{table}={SHARD_PINS[table]}"]
        self.front = _Process(argv, self.env, self.workdir)
        return int(self.front.wait_line(r"^routing .* on [\d.]+:(\d+)").group(1))

    def serving_pids(self) -> list[int]:
        """The front process plus, when sharded, its spawned workers."""
        pid = self.front.popen.pid
        workers = [c for c in _children(pid) if "spawn_main" in _cmdline(c)]
        if self.workload == "sharded" and len(workers) != 2:
            raise BenchError(f"expected 2 shard workers under {pid}, found {workers}")
        return [pid, *workers]

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of every serving process, in MB."""
        total_kb = 0
        for pid in self.serving_pids():
            status = (Path("/proc") / str(pid) / "status").read_text()
            total_kb += int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT the front process and require a clean drain of all."""
        if self.front is None:
            return
        pids = self.serving_pids()
        front, self.front = self.front, None
        try:
            front.popen.send_signal(signal.SIGINT)
            code = front.popen.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            front.close()
            raise BenchError(f"repro {front.argv[0]} did not drain in {STOP_TIMEOUT}s") from None
        front._reader.join(timeout=5.0)
        output = front.output()
        alive = [pid for pid in pids[1:] if Path(f"/proc/{pid}").exists()]
        front.close()
        self._remove_archive()
        if code != 0 or "drained cleanly" not in output or alive:
            raise BenchError(
                f"unclean drain of repro {front.argv[0]} (exit {code}, "
                f"workers left {alive}):\n{output}"
            )

    def kill(self) -> None:
        """Failure path: kill the whole session, remove the archive."""
        if self.front is not None:
            self.front.close()
            self.front = None
        self._remove_archive()

    def _remove_archive(self) -> None:
        try:
            self.archive.unlink()
        except FileNotFoundError:
            pass

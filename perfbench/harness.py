"""Jobs, tracing and the timed closed loop shared by every workload.

A job is one call sequence into hotk with an expected outcome fixed before
the timed pass.  The loop runs one client: each job starts only after the
previous one finished, on one thread.  Whole commands run as subprocesses,
one at a time.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter


# ---------------------------------------------------------------------------
# Tracing: spans around the benchmark's calls into each layer.

class Tracer:
    """Spans kept in memory as (name, start, end, parent, job) and written
    out once at the end; counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, str]]] = []
        self.stack: List[int] = []
        self.job = "setup"
        self.enabled = True
        self.counters: Dict[str, float] = {}

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """fn inside a span; `after(result, args)` runs once the span closed,
        so counting work does not inflate the layer's time."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and self time per span name: a span's duration minus the
        part its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = {}
        own: Dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + (end - start) - child[i]
        return calls, own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7),
                                     parent, job]) + "\n")


# ---------------------------------------------------------------------------
# In-process jobs.

@dataclass
class Job:
    """`run()` returns the outcome, which must equal `expect`."""
    name: str
    run: Callable[[], Any]
    expect: Any

    def __post_init__(self):
        if self.expect is None:
            raise ValueError(f"job {self.name} has no expected outcome")


@dataclass
class PassResult:
    wall: float
    rounds: List[List[float]]          # job latencies, one list per round
    round_walls: List[float]
    failed: List[str] = field(default_factory=list)


def run_jobs(jobs: List[Job], rounds: int, tracer: Optional[Tracer],
             tag: str = "") -> PassResult:
    """Run the job list `rounds` times back to back, one job at a time.

    As in timeit, the cyclic garbage collector is off while a round runs
    and collects between rounds, so a collection triggered by one job's
    allocations does not land in whichever job runs next."""
    per_round: List[List[float]] = []
    round_walls: List[float] = []
    failed: List[str] = []
    begin = perf()
    for r in range(rounds):
        latencies: List[float] = []
        gc.collect()
        gc.disable()
        round_start = perf()
        try:
            for i, job in enumerate(jobs):
                run = job.run
                if tracer is not None:
                    tracer.job = f"{tag}{r}.{i}"
                    run = tracer.wrap("job", run)
                start = perf()
                try:
                    out = run()
                    latencies.append(perf() - start)
                    ok = out == job.expect
                except Exception as exc:   # a raising job is a failed job
                    latencies.append(perf() - start)
                    ok = False
                    print(f"job {job.name} raised {type(exc).__name__}: "
                          f"{exc}", file=sys.stderr)
                if not ok:
                    failed.append(job.name)
            round_walls.append(perf() - round_start)
        finally:
            gc.enable()
        per_round.append(latencies)
    return PassResult(perf() - begin, per_round, round_walls, failed)


def merge(parts: List[PassResult]) -> PassResult:
    return PassResult(sum(p.wall for p in parts),
                      [r for p in parts for r in p.rounds],
                      [w for p in parts for w in p.round_walls],
                      [f for p in parts for f in p.failed])


def tail(latencies: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, level in percent); the maximum when there are fewer than 11."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Whole commands as subprocesses.

@dataclass
class CliJob:
    """`hotk <argv>` must exit with `code`; `check`, when given, must accept
    its standard output."""
    name: str
    argv: List[str]
    code: int
    check: Optional[Callable[[str], bool]] = None
    keep_output: bool = True

    def __post_init__(self):
        if self.code is None:
            raise ValueError(f"command {self.name} has no expected exit code")


def cli_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("HOTK_BUDGET", None)
    return env


def run_cli(job: CliJob, root: str, cwd: str,
            timeout: float = 150.0) -> Tuple[float, bool, int]:
    """(wall seconds, outcome ok, exit code) of one command run to its end."""
    start = perf()
    try:
        proc = subprocess.run([sys.executable, "-m", "hotk.cli", *job.argv],
                              cwd=cwd, env=cli_env(root),
                              stdin=subprocess.DEVNULL,
                              stdout=(subprocess.PIPE if job.keep_output
                                      else subprocess.DEVNULL),
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return perf() - start, False, -1
    wall = perf() - start
    ok = proc.returncode == job.code and (job.check is None
                                          or job.check(proc.stdout))
    return wall, ok, proc.returncode


def child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs: List[float]) -> float:
    return statistics.median(xs)

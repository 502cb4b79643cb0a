"""hotk benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a hotk checkout:

    python3 perfbench/run.py --workload kernel-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced
    python3 perfbench/run.py --workload all --trace 1  # every workload, traced
    python3 perfbench/run.py --smoke                   # self-check

One run of one workload, in its own process:

1. set-up, repeated and timed (setup_s is the median): import hotk, build
   the reference models and graphs, write the files the commands read;
2. input generation from --seed, with every job's expected outcome
   (bundled expectations, the test suite's verdicts, or genutil.oracle_eval);
3. a warm-up round over the job list;
4. the timed pass: round(seconds / round_s) whole rounds, one client, each
   job starting when the previous one ended, alternating with passes over
   the workload's whole commands (subprocesses, one at a time);
5. the exit-code contract commands.

Each job and each command counts with its fastest run: on a shared 2-vCPU
cloud machine the speed shifts by up to 60% for seconds at a time, and the
fastest run filters out what other tenants do to it.

With --trace 1 the timed pass runs twice, untraced and then traced, so the
difference is the tracing overhead; one probe job per layer follows, and
each command also runs in-process through hotk.cli.main.  Spans go to
.perfbench/spans-<workload>.jsonl.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  `attempted` counts distinct jobs and commands, `failed`
those that raised, gave a wrong outcome or a wrong exit code.  `correct` is
false when any job or command other than the four contract commands failed;
the contract commands count in `failed` and `failed_frac` and are named.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from contract import contract_commands                      # noqa: E402
from harness import (Tracer, child_rss_mb, median, merge,   # noqa: E402
                     perf, run_cli, run_jobs, self_rss_mb, tail)
from layers import bind, purge                              # noqa: E402
from common import probe_jobs                               # noqa: E402
from wl_enum import Enumeration                             # noqa: E402
from wl_eval import EvalDeep, EvalSweep                     # noqa: E402
from wl_kernel import KernelCorpus                          # noqa: E402

WORKLOADS = {w.name: w for w in (KernelCorpus(), EvalSweep(), EvalDeep(),
                                 Enumeration())}
SETUP_REPEATS = 5


def load_spec() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


def provenance(root: str) -> dict:
    """Python version and the commit (git when the checkout has it, else a
    digest of the sources)."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        commit = proc.stdout.strip() or None
    if commit is None:
        digest = hashlib.sha256()
        src = os.path.join(root, "src")
        for base, dirs, files in os.walk(src):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    return {"python": platform.python_version(), "commit": commit}


def in_process_cli(api, job) -> float:
    """Time of the identical command through hotk.cli.main in this process."""
    sink = io.StringIO()
    start = perf()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        api.main(list(job.argv))
    return perf() - start


def layer_metrics(tracer: Tracer, cli_overhead: float, cli_rss: float,
                  trace_overhead: float) -> dict:
    calls, own = tracer.self_times()
    cnt = tracer.counters

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "kernel.parse.calls": calls.get("kernel.parse", 0),
        "kernel.parse.self_s": own.get("kernel.parse", 0.0),
        "kernel.parse.nodes_per_s": ratio(cnt.get("kernel.parse.nodes", 0),
                                          own.get("kernel.parse", 0.0)),
        "kernel.formation.self_s": own.get("kernel.formation", 0.0),
        "kernel.expand.self_s": own.get("kernel.expand", 0.0),
        "kernel.expand.growth": ratio(cnt.get("kernel.expand.nodes_out", 0),
                                      cnt.get("kernel.expand.nodes_in", 0)),
        "kernel.normalize.self_s": own.get("kernel.normalize", 0.0),
        "kernel.print.self_s": own.get("kernel.print", 0.0),
        "translate.map.self_s": own.get("translate.map", 0.0),
        "translate.roundtrip.calls": calls.get("translate.roundtrip", 0),
        "translate.roundtrip.self_s": own.get("translate.roundtrip", 0.0),
        "translate.roundtrip.assignments":
            cnt.get("translate.roundtrip.assignments", 0),
        "translate.roundtrip.assignments_per_s":
            ratio(cnt.get("translate.roundtrip.assignments", 0),
                  own.get("translate.roundtrip", 0.0)),
        "models.eval.calls": calls.get("models.eval", 0),
        "models.eval.self_s": own.get("models.eval", 0.0),
        "models.decide.self_s": own.get("models.decide", 0.0),
        "models.build.self_s": own.get("models.build", 0.0),
        "models.build.entities": cnt.get("models.build.entities", 0),
        "models.axioms.self_s": own.get("models.axioms", 0.0),
        "models.axioms.skipped_frac": ratio(cnt.get("models.axioms.skipped", 0),
                                            cnt.get("models.axioms.verdicts", 0)),
        "models.axioms.subsets_computed":
            cnt.get("models.axioms.subsets_computed", 0),
        "models.serialize.self_s": own.get("models.serialize", 0.0),
        "settheory.levels.self_s": own.get("settheory.levels", 0.0),
        "settheory.standard.self_s": own.get("settheory.standard", 0.0),
        "settheory.construct.self_s": own.get("settheory.construct", 0.0),
        "settheory.set_axioms.self_s": own.get("settheory.set_axioms", 0.0),
        "settheory.kappa.self_s": own.get("settheory.kappa", 0.0),
        "proofkit.check.calls": calls.get("proofkit.check", 0),
        "proofkit.check.self_s": own.get("proofkit.check", 0.0),
        "proofkit.check.steps_per_s": ratio(cnt.get("proofkit.check.steps", 0),
                                            own.get("proofkit.check", 0.0)),
        "cli.calls": calls.get("cli", 0),
        "cli.self_s": own.get("cli", 0.0),
        "cli.overhead_s": cli_overhead,
        "cli.child_rss_mb": cli_rss,
        "trace.overhead_s": trace_overhead,
    }
    return m


def run_workload(root: str, name: str, seed: int, seconds: float,
                 trace: bool) -> int:
    wl = WORKLOADS[name]
    out_dir = os.path.join(root, ".perfbench")
    work = os.path.join(out_dir, f"work-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer() if trace else None

    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        api = refs = None
        gc.collect()
        purge()
        start = perf()
        api = bind(tracer)
        refs = wl.setup(api, work)
        setup_times.append(perf() - start)

    if trace:
        tracer.enabled = False      # spans cover set-up and the traced pass
    jobs = wl.jobs(api, refs, seed)
    probes = probe_jobs(api, refs) if trace else []
    commands = wl.commands(api, refs, seed, work)
    contract = contract_commands(refs["fjt3_path"], work)

    # The reference models and the inputs live for the whole run: keep them
    # out of the collector's way, so collections scan only what jobs make.
    gc.collect()
    gc.freeze()
    # A fixed number of whole rounds, so both sides of a comparison do the
    # same work; round_s is one round's time on the reference machine.
    rounds = max(1, round(seconds / wl.round_s))
    warm = run_jobs(jobs, 1, None)
    failed = set(warm.failed)
    cli_walls = {job.name: [] for job in commands}

    def cli_pass() -> None:
        for job in commands:
            wall, ok, code = run_cli(job, root, work)
            cli_walls[job.name].append(wall)
            if not ok:
                failed.add(job.name)
                print(f"command {job.name} exited {code} (expected "
                      f"{job.code})", file=sys.stderr)

    trace_overhead = 0.0
    if trace:
        plain = run_jobs(jobs, rounds, None)
        tracer.enabled = True
        timed = run_jobs(jobs, rounds, tracer, tag="r")
        trace_overhead = timed.wall - plain.wall
        failed |= set(run_jobs(probes, 1, tracer, tag="probe").failed)
        for _ in range(wl.cli_repeats):
            cli_pass()
    else:
        # The rounds and the command passes alternate, so each job's and
        # each command's runs spread over the whole run.
        parts = []
        passes = wl.cli_repeats
        for k in range(passes):
            share = rounds * (k + 1) // passes - rounds * k // passes
            parts.append(run_jobs(jobs, share, None))
            cli_pass()
        timed = merge(parts)
    failed |= set(timed.failed)
    cli_best = {name: min(walls) for name, walls in cli_walls.items()}
    cli_overhead = 0.0
    if trace:
        for job in commands:
            tracer.job = job.name
            cli_overhead += cli_best[job.name] - in_process_cli(api, job)
    contract_failed = []
    for job in contract:
        wall, ok, code = run_cli(job, root, work, timeout=60.0)
        if not ok:
            contract_failed.append(job.name)
            print(f"contract {job.name}: exit {code}, contract requires "
                  f"{job.code}", file=sys.stderr)
    failed |= set(contract_failed)

    attempted = len(jobs) + len(probes) + len(commands) + len(contract)
    # Each job's fastest run of the pass: the host's speed shifts by up to
    # 60% for seconds at a time, and the fastest run filters that out.
    best = [min(runs) for runs in zip(*timed.rounds)]
    tail_value, tail_level = tail(best)
    info = {
        "workload": name, "seed": seed, "trace": int(trace),
        "rounds": rounds, "jobs_per_round": len(jobs),
        "job_tail_level": tail_level,
        "pass_jobs_per_s": rounds * len(jobs) / timed.wall,
        "round_walls_s": timed.round_walls, "setup_runs_s": setup_times,
        "cli_walls_s": cli_walls, "failed_jobs": sorted(failed),
        **provenance(root),
    }
    if trace:
        metrics = layer_metrics(tracer, cli_overhead, child_rss_mb(),
                                trace_overhead)
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        tracer.write(os.path.join(out_dir, f"spans-{name}.jsonl"))
    else:
        metrics = {
            "setup_s": median(setup_times),
            "jobs_per_s": len(best) / sum(best),
            "job_p50_ms": median(best) * 1e3,
            "job_tail_ms": tail_value * 1e3,
            "cli_wall_s": sum(cli_best.values()),
            "peak_rss_mb": self_rss_mb(),
            "failed_frac": len(failed) / attempted,
        }
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(out_dir, f"run-{name}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump({**info, "metrics": metrics}, fh, indent=1, sort_keys=True)

    for key, value in info.items():
        if key != "cli_walls_s":
            print(f"# {key}: {value}")
    for job_name in sorted(failed):
        print(f"FAILED {job_name}")
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    regular_failed = failed - set(contract_failed)
    print(json.dumps({
        "correct": not regular_failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            if not line.startswith("#"):
                print(line)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def smoke(seed: int) -> int:
    """Short runs of every workload in both modes: the printed metric names
    must equal BENCHMARK.json's, every per-layer metric must be mapped to
    the end-to-end metric it should move, and every job must carry an
    expectation (Job and CliJob refuse to be built without one)."""
    spec = load_spec()
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    spec_workloads = [w["name"] for w in spec["workloads"]]
    ok = set(spec_workloads) <= set(WORKLOADS)
    if not ok:
        print(f"BENCHMARK.json lists unknown workloads: {spec_workloads}")
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        mapped = list(json.load(fh)["layers"])
    if mapped != names[1]:
        ok = False
        print("layer_map.json does not list exactly the per-layer metrics")
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"smoke {name} trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            got = list(result["metrics"])
            match = got == names[trace]
            ok &= match and result["correct"]
            print(f"smoke {name} trace {trace}: correct={result['correct']}, "
                  f"{'names match' if match else f'names differ: {got}'}")
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join(root, "src", "hotk", "cli.py"),
              os.path.join(root, "tests", "genutil.py")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of a hotk checkout; missing "
              f"{', '.join(os.path.relpath(p, root) for p in missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]

    if args.smoke:
        return smoke(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(root, args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

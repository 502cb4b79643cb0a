"""Every benchmark workload runs once, job by job and command by command,
against the outcomes it expects.  A job or command that fails here would
count in the benchmark's failed_frac: kernel-corpus and eval-sweep are the
gated workloads, eval-deep and enumeration the ungated ones, each built at
seed 1 from the benchmark's own modules, imported by path as the bindings
test does."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hotk.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The jobs of an ungated workload whose expectation is known to be stale:
# the enumeration job `axioms:pure5:stt-skipped` still expects a SKIPPED
# comprehension row, which now PASSes by counting the realized subsets.
# Any other failed job, or this one passing, fails the test, so the repair
# of that job empties this entry.
STALE = {"enumeration": ["axioms:pure5:stt-skipped"]}


def _module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))     # they import each other
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _set_up(monkeypatch, tmp_path, module_name, class_name, workload):
    """(the bound api, the workload, its reference set-up), set up in
    tmp_path."""
    layers = _module(monkeypatch, "layers")
    wl = getattr(_module(monkeypatch, module_name), class_name)()
    assert wl.name == workload
    api = layers.bind(None)
    return api, wl, wl.setup(api, str(tmp_path))


@pytest.fixture(params=[
    ("wl_kernel", "KernelCorpus", "kernel-corpus"),
    ("wl_eval", "EvalSweep", "eval-sweep"),
], ids="-".join)
def gated(request, monkeypatch, tmp_path):
    return _set_up(monkeypatch, tmp_path, *request.param)


@pytest.fixture(params=[
    ("wl_eval", "EvalDeep", "eval-deep"),
    ("wl_enum", "Enumeration", "enumeration"),
], ids="-".join)
def ungated(request, monkeypatch, tmp_path):
    return _set_up(monkeypatch, tmp_path, *request.param)


def _failed_jobs(api, wl, refs):
    jobs = wl.jobs(api, refs, 1)
    assert jobs
    return len(jobs), sys.modules["harness"].run_jobs(jobs, 1, None).failed


def _run_commands(api, wl, refs, monkeypatch, tmp_path, capsys):
    """Each command the benchmark runs as a subprocess, run once through
    hotk.cli.main: the exit code it expects, and output its check accepts."""
    monkeypatch.chdir(tmp_path)
    commands = wl.commands(api, refs, 1, str(tmp_path))
    assert commands
    capsys.readouterr()
    for job in commands:
        code = main(list(job.argv))
        out = capsys.readouterr().out
        assert code == job.code, job.name
        assert job.check is None or job.check(out), job.name


def test_every_job_of_a_gated_workload_gives_its_outcome(gated):
    count, failed = _failed_jobs(*gated)
    assert count > 500
    assert failed == []


def test_every_command_of_a_gated_workload_gives_its_outcome(
        gated, monkeypatch, tmp_path, capsys):
    _run_commands(*gated, monkeypatch, tmp_path, capsys)


def test_every_job_of_an_ungated_workload_gives_its_outcome(ungated):
    _, failed = _failed_jobs(*ungated)
    assert failed == STALE.get(ungated[1].name, [])


def test_every_command_of_an_ungated_workload_gives_its_outcome(
        ungated, monkeypatch, tmp_path, capsys):
    _run_commands(*ungated, monkeypatch, tmp_path, capsys)

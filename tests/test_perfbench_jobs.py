"""The gated benchmark workloads run once, job by job and command by
command, against the outcomes they expect.  A job or command that fails
here would count in the benchmark's failed_frac: kernel-corpus and
eval-sweep are built at seed 1 from the benchmark's own modules, imported
by path as the bindings test does."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hotk.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))     # they import each other
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=[
    ("wl_kernel", "KernelCorpus", "kernel-corpus"),
    ("wl_eval", "EvalSweep", "eval-sweep"),
], ids="-".join)
def gated(request, monkeypatch, tmp_path):
    """(the bound api, the workload, its reference set-up) of one gated
    workload, set up in tmp_path."""
    module_name, class_name, workload = request.param
    layers = _module(monkeypatch, "layers")
    wl = getattr(_module(monkeypatch, module_name), class_name)()
    assert wl.name == workload
    api = layers.bind(None)
    return api, wl, wl.setup(api, str(tmp_path))


def test_every_job_of_a_gated_workload_gives_its_outcome(gated):
    api, wl, refs = gated
    harness = sys.modules["harness"]
    jobs = wl.jobs(api, refs, 1)
    assert len(jobs) > 500
    assert harness.run_jobs(jobs, 1, None).failed == []


def test_every_command_of_a_gated_workload_gives_its_outcome(
        gated, monkeypatch, tmp_path, capsys):
    """Each command the benchmark runs as a subprocess, run once through
    hotk.cli.main: the exit code it expects, and output its check accepts."""
    api, wl, refs = gated
    monkeypatch.chdir(tmp_path)
    commands = wl.commands(api, refs, 1, str(tmp_path))
    assert commands
    capsys.readouterr()
    for job in commands:
        code = main(list(job.argv))
        out = capsys.readouterr().out
        assert code == job.code, job.name
        assert job.check is None or job.check(out), job.name

"""The gated benchmark workloads run once, job by job, against the outcomes
they expect.  A job that fails here would count in the benchmark's
failed_frac: kernel-corpus and eval-sweep are built at seed 1 from the
benchmark's own modules, imported by path as the bindings test does."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))     # they import each other
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, class_name, workload", [
    ("wl_kernel", "KernelCorpus", "kernel-corpus"),
    ("wl_eval", "EvalSweep", "eval-sweep"),
])
def test_every_job_of_a_gated_workload_gives_its_outcome(
        module_name, class_name, workload, monkeypatch, tmp_path):
    layers = _module(monkeypatch, "layers")
    harness = sys.modules["harness"]
    wl = getattr(_module(monkeypatch, module_name), class_name)()
    assert wl.name == workload
    api = layers.bind(None)
    jobs = wl.jobs(api, wl.setup(api, str(tmp_path)), 1)
    assert len(jobs) > 500
    assert harness.run_jobs(jobs, 1, None).failed == []

"""The benchmark reaches hotk only through the tables of perfbench/layers.py,
so every module and name they list must resolve in hotk: a public function
renamed in src/ then fails here, not only when a benchmark run does."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))     # layers imports harness
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_benchmark_binding_resolves(monkeypatch):
    layers = _layers(monkeypatch)
    tables = list(layers.LAYERS.values()) + list(layers.HELPERS.items())
    assert len(tables) > 20
    missing = [f"{module}.{name}" for module, names in tables
               for name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []

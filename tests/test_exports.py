"""Each public package's __all__ names only what the package defines, so a
deleted function cannot linger as a stale export; and each dotted name the
README cites names something in the package."""

import dataclasses
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import hotk

PACKAGES = ["hotk.kernel", "hotk.models", "hotk.proofkit"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_succeeds(package):
    exec(f"from {package} import *", {})


README = Path(__file__).resolve().parent.parent / "README.md"
_FILE_SUFFIXES = {"py", "json", "hol", "md", "proof", "golden", "toml"}


def _readme_names() -> set:
    """The dotted names the README cites in backticks, calls stripped,
    leaving out file names and the standard library's names."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        m = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(\(.*\))?", span)
        if m:
            parts = m.group(1).split(".")
            if parts[-1] not in _FILE_SUFFIXES and parts[0] not in sys.stdlib_module_names:
                names.add(m.group(1))
    return names


def _attribute(obj, name: str):
    """obj's attribute name, a dataclass field counting as one."""
    if hasattr(obj, name):
        return getattr(obj, name)
    if dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
        return None
    raise AttributeError(name)


def _resolves(dotted: str, modules) -> bool:
    """Whether dotted names something in hotk: a module's dotted path, or
    a trailing part of one (`kernel.syntax`, `checker`), or nothing, then
    attributes from that module."""
    parts = dotted.split(".")
    for module in modules:
        path = module.__name__.split(".")
        for k in range(min(len(path), len(parts)) + 1):
            if k and path[-k:] != parts[:k]:
                continue
            obj = module
            try:
                for part in parts[k:]:
                    obj = _attribute(obj, part)
            except AttributeError:
                continue
            return True
    return False


def test_every_dotted_name_the_readme_cites_resolves():
    modules = [importlib.import_module(m.name)
               for m in pkgutil.walk_packages(hotk.__path__, "hotk.")]
    names = _readme_names()
    assert len(names) > 10
    assert sorted(n for n in names if not _resolves(n, [hotk, *modules])) == []

"""Purging hotk from sys.modules and importing it again leaves nothing of
the first import alive.

typing's caches keep the parts of every `typing.Union[...]` or `Dict[...]`
value built at import, and through a class among them its methods and so
its module's dict: the aliases of hotk are spelled with `|` and builtin
generics, which no cache keeps.  The benchmark's set-up purges and imports
hotk again before each timed repeat.
"""

import os
import subprocess
import sys

import hotk

PACKAGES = ("hotk.cli", "hotk.kernel", "hotk.models", "hotk.settheory",
            "hotk.translate", "hotk.proofkit", "hotk.corpus")

# Imports the packages, takes a weak reference to one function of each hotk
# module, purges and imports them again, and prints the count of modules
# with the names of those whose function is still alive.
_PROBE = """
import gc, importlib, sys, types, weakref

PACKAGES = %r

def import_all():
    for name in PACKAGES:
        importlib.import_module(name)

def one_function_each():
    refs = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "hotk":
            for value in vars(module).values():
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == name):
                    refs[name] = weakref.ref(value)
                    break
    return refs

import_all()
refs = one_function_each()
for name in [n for n in sys.modules if n.partition(".")[0] == "hotk"]:
    del sys.modules[name]
import_all()
gc.collect()
print(len(refs), *sorted(name for name, ref in refs.items() if ref() is not None))
""" % (PACKAGES,)


def test_a_purged_import_is_freed():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hotk.__file__)))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, *alive = proc.stdout.split()
    assert int(count) >= len(PACKAGES)
    assert alive == []

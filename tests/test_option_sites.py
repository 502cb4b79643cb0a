"""No option in the package is one that every caller switches the same way,
or that no caller switches at all.

A defaulted parameter of a function defined once in the package, which
every call to it in the package sets to one and the same literal constant,
other than the default, is a default nobody uses: the function should do
what its callers ask of it, and the option go.  So should a defaulted
parameter that no call in the package, its tests or its benchmark sets,
and one that only the tests set: no caller of the program needs it.
Calls are matched to the function by plain or attribute name; positional
arguments are mapped by position, skipping `self`.  A call that spreads
`*args` or `**kwargs` never counts as fixing a parameter it may reach, and
always counts as setting it."""

import ast
from collections import defaultdict
from pathlib import Path

import hotk

PACKAGE = Path(hotk.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def _defaults(fn: ast.FunctionDef) -> dict:
    """{parameter: (position or None, default node)} for each defaulted
    parameter of fn; positions skip `self` and count from 0."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if positional and positional[0].arg == "self" else 0
    out = {}
    first = len(positional) - len(fn.args.defaults)
    for i, (arg, default) in enumerate(zip(positional[first:], fn.args.defaults)):
        out[arg.arg] = (first + i - skip, default)
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            out[arg.arg] = (None, default)
    return out


def _called_name(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _setting(call: ast.Call, name: str, position):
    """The node call passes for the parameter, or None when it passes none
    (the default holds) or may pass one through a * or ** spread."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if position is None or any(kw.arg is None for kw in call.keywords):
        return None
    args = call.args[:position + 1]
    if len(args) <= position or any(isinstance(a, ast.Starred) for a in args):
        return None
    return args[position]


def _may_set(call: ast.Call, name: str, position) -> bool:
    """Whether call passes the parameter, or may through a * or ** spread."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def _called_functions(defining, calling):
    """{name: (definition, the calls of that name)} for each function
    defined once in the defining trees and called in the calling ones."""
    defs, calls = defaultdict(list), defaultdict(list)
    for tree in defining:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name].append(node)
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node):
                calls[_called_name(node)].append(node)
    return {name: (fns[0], calls[name]) for name, fns in defs.items()
            if len(fns) == 1 and calls[name]}


def fixed_options(trees) -> set:
    """'function: parameter' for each defaulted parameter that every call
    in the trees sets to one literal constant other than its default."""
    found = set()
    for name, (fn, calls) in _called_functions(trees, trees).items():
        for param, (position, default) in _defaults(fn).items():
            values = {_setting(c, param, position) for c in calls}
            if all(isinstance(v, ast.Constant) for v in values):
                constants = {(type(v.value), v.value) for v in values}
                if (len(constants) == 1 and not (isinstance(default, ast.Constant)
                        and (type(default.value), default.value) in constants)):
                    found.add(f"{name}: {param}")
    return found


def unset_options(package, callers) -> set:
    """'function: parameter' for each defaulted parameter of a function in
    the package trees that no call in the caller trees may set."""
    return {f"{name}: {param}"
            for name, (fn, calls) in _called_functions(package, callers).items()
            for param, (position, _) in _defaults(fn).items()
            if not any(_may_set(c, param, position) for c in calls)}


def _trees(directory: Path):
    return [ast.parse(path.read_text(), filename=str(path))
            for path in sorted(directory.rglob("*.py"))]


def test_no_option_is_fixed_by_every_caller():
    assert fixed_options(_trees(PACKAGE)) == set()


def test_no_option_is_left_unset_by_every_caller():
    package = _trees(PACKAGE)
    callers = package + _trees(REPO / "tests") + _trees(REPO / "perfbench")
    assert unset_options(package, callers) == set()


def test_no_option_is_set_only_by_tests():
    package = _trees(PACKAGE)
    assert unset_options(package, package + _trees(REPO / "perfbench")) == set()


def test_a_fixed_option_is_found():
    tree = ast.parse(
        "def subst(f, var, repl, strict=True, depth=0):\n"
        "    return subst(f, var, repl, strict=False)\n"
        "class Walk:\n"
        "    def run(self, f, eager=None, *, limit=3):\n"
        "        return self.run(f, 1, limit=3)\n"
        "def spread(f, loud=False):\n"
        "    return spread(*f)\n"
        "def caller(w):\n"
        "    w.run(2, 1, limit=4)\n"
        "    return subst(1, 2, 3, False)\n")
    # depth and loud are never set; limit is set to two values
    assert fixed_options([tree]) == {"subst: strict", "run: eager"}


def test_an_unset_option_is_found():
    package = ast.parse(
        "def ctt(bound=0, liberal=False, overlay='none'):\n"
        "    return bound\n"
        "def spread(f, loud=False):\n"
        "    return f\n"
        "def idle(x=1):\n"
        "    return x\n")
    callers = ast.parse("ctt(liberal=True)\n"
                        "regimes.ctt(5)\n"
                        "spread(1, **opts)\n")
    # bound is set by position and liberal by name; loud may be set by the
    # spread, and idle is never called
    assert unset_options([package], [callers]) == {"ctt: overlay"}


def test_an_option_only_tests_set_is_found():
    package = ast.parse(
        "def ctt(liberal=False, bound=None):\n"
        "    return liberal\n"
        "def theory(name):\n"
        "    return ctt(bound=name)\n")
    tests = ast.parse("ctt(liberal=True)\n")
    # the tests set liberal, so the rule above passes it; the program does not
    assert unset_options([package], [package, tests]) == set()
    assert unset_options([package], [package]) == {"ctt: liberal"}

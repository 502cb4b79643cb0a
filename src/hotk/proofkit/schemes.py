"""The theory axiom that an axiom step's scheme record names."""

from __future__ import annotations

import json
from contextlib import suppress
from typing import Dict, Optional

from hotk.errors import ParseError, ProofError
from hotk.kernel.axioms import AXIOMS
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.parser import parse_index
from hotk.kernel.syntax import Formula


def _scheme_arg(param: str, value):
    """A scheme record's parameter, checked before any formula is built: a
    natural for n; for an index, a natural, a TypeIndex or its notation."""
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise ProofError(f"scheme parameter {param!r} must be a natural, got {value}")
        return value if param == "n" else fin(value)
    if isinstance(value, TypeIndex) and param != "n":
        return value
    if isinstance(value, str) and param != "n":
        with suppress(ParseError):
            return parse_index(value)
    wanted = "a natural" if param == "n" else "a type index"
    raise ProofError(f"scheme parameter {param!r} must be {wanted},"
                     f" got {json.dumps(value, default=repr)}")


def axiom_instance(name: str, params: Optional[Dict] = None) -> Formula:
    """The instance of the theory axiom `name` (kernel.axioms.AXIOMS) at the
    parameters of a scheme record, such as {"alpha": 1} for type-base."""
    if name not in AXIOMS:
        raise ProofError(f"unknown scheme {name!r}")
    fn, argnames, _ = AXIOMS[name]
    params = params or {}
    try:
        args = [_scheme_arg(a, params[a]) for a in argnames]
    except KeyError as e:
        raise ProofError(f"axiom {name} needs parameter {e.args[0]!r}") from e
    return fn(*args)

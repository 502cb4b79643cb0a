"""Exception types shared across the package, and the reader and shape check
that turn a malformed JSON input file into one of them."""

import json


class HotkError(Exception):
    """Base class for all package errors."""


class ParseError(HotkError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at column {position})"
        super().__init__(message)


class FormationError(HotkError):
    """A formula or term violates the active regime's formation rules."""


class EvalError(HotkError):
    """Model building or evaluation failed: bad builder arguments, etc."""


class BudgetExceeded(HotkError):
    """An enumeration would exceed the configured entity/subset budget."""


# The budget when none is given (the CLI's default too).
DEFAULT_BUDGET = 10**6


class GraphError(HotkError):
    """Malformed membership graph or an operation's graph precondition failed."""


class RankUndefined(HotkError):
    """No level of the graph contains the node as a subset."""


class ProofError(HotkError):
    """Malformed proof file (distinct from a Rejected verdict)."""


def _fits(x, shape) -> bool:
    """JSON value x matches shape: a type, [item] for a list of items,
    (a, b) for a list of exactly those, {str: v} for an object of v values
    and {int: v} for one whose keys are decimal numerals."""
    if shape == [str]:          # the bulk of every file: lists of names
        return isinstance(x, list) and all(isinstance(y, str) for y in x)
    if isinstance(shape, list):
        return isinstance(x, list) and all(_fits(y, shape[0]) for y in x)
    if isinstance(shape, tuple):
        return (isinstance(x, list) and len(x) == len(shape)
                and all(map(_fits, x, shape)))
    if isinstance(shape, dict):
        ((keys, value),) = shape.items()
        return isinstance(x, dict) and all(
            (keys is str or k.isdecimal()) and _fits(v, value)
            for k, v in x.items())
    if shape is int:
        return isinstance(x, int) and not isinstance(x, bool)
    return isinstance(x, shape)


def load_json(text: str, what: str, error=HotkError):
    """The JSON document in text; text that is not JSON, or a document
    nested too deeply for the decoder, raises `error`.  `what` names the
    document, as in check_json."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{what} is not valid JSON: {e.msg} "
                    f"(line {e.lineno}, column {e.colno})") from None
    except RecursionError:      # the decoder recurses once per level
        raise error(f"{what} is nested too deeply") from None


def check_json(doc, shapes: dict, required, what: str, error=HotkError) -> None:
    """Raise `error` unless doc is an object holding every required key and
    every key of `shapes` that it holds matches its shape.  `what` names
    doc in the message, as in "model file"."""
    if not isinstance(doc, dict):
        raise error(f"{what} must hold a JSON object")
    for key in required:
        if key not in doc:
            raise error(f"{what} lacks {key!r}")
    for key, shape in shapes.items():
        if key in doc and not _fits(doc[key], shape):
            raise error(f"{what} has a malformed {key!r}")

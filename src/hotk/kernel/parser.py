"""Recursive-descent parser for the formula grammar, with the binary
connectives read by precedence climbing over CONNECTIVES.

Two modes: "typed" (every term carries ^index, the regular regimes) and
"set" (bare untyped terms, the set-theoretic language of the level-theory
side).  Identifiers bound by an enclosing quantifier parse as variables,
everything else as constants.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from hotk.errors import ParseError
from hotk.kernel.indices import TypeIndex, fin, ordinal
from hotk.kernel.syntax import (CONNECTIVES, INFIX, PREFIX, Apply, Const,
                                Exists, Forall, InSet, Not, Raised, Sugar,
                                Term, Var)

# One token after any whitespace, in the one group: a comment, a connective,
# an identifier, a natural or a symbol.  Any other character but whitespace
# matches outside the group, so findall gives "" for it.  The matches follow
# each other without gaps, and only trailing whitespace is left unmatched.
# A natural is ASCII digits, like every identifier.
_TOKEN_RE = re.compile(r"""\s*(?:(
    \#.*
  | <->
  | ->
  | [A-Za-z_][A-Za-z0-9_]*
  | [0-9]+
  | [()^.,=~&|*+]
  ) | \S)""", re.VERBOSE)

_KEYWORDS = {"all", "some", "up", *INFIX, *PREFIX}

# The infix tokens of the set language; "in" there is primitive membership.
_SET_INFIX = ("=", "in", "sub")

_COEXT_K_RE = re.compile(r"^coext_([0-9]+)$")

# Each binary connective's token with its precedence (the place in
# CONNECTIVES, loosest first) and node.
_BINARY = {token: (prec, node) for prec, (token, node) in enumerate(CONNECTIVES)}

# How deeply a formula may nest: each "~", parenthesis, quantifier body,
# right operand of a binary connective, up(...) and parenthesized index
# counts one level.  A level costs the parser at most four stack frames
# (a quantifier body), and the kernel's recursive walks fewer, so every
# formula the parser accepts stays within Python's default recursion limit.
MAX_DEPTH = 100


def _column(text: str, j: int) -> int:
    """Where token j of text starts, or len(text) for the end of input.
    The tokenizer keeps no columns: an error finds its own again.  A match
    stripped of its leading whitespace is a token or a bad character."""
    starts = [m.end() - len(tok) for m in _TOKEN_RE.finditer(text)
              if (tok := m[0].lstrip())[0] != "#"]
    return starts[j] if j < len(starts) else len(text)


class _Parser:
    """One findall splits the text into its tokens' texts, and a last None
    stands for the end of input; i is the next token's place.  A token's
    kind is read from its text where it matters: a natural is all digits,
    a name an identifier."""

    def __init__(self, text: str, mode: str):
        if mode not in ("typed", "set"):
            raise ValueError(f"bad parse mode {mode!r}")
        toks: List[Optional[str]] = _TOKEN_RE.findall(text)
        if "#" in text:
            toks = [t for t in toks if not t.startswith("#")]
        if "" in toks:
            at = _column(text, toks.index(""))
            raise ParseError(f"bad character {text[at]!r}", at)
        toks.append(None)
        self.text = text
        self.toks = toks
        self.i = 0
        self.level = 0
        self.mode = mode
        self.bound: List[Tuple[str, Optional[TypeIndex]]] = []

    # -- tokens -------------------------------------------------------------

    def error(self, message: str, back: int = 0) -> ParseError:
        """A ParseError at the token `back` places before the next one."""
        return ParseError(message, _column(self.text, self.i - back))

    def at(self, value: str) -> bool:
        return self.toks[self.i] == value

    def next(self) -> str:
        t = self.toks[self.i]
        if t is None:
            raise self.error("unexpected end of input")
        self.i += 1
        return t

    def expect(self, value: str) -> None:
        t = self.toks[self.i]
        if t != value:
            got = "end of input" if t is None else repr(t)
            raise self.error(f"expected {value!r}, got {got}")
        self.i += 1

    def descend(self) -> None:
        """Enter one more level of nesting; past MAX_DEPTH levels raise
        ParseError instead of letting the recursion run on.  The caller
        leaves the level with `self.level -= 1` (a ParseError ends the
        whole parse, so it needs no unwinding)."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_DEPTH} levels")

    # -- terms --------------------------------------------------------------

    def _index(self) -> TypeIndex:
        t = self.toks[self.i]
        if t is None:
            raise self.error("expected type index")
        if t == "(":
            self.i += 1
            self.descend()
            idx = self._index()
            self.level -= 1
            self.expect(")")
            return idx
        if t.isdigit():
            self.i += 1
            return fin(int(t))
        if t == "w":
            self.i += 1
            q, r = 1, 0
            if self.at("*"):
                self.i += 1
                qt = self.next()
                if not qt.isdigit():
                    raise self.error("expected natural after 'w*'", 1)
                q = int(qt)
            if self.at("+"):
                self.i += 1
                rt = self.next()
                if not rt.isdigit():
                    raise self.error("expected natural after '+'", 1)
                r = int(rt)
            return ordinal(q, r)
        raise self.error(f"bad type index start {t!r} (w*w and above unsupported)")

    def _typed_name(self, t, role: str) -> Tuple[str, Optional[TypeIndex]]:
        """The name token t of a term or binder (role) with the ^index after
        it, which typed formulas need and set-language formulas refuse."""
        self.i += 1
        if not self.at("^"):
            if self.mode == "typed":
                raise self.error(f"{role} {t!r} is missing its ^index", 1)
            return t, None
        if self.mode == "set":
            raise self.error(f"typed {role} in set-language formula", 1)
        self.i += 1
        return t, self._index()

    def parse_term(self) -> Term:
        t = self.toks[self.i]
        if t is None:
            raise self.error("expected term")
        if t == "up":
            self.i += 1
            self.expect("(")
            self.descend()
            inner = self.parse_term()
            self.level -= 1
            self.expect(")")
            return Raised(inner)
        if not t.isidentifier() or t in _KEYWORDS:
            raise self.error(f"expected term, got {t!r}")
        key = self._typed_name(t, "term")
        return (Var if key in self.bound else Const)(*key)

    # -- formulas -----------------------------------------------------------

    def parse_formula(self, min_prec: int = 0):
        """Binary connectives by precedence climbing: operands are negations,
        and a connective at least as tight as min_prec takes everything up
        to the next looser one as its right operand, so each associates to
        the right."""
        left = self._neg()
        while True:
            op = _BINARY.get(self.toks[self.i])
            if op is None or op[0] < min_prec:
                return left
            self.i += 1
            self.descend()
            left = op[1](left, self.parse_formula(op[0]))
            self.level -= 1

    def _neg(self):
        if self.at("~"):
            self.i += 1
            self.descend()
            f = Not(self._neg())
            self.level -= 1
            return f
        return self._unit()

    def _unit(self):
        t = self.toks[self.i]
        if t is None:
            raise self.error("expected formula")
        if t == "all" or t == "some":
            return self._quantifier()
        if t == "(":
            self.i += 1
            self.descend()
            f = self.parse_formula()
            self.level -= 1
            self.expect(")")
            return f
        return self._atom()

    def _quantifier(self):
        word = self.next()
        vt = self.toks[self.i]
        if vt is None or not vt.isidentifier() or vt in _KEYWORDS:
            raise self.error("expected bound variable")
        key = self._typed_name(vt, "binder")
        var = Var(*key)

        rel = None
        bound_term = None
        nxt = self.toks[self.i]
        if nxt == "eq" or nxt == "in" or nxt == "dn":
            rel = nxt
            if self.mode == "set" and rel != "in":
                raise self.error(f"bounded quantifier {rel!r} not in set language")
            self.i += 1
            bound_term = self.parse_term()
        self.expect(".")

        self.bound.append(key)
        self.descend()
        body = self.parse_formula()
        self.level -= 1
        self.bound.pop()

        if rel is None:
            return (Forall if word == "all" else Exists)(var, body)
        return Sugar("bounded", (word, var, rel, bound_term, body))

    def _atom(self):
        kind = PREFIX.get(self.toks[self.i])
        if kind is not None:
            self.i += 1
            self.expect("(")
            args = [self.parse_term()]
            if kind == "rank":
                self.expect(",")
                args.append(self.parse_term())
            self.expect(")")
            return Sugar(kind, tuple(args))

        left = self.parse_term()
        tok = self.toks[self.i]
        if tok is None:
            raise self.error("dangling term")
        if tok == "(":
            self.i += 1
            arg = self.parse_term()
            self.expect(")")
            return Apply(left, arg)
        if self.mode == "set" and tok not in _SET_INFIX:
            raise self.error(f"unexpected {tok!r} after set term")
        node = INFIX.get(tok)
        if node is None:
            m = _COEXT_K_RE.match(tok)
            if not m:
                raise self.error(f"unexpected {tok!r} after term")
            self.i += 1
            return Sugar("coext_k", (int(m.group(1)), left, self.parse_term()))
        self.i += 1
        right = self.parse_term()
        if self.mode == "set" and node == "in":
            return InSet(left, right)
        if type(node) is str:
            return Sugar(node, (left, right))
        return node(left, right)


def _whole(text: str, mode: str, rule):
    """rule run on a parser over text, which must use up the text."""
    p = _Parser(text, mode)
    out = rule(p)
    t = p.toks[p.i]
    if t is not None:
        raise p.error(f"trailing input {t!r}")
    return out


def parse_formula(text: str, mode: str = "typed"):
    """Parse one formula; mode is "typed" or "set"."""
    return _whole(text, mode, _Parser.parse_formula)


def parse_term(text: str, mode: str = "typed") -> Term:
    return _whole(text, mode, _Parser.parse_term)


def parse_index(text: str) -> TypeIndex:
    """Parse a whole type index: NAT | w | w*NAT | w+NAT | w*NAT+NAT, in
    any number of parentheses.  '#' is refused, not read as a comment."""
    try:
        if "#" in text:
            raise ParseError("comment in a type index")
        return _whole(text, "typed", _Parser._index)
    except ParseError:
        raise ParseError(f"bad type index {text!r} (indices up to w*q+r only)") from None


def hol_lines(text: str) -> List[Tuple[int, str]]:
    """The formula lines of a .hol document with their numbers (from 1):
    one formula per line, '#' starts a comment, blank lines are skipped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_hol_lines(text: str, mode: str = "typed"):
    """Parse the formula lines of a .hol document (see hol_lines) one at a
    time, as they are asked for; a parse error names its line."""
    for lineno, line in hol_lines(text):
        try:
            yield parse_formula(line, mode)
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from e

"""Recursive-descent parser for the formula grammar.

Two modes: "typed" (every term carries ^index, the regular regimes) and
"set" (bare untyped terms, the set-theoretic language of the level-theory
side).  Identifiers bound by an enclosing quantifier parse as variables,
everything else as constants.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from hotk.errors import ParseError
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.syntax import (CONNECTIVES, INFIX, PREFIX, Apply, Const,
                                Exists, Forall, InSet, Not, Raised, Sugar,
                                Term, Var)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<nat>\d+)
  | (?P<sym>[()^.,=~&|*+])
""", re.VERBOSE)

_KEYWORDS = {"all", "some", "up", *INFIX, *PREFIX}

# The infix tokens of the set language; "in" there is primitive membership.
_SET_INFIX = ("=", "in", "sub")

_COEXT_K_RE = re.compile(r"^coext_(\d+)$")

# How deeply a formula may nest: each "~", parenthesis, quantifier body,
# right operand of a binary connective, up(...) and parenthesized index
# counts one level.  A level costs the parser at most eight stack frames
# (a quantifier body), and the kernel's recursive walks fewer, so every
# formula the parser accepts stays within Python's default recursion limit.
MAX_DEPTH = 100


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"bad character {text[pos]!r}", pos)
            pos = m.end()
            kind = m.lastgroup
            if kind in ("ws", "comment"):
                continue
            self.toks.append((kind, m.group(), m.start()))
        self.i = 0

    def peek(self, offset: int = 0) -> Optional[Tuple[str, str, int]]:
        j = self.i + offset
        return self.toks[j] if j < len(self.toks) else None

    def next(self) -> Tuple[str, str, int]:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input", len(self.text))
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value: str) -> None:
        t = self.peek()
        if t is None:
            raise ParseError(f"expected {value!r}, got end of input", len(self.text))
        if t[1] != value:
            raise ParseError(f"expected {value!r}, got {t[1]!r}", t[2])
        self.i += 1

    def at(self, value: str) -> bool:
        t = self.peek()
        return t is not None and t[1] == value


class _Depth:
    """`with depth:` around each nested parse; past MAX_DEPTH levels it
    raises ParseError instead of letting the recursion run on."""

    def __init__(self, toks: _Tokens):
        self.toks = toks
        self.level = 0

    def __enter__(self):
        self.level += 1
        if self.level > MAX_DEPTH:
            t = self.toks.peek()
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels",
                             t[2] if t else len(self.toks.text))

    def __exit__(self, *exc):
        self.level -= 1


class _Parser:
    def __init__(self, text: str, mode: str):
        if mode not in ("typed", "set"):
            raise ValueError(f"bad parse mode {mode!r}")
        self.toks = _Tokens(text)
        self.depth = _Depth(self.toks)
        self.mode = mode
        self.bound: List[Tuple[str, Optional[TypeIndex]]] = []

    # -- terms --------------------------------------------------------------

    def _index(self) -> TypeIndex:
        t = self.toks.peek()
        if t is None:
            raise ParseError("expected type index", len(self.toks.text))
        if t[1] == "(":
            self.toks.next()
            with self.depth:
                idx = self._index()
            self.toks.expect(")")
            return idx
        if t[0] == "nat":
            self.toks.next()
            return fin(int(t[1]))
        if t[1] == "w":
            self.toks.next()
            q, r = 1, 0
            if self.toks.at("*"):
                self.toks.next()
                qt = self.toks.next()
                if qt[0] != "nat":
                    raise ParseError("expected natural after 'w*'", qt[2])
                q = int(qt[1])
            if self.toks.at("+"):
                self.toks.next()
                rt = self.toks.next()
                if rt[0] != "nat":
                    raise ParseError("expected natural after '+'", rt[2])
                r = int(rt[1])
            return TypeIndex(q, r)
        raise ParseError(f"bad type index start {t[1]!r} (w*w and above unsupported)", t[2])

    def _typed_name(self, t, role: str) -> Tuple[str, Optional[TypeIndex]]:
        """The name token t of a term or binder (role) with the ^index after
        it, which typed formulas need and set-language formulas refuse."""
        self.toks.next()
        if not self.toks.at("^"):
            if self.mode == "typed":
                raise ParseError(f"{role} {t[1]!r} is missing its ^index", t[2])
            return t[1], None
        if self.mode == "set":
            raise ParseError(f"typed {role} in set-language formula", t[2])
        self.toks.next()
        return t[1], self._index()

    def parse_term(self) -> Term:
        t = self.toks.peek()
        if t is None:
            raise ParseError("expected term", len(self.toks.text))
        if t[1] == "up":
            self.toks.next()
            self.toks.expect("(")
            with self.depth:
                inner = self.parse_term()
            self.toks.expect(")")
            return Raised(inner)
        if t[0] != "ident" or t[1] in _KEYWORDS:
            raise ParseError(f"expected term, got {t[1]!r}", t[2])
        key = self._typed_name(t, "term")
        return (Var if key in self.bound else Const)(*key)

    # -- formulas -----------------------------------------------------------

    def parse_formula(self, level: int = 0):
        """Binary connectives from the loosest (level 0) to the tightest;
        each associates to the right."""
        if level == len(CONNECTIVES):
            return self._neg()
        token, node = CONNECTIVES[level]
        left = self.parse_formula(level + 1)
        if self.toks.at(token):
            self.toks.next()
            with self.depth:
                return node(left, self.parse_formula(level))
        return left

    def _neg(self):
        if self.toks.at("~"):
            self.toks.next()
            with self.depth:
                return Not(self._neg())
        return self._unit()

    def _unit(self):
        t = self.toks.peek()
        if t is None:
            raise ParseError("expected formula", len(self.toks.text))
        if t[1] in ("all", "some"):
            return self._quantifier()
        if t[1] == "(":
            self.toks.next()
            with self.depth:
                f = self.parse_formula()
            self.toks.expect(")")
            return f
        return self._atom()

    def _quantifier(self):
        word = self.toks.next()[1]
        vt = self.toks.peek()
        if vt is None or vt[0] != "ident" or vt[1] in _KEYWORDS:
            raise ParseError("expected bound variable", vt[2] if vt else len(self.toks.text))
        key = self._typed_name(vt, "binder")
        var = Var(*key)

        rel = None
        bound_term = None
        nxt = self.toks.peek()
        if nxt is not None and nxt[1] in ("eq", "in", "dn"):
            rel = nxt[1]
            if self.mode == "set" and rel != "in":
                raise ParseError(f"bounded quantifier {rel!r} not in set language", nxt[2])
            self.toks.next()
            bound_term = self.parse_term()
        self.toks.expect(".")

        self.bound.append(key)
        try:
            with self.depth:
                body = self.parse_formula()
        finally:
            self.bound.pop()

        if rel is None:
            return (Forall if word == "all" else Exists)(var, body)
        return Sugar("bounded", (word, var, rel, bound_term, body))

    def _atom(self):
        t = self.toks.peek()
        kind = PREFIX.get(t[1])
        if kind is not None:
            self.toks.next()
            self.toks.expect("(")
            args = [self.parse_term()]
            if kind == "rank":
                self.toks.expect(",")
                args.append(self.parse_term())
            self.toks.expect(")")
            return Sugar(kind, tuple(args))

        left = self.parse_term()
        nxt = self.toks.peek()
        if nxt is None:
            raise ParseError("dangling term", len(self.toks.text))
        tok = nxt[1]
        if tok == "(":
            self.toks.next()
            arg = self.parse_term()
            self.toks.expect(")")
            return Apply(left, arg)
        if self.mode == "set" and tok not in _SET_INFIX:
            raise ParseError(f"unexpected {tok!r} after set term", nxt[2])
        node = INFIX.get(tok)
        if node is None:
            m = _COEXT_K_RE.match(tok)
            if not m:
                raise ParseError(f"unexpected {tok!r} after term", nxt[2])
            self.toks.next()
            return Sugar("coext_k", (int(m.group(1)), left, self.parse_term()))
        self.toks.next()
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
    t = p.toks.peek()
    if t is not None:
        raise ParseError(f"trailing input {t[1]!r}", t[2])
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
    """Parse every formula line of a .hol document (see hol_lines)."""
    out = []
    for lineno, line in hol_lines(text):
        try:
            out.append(parse_formula(line, mode))
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from e
    return out

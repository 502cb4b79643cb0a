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

# One token after any whitespace.  Every character but whitespace starts
# some alternative (the last one catches any other character), so the
# matches of finditer follow each other without gaps, and only trailing
# whitespace is left unmatched.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<comment>\#.*)
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<nat>\d+)
  | (?P<sym>[()^.,=~&|*+])
  | (?P<bad>\S))
""", re.VERBOSE)

_KEYWORDS = {"all", "some", "up", *INFIX, *PREFIX}

# The infix tokens of the set language; "in" there is primitive membership.
_SET_INFIX = ("=", "in", "sub")

_COEXT_K_RE = re.compile(r"^coext_(\d+)$")

# Each binary connective's token with its precedence (the place in
# CONNECTIVES, loosest first) and node.
_BINARY = {token: (prec, node) for prec, (token, node) in enumerate(CONNECTIVES)}

# How deeply a formula may nest: each "~", parenthesis, quantifier body,
# right operand of a binary connective, up(...) and parenthesized index
# counts one level.  A level costs the parser at most four stack frames
# (a quantifier body), and the kernel's recursive walks fewer, so every
# formula the parser accepts stays within Python's default recursion limit.
MAX_DEPTH = 100


class _Parser:
    """One pass over the text splits it into tokens, each (kind, text,
    start), and a last ("end", None, len(text)) stands for the end of
    input; i is the next token's place."""

    def __init__(self, text: str, mode: str):
        if mode not in ("typed", "set"):
            raise ValueError(f"bad parse mode {mode!r}")
        self.toks: List[Tuple[str, Optional[str], int]] = []
        append = self.toks.append
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "comment":
                continue
            if kind == "bad":
                raise ParseError(f"bad character {m[kind]!r}", m.start(kind))
            append((kind, m[kind], m.start(kind)))
        append(("end", None, len(text)))
        self.i = 0
        self.level = 0
        self.mode = mode
        self.bound: List[Tuple[str, Optional[TypeIndex]]] = []

    # -- tokens -------------------------------------------------------------

    def at(self, value: str) -> bool:
        return self.toks[self.i][1] == value

    def next(self) -> Tuple[str, str, int]:
        t = self.toks[self.i]
        if t[1] is None:
            raise ParseError("unexpected end of input", t[2])
        self.i += 1
        return t

    def expect(self, value: str) -> None:
        t = self.toks[self.i]
        if t[1] != value:
            got = "end of input" if t[1] is None else repr(t[1])
            raise ParseError(f"expected {value!r}, got {got}", t[2])
        self.i += 1

    def descend(self) -> None:
        """Enter one more level of nesting; past MAX_DEPTH levels raise
        ParseError instead of letting the recursion run on.  The caller
        leaves the level with `self.level -= 1` (a ParseError ends the
        whole parse, so it needs no unwinding)."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels",
                             self.toks[self.i][2])

    # -- terms --------------------------------------------------------------

    def _index(self) -> TypeIndex:
        t = self.toks[self.i]
        if t[1] is None:
            raise ParseError("expected type index", t[2])
        if t[1] == "(":
            self.i += 1
            self.descend()
            idx = self._index()
            self.level -= 1
            self.expect(")")
            return idx
        if t[0] == "nat":
            self.i += 1
            return fin(int(t[1]))
        if t[1] == "w":
            self.i += 1
            q, r = 1, 0
            if self.at("*"):
                self.i += 1
                qt = self.next()
                if qt[0] != "nat":
                    raise ParseError("expected natural after 'w*'", qt[2])
                q = int(qt[1])
            if self.at("+"):
                self.i += 1
                rt = self.next()
                if rt[0] != "nat":
                    raise ParseError("expected natural after '+'", rt[2])
                r = int(rt[1])
            return ordinal(q, r)
        raise ParseError(f"bad type index start {t[1]!r} (w*w and above unsupported)", t[2])

    def _typed_name(self, t, role: str) -> Tuple[str, Optional[TypeIndex]]:
        """The name token t of a term or binder (role) with the ^index after
        it, which typed formulas need and set-language formulas refuse."""
        self.i += 1
        if not self.at("^"):
            if self.mode == "typed":
                raise ParseError(f"{role} {t[1]!r} is missing its ^index", t[2])
            return t[1], None
        if self.mode == "set":
            raise ParseError(f"typed {role} in set-language formula", t[2])
        self.i += 1
        return t[1], self._index()

    def parse_term(self) -> Term:
        t = self.toks[self.i]
        if t[1] is None:
            raise ParseError("expected term", t[2])
        if t[1] == "up":
            self.i += 1
            self.expect("(")
            self.descend()
            inner = self.parse_term()
            self.level -= 1
            self.expect(")")
            return Raised(inner)
        if t[0] != "ident" or t[1] in _KEYWORDS:
            raise ParseError(f"expected term, got {t[1]!r}", t[2])
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
            op = _BINARY.get(self.toks[self.i][1])
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
        if t[1] is None:
            raise ParseError("expected formula", t[2])
        if t[1] == "all" or t[1] == "some":
            return self._quantifier()
        if t[1] == "(":
            self.i += 1
            self.descend()
            f = self.parse_formula()
            self.level -= 1
            self.expect(")")
            return f
        return self._atom()

    def _quantifier(self):
        word = self.next()[1]
        vt = self.toks[self.i]
        if vt[0] != "ident" or vt[1] in _KEYWORDS:
            raise ParseError("expected bound variable", vt[2])
        key = self._typed_name(vt, "binder")
        var = Var(*key)

        rel = None
        bound_term = None
        nxt = self.toks[self.i]
        if nxt[1] == "eq" or nxt[1] == "in" or nxt[1] == "dn":
            rel = nxt[1]
            if self.mode == "set" and rel != "in":
                raise ParseError(f"bounded quantifier {rel!r} not in set language", nxt[2])
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
        kind = PREFIX.get(self.toks[self.i][1])
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
        nxt = self.toks[self.i]
        tok = nxt[1]
        if tok is None:
            raise ParseError("dangling term", nxt[2])
        if tok == "(":
            self.i += 1
            arg = self.parse_term()
            self.expect(")")
            return Apply(left, arg)
        if self.mode == "set" and tok not in _SET_INFIX:
            raise ParseError(f"unexpected {tok!r} after set term", nxt[2])
        node = INFIX.get(tok)
        if node is None:
            m = _COEXT_K_RE.match(tok)
            if not m:
                raise ParseError(f"unexpected {tok!r} after term", nxt[2])
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
    if t[1] is not None:
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
    """Parse the formula lines of a .hol document (see hol_lines) one at a
    time, as they are asked for; a parse error names its line."""
    for lineno, line in hol_lines(text):
        try:
            yield parse_formula(line, mode)
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from e

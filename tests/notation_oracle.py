"""Reference notation, kept as an oracle for hotk.kernel.parser and printer.

Before the notation moved into the `INFIX`/`PREFIX` tables of
hotk.kernel.syntax, the parser's atom rule and keyword set and the
printer's rendering each listed every infix token and level-theory name
themselves, a regular expression read the type indices of command-line
options and proof rules, and terms and binders each read their own
`name^index`.  Before the parser tokenized in one pass and read
the binary connectives by precedence climbing, a tokenizer matched one
token at a time and the connectives were read by one recursive rule per
level of CONNECTIVES.  This module keeps those readers and that printer.
tests/test_notation_oracle.py compares them with the current code.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from hotk.errors import ParseError
from hotk.kernel.indices import TypeIndex, fin
from hotk.kernel.parser import MAX_DEPTH
from hotk.kernel.syntax import (CONNECTIVES, And, Apply, DownRel, Exists,
                                Forall, Iff, Implies, InSet, Not, Or, Raised,
                                StrictEq, Sugar, Term, Var, Const)

# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = {"all", "some", "eq", "in", "dn", "coext", "downeq", "sub",
             "up", "Lev", "Hist", "Rank"}

_COEXT_K_RE = re.compile(r"^coext_([0-9]+)$")


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<nat>[0-9]+)
  | (?P<sym>[()^.,=~&|*+])
""", re.VERBOSE)


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


class OracleParser:

    def __init__(self, text: str, mode: str):
        if mode not in ("typed", "set"):
            raise ValueError(f"bad parse mode {mode!r}")
        self.toks = _Tokens(text)
        self.depth = _Depth(self.toks)
        self.mode = mode
        self.bound: List[Tuple[str, Optional[TypeIndex]]] = []

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

    def parse_index(self) -> TypeIndex:
        t = self.toks.peek()
        if t is None:
            raise ParseError("expected type index", len(self.toks.text))
        if t[1] == "(":
            self.toks.next()
            with self.depth:
                idx = self.parse_index()
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
        self.toks.next()
        name = t[1]
        index: Optional[TypeIndex] = None
        if self.toks.at("^"):
            if self.mode == "set":
                raise ParseError("typed term in set-language formula", t[2])
            self.toks.next()
            index = self.parse_index()
        elif self.mode == "typed":
            raise ParseError(f"term {name!r} is missing its ^index", t[2])
        if (name, index) in self.bound:
            return Var(name, index)
        return Const(name, index)

    def _quantifier(self):
        word = self.toks.next()[1]
        vt = self.toks.peek()
        if vt is None or vt[0] != "ident" or vt[1] in _KEYWORDS:
            raise ParseError("expected bound variable", vt[2] if vt else len(self.toks.text))
        self.toks.next()
        name = vt[1]
        index: Optional[TypeIndex] = None
        if self.toks.at("^"):
            if self.mode == "set":
                raise ParseError("typed binder in set-language formula", vt[2])
            self.toks.next()
            index = self.parse_index()
        elif self.mode == "typed":
            raise ParseError(f"binder {name!r} is missing its ^index", vt[2])
        var = Var(name, index)

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

        self.bound.append((name, index))
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
        if t[1] in ("Lev", "Hist"):
            kind = "level" if t[1] == "Lev" else "history"
            self.toks.next()
            self.toks.expect("(")
            term = self.parse_term()
            self.toks.expect(")")
            return Sugar(kind, (term,))
        if t[1] == "Rank":
            self.toks.next()
            self.toks.expect("(")
            a = self.parse_term()
            self.toks.expect(",")
            s = self.parse_term()
            self.toks.expect(")")
            return Sugar("rank", (a, s))

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
        if tok == "=":
            self.toks.next()
            return StrictEq(left, self.parse_term())
        if tok == "in":
            self.toks.next()
            right = self.parse_term()
            if self.mode == "set":
                return InSet(left, right)
            return Sugar("in", (left, right))
        if self.mode == "set":
            if tok == "sub":
                self.toks.next()
                return Sugar("subset", (left, self.parse_term()))
            raise ParseError(f"unexpected {tok!r} after set term", nxt[2])
        if tok == "eq":
            self.toks.next()
            return Sugar("eq", (left, self.parse_term()))
        if tok == "dn":
            self.toks.next()
            return DownRel(left, self.parse_term())
        if tok == "coext":
            self.toks.next()
            return Sugar("coext", (left, self.parse_term()))
        if tok == "downeq":
            self.toks.next()
            return Sugar("downeq", (left, self.parse_term()))
        if tok == "sub":
            self.toks.next()
            return Sugar("subset", (left, self.parse_term()))
        m = _COEXT_K_RE.match(tok)
        if m:
            self.toks.next()
            return Sugar("coext_k", (int(m.group(1)), left, self.parse_term()))
        raise ParseError(f"unexpected {tok!r} after term", nxt[2])


def parse_formula(text: str, mode: str = "typed"):
    p = OracleParser(text, mode)
    f = p.parse_formula()
    if p.toks.peek() is not None:
        t = p.toks.peek()
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return f


def parse_term(text: str, mode: str = "typed") -> Term:
    p = OracleParser(text, mode)
    t = p.parse_term()
    if p.toks.peek() is not None:
        tok = p.toks.peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return t


# ---------------------------------------------------------------------------
# The regular-expression index reader

_INDEX_RE = re.compile(r"^(?:(?P<nat>[0-9]+)|w(?:\*(?P<q>[0-9]+))?(?:\+(?P<r>[0-9]+))?)$")


def parse_index(text: str) -> TypeIndex:
    """Parse NAT | w | w*NAT | w+NAT | w*NAT+NAT (optionally parenthesized)."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    m = _INDEX_RE.match(s)
    if not m:
        raise ParseError(f"bad type index {text!r} (indices up to w*q+r only)")
    if m.group("nat") is not None:
        return fin(int(m.group("nat")))
    q = int(m.group("q")) if m.group("q") else 1
    r = int(m.group("r")) if m.group("r") else 0
    return TypeIndex(q, r)


# ---------------------------------------------------------------------------
# Printer

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4}
_OPS = {Iff: "<->", Implies: "->", Or: "|", And: "&"}


def print_term(t: Term) -> str:
    if isinstance(t, Raised):
        return f"up({print_term(t.inner)})"
    if t.index is None:
        return t.name
    idx = str(t.index)
    if not t.index.is_finite:
        idx = f"({idx})"
    return f"{t.name}^{idx}"


def _quant(word: str, var, body, bound=None) -> str:
    head = f"{word} {print_term(var)}"
    if bound is not None:
        rel, term = bound
        head += f" {rel} {print_term(term)}"
    return f"{head}. {_render(body, 0)}"


def _render(f, parent_prec: int) -> str:
    if isinstance(f, Apply):
        return f"{print_term(f.head)}({print_term(f.arg)})"
    if isinstance(f, StrictEq):
        return f"{print_term(f.left)} = {print_term(f.right)}"
    if isinstance(f, DownRel):
        return f"{print_term(f.left)} dn {print_term(f.right)}"
    if isinstance(f, InSet):
        return f"{print_term(f.left)} in {print_term(f.right)}"
    if isinstance(f, Not):
        return f"~{_render(f.body, 5)}"
    if isinstance(f, (And, Or, Implies, Iff)):
        prec = _PREC[type(f)]
        left = _render(f.left, prec + 1)   # right-assoc: left child binds tighter
        right = _render(f.right, prec)
        s = f"{left} {_OPS[type(f)]} {right}"
        return f"({s})" if prec < parent_prec else s
    if isinstance(f, Forall):
        s = _quant("all", f.var, f.body)
        return f"({s})" if parent_prec > 0 else s
    if isinstance(f, Exists):
        s = _quant("some", f.var, f.body)
        return f"({s})" if parent_prec > 0 else s
    if isinstance(f, Sugar):
        return _render_sugar(f, parent_prec)
    raise TypeError(f"unknown formula node {f!r}")


def _render_sugar(f: Sugar, parent_prec: int) -> str:
    k = f.kind
    if k in ("eq", "in", "coext", "downeq", "subset"):
        token = {"eq": "eq", "in": "in", "coext": "coext",
                 "downeq": "downeq", "subset": "sub"}[k]
        l, r = f.args
        return f"{print_term(l)} {token} {print_term(r)}"
    if k == "coext_k":
        n, l, r = f.args
        return f"{print_term(l)} coext_{n} {print_term(r)}"
    if k == "level":
        return f"Lev({print_term(f.args[0])})"
    if k == "history":
        return f"Hist({print_term(f.args[0])})"
    if k == "rank":
        a, s = f.args
        return f"Rank({print_term(a)}, {print_term(s)})"
    if k == "bounded":
        quant, var, rel, bound, body = f.args
        word = "all" if quant == "all" else "some"
        s = _quant(word, var, body, bound=(rel, bound))
        return f"({s})" if parent_prec > 0 else s
    raise TypeError(f"unknown sugar kind {k!r}")


def print_formula(f) -> str:
    return _render(f, 0)

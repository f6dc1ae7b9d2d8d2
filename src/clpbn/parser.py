"""Reader and printer for the probabilistic logic program syntax.

The concrete syntax is Prolog-like: clauses end with a period, ``%`` starts
a line comment, and probabilistic constraints are written in braces as
``{Var = skolem(Args) with p(Domain, Table, Parents)}``. A small fixed
operator table covers clause necks, arithmetic, comparisons, ``with`` and
``^``. Parsing is precedence climbing over a hand-rolled tokenizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import ClpbnSyntaxError
from .terms import (
    NIL,
    Atom,
    FreshVars,
    Struct,
    Term,
    Var,
    mklist,
)

# (priority, type). xfx/xfy/yfx as in standard Prolog.
INFIX_OPS: dict[str, tuple[int, str]] = {
    ":-": (1200, "xfx"),
    ",": (1000, "xfy"),
    "with": (810, "xfx"),
    "=": (700, "xfx"),
    "is": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "=:=": (700, "xfx"),
    "=\\=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "/": (400, "yfx"),
    "//": (400, "yfx"),
    "mod": (400, "yfx"),
    "^": (200, "xfy"),
}

PREFIX_OPS: dict[str, tuple[int, str]] = {
    ":-": (1200, "fx"),
    "?-": (1200, "fx"),
    "-": (200, "fy"),
}

_SYMBOLIC = (
    "=\\=", "=:=", "=<", ">=", ":-", "?-", "//", "=", "<", ">", "+", "-",
    "*", "/", "^", "!", "|",
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<name>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<quoted>'(?:[^'\\]|\\.|'')*')
  | (?P<punct>""" + "|".join(re.escape(s) for s in _SYMBOLIC) + r"""|[()\[\]{},.])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # atom var int float punct end eof
    text: str
    line: int
    col: int


def _number(t: Token) -> int | float:
    """The value of an int or float token, which the type must hold."""
    try:
        value = int(t.text) if t.kind == "int" else float(t.text)
    except ValueError:
        raise ClpbnSyntaxError("integer literal has too many digits", t.line, t.col) from None
    if value == float("inf"):
        raise ClpbnSyntaxError("float literal out of range", t.line, t.col)
    return value


def _unquote(s: str) -> str:
    body = s[1:-1].replace("''", "'")
    return (
        body.replace("\\\\", "\x00")
        .replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace("\\'", "'")
        .replace("\x00", "\\")
    )


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ClpbnSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        col = pos - line_start + 1
        kind = m.lastgroup
        tok = m.group()
        pos = m.end()
        if kind == "ws":
            nl = tok.count("\n")
            if nl:
                line += nl
                line_start = pos - (len(tok) - tok.rfind("\n") - 1)
            continue
        if kind == "punct" and tok == ".":
            # A period ends a clause when followed by layout, a comment, or EOF.
            if pos >= n or text[pos] in " \t\r\n%" :
                tokens.append(Token("end", ".", line, col))
                continue
            raise ClpbnSyntaxError("'.' must end a clause", line, col)
        if kind == "quoted":
            tokens.append(Token("atom", _unquote(tok), line, col))
        elif kind == "name":
            tokens.append(Token("atom", tok, line, col))
        elif kind == "punct":
            tokens.append(Token("punct", tok, line, col))
        else:
            tokens.append(Token(kind, tok, line, col))
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Reader:
    def __init__(self, tokens: list[Token], fresh: FreshVars) -> None:
        self.toks = tokens
        self.i = 0
        self.fresh = fresh
        self.varmap: dict[str, Var] = {}

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ClpbnSyntaxError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    # --- term reading -------------------------------------------------

    def read_term(self, maxp: int) -> Term:
        left, leftp = self.read_primary(maxp)
        while True:
            t = self.peek()
            name = t.text
            if t.kind == "punct" and name == "," and maxp >= 1000:
                op = INFIX_OPS[","]
            elif (t.kind == "atom" or t.kind == "punct") and name in INFIX_OPS and name != ",":
                op = INFIX_OPS[name]
            else:
                break
            p, typ = op
            if p > maxp:
                break
            left_max = p if typ == "yfx" else p - 1
            if leftp > left_max:
                break
            self.next()
            right = self.read_term(p if typ == "xfy" else p - 1)
            left = Struct(name, (left, right))
            leftp = p
        return left

    def read_primary(self, maxp: int) -> tuple[Term, int]:
        t = self.next()
        if t.kind in ("int", "float"):
            return _number(t), 0
        if t.kind == "var":
            if t.text == "_":
                return self.fresh.new("_"), 0
            v = self.varmap.get(t.text)
            if v is None:
                v = self.fresh.new(t.text)
                self.varmap[t.text] = v
            return v, 0
        if t.kind == "punct":
            if t.text == "(":
                inner = self.read_term(1200)
                self.expect(")")
                return inner, 0
            if t.text == "[":
                return self.read_list(), 0
            if t.text == "{":
                if self.peek().text == "}":
                    self.next()
                    return Atom("{}"), 0
                inner = self.read_term(1200)
                self.expect("}")
                return Struct("{}", (inner,)), 0
            if t.text == "!":
                return Atom("!"), 0
            if t.text == "-":
                nxt = self.peek()
                if nxt.kind in ("int", "float"):
                    self.next()
                    return -_number(nxt), 0
                p, _typ = PREFIX_OPS["-"]
                arg = self.read_term(p)
                return Struct("-", (arg,)), p
            if t.text in PREFIX_OPS:
                p, _typ = PREFIX_OPS[t.text]
                if p <= maxp:
                    arg = self.read_term(p)
                    return Struct(t.text, (arg,)), p
            raise ClpbnSyntaxError(f"unexpected {t.text!r}", t.line, t.col)
        if t.kind == "atom":
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == "(":
                self.next()
                args = [self.read_term(999)]
                while self.peek().text == ",":
                    self.next()
                    args.append(self.read_term(999))
                self.expect(")")
                return Struct(t.text, tuple(args)), 0
            return Atom(t.text), 0
        raise ClpbnSyntaxError(f"unexpected {t.text!r}", t.line, t.col)

    def read_list(self) -> Term:
        if self.peek().text == "]":
            self.next()
            return NIL
        items = [self.read_term(999)]
        while self.peek().text == ",":
            self.next()
            items.append(self.read_term(999))
        tail: Term = NIL
        if self.peek().text == "|":
            self.next()
            tail = self.read_term(999)
        self.expect("]")
        return mklist(items, tail)

    def read_clause(self) -> Optional[tuple[Term, int, dict[str, Var]]]:
        """One clause term up to its end period, or None at EOF."""
        if self.peek().kind == "eof":
            return None
        self.varmap = {}
        start = self.peek()
        try:
            term = self.read_term(1200)
        except RecursionError:
            # the reader recurses once per level of nesting
            raise ClpbnSyntaxError("term nested too deeply", start.line, start.col) from None
        t = self.next()
        if t.kind != "end":
            raise ClpbnSyntaxError(
                f"expected '.' to end the clause, found {t.text!r}", t.line, t.col
            )
        return term, start.line, dict(self.varmap)


def read_terms(text: str, fresh: Optional[FreshVars] = None) -> list[tuple[Term, int, dict[str, Var]]]:
    """All clause terms in the text as (term, line, variable names)."""
    reader = _Reader(tokenize(text), fresh or FreshVars())
    out = []
    while True:
        c = reader.read_clause()
        if c is None:
            return out
        out.append(c)


def parse_term(text: str, fresh: Optional[FreshVars] = None) -> Term:
    """A single term (no trailing period required)."""
    reader = _Reader(tokenize(text + " ."), fresh or FreshVars())
    c = reader.read_clause()
    if c is None:
        raise ClpbnSyntaxError("empty term")
    if reader.peek().kind != "eof":
        raise ClpbnSyntaxError("trailing input after term")
    return c[0]


# --- printing ---------------------------------------------------------

_PLAIN_ATOM = re.compile(r"^[a-z][A-Za-z0-9_]*$")


def _atom_text(name: str) -> str:
    if _PLAIN_ATOM.match(name) or name in ("[]", "!", "{}"):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")
    return f"'{escaped}'"


def _float_text(x: float) -> str:
    s = repr(x)
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def term_to_text(t: Term) -> str:
    """Canonical text for a term; reparsing yields a structurally equal term.

    Runs on an explicit stack of literal pieces (``str``) and compound
    subterms still to print, so a deeply nested term prints without
    recursion."""
    if type(t) is not Struct:
        return _leaf_text(t)
    stack = _struct_pieces(t)
    if Struct not in map(type, stack):
        return "".join(stack)  # no compound argument: the common case
    stack.reverse()
    out: list[str] = []
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
            continue
        pieces = _struct_pieces(t)
        if Struct in map(type, pieces):
            stack += reversed(pieces)
        else:
            out += pieces
    return "".join(out)


def _leaf_text(t: Term) -> str:
    if type(t) is Atom:
        return _atom_text(t.name)
    if type(t) is int:
        return str(t)
    if type(t) is float:
        return _float_text(t)
    if type(t) is Var:
        return t.display()
    raise TypeError(f"not a term: {t!r}")


def _piece(t: Term):
    """A subterm as a piece of its parent's text: compound terms stay terms."""
    return t if type(t) is Struct else _leaf_text(t)


def _struct_pieces(t: Struct) -> list:
    """The text of t as literal pieces and the compound subterms between them."""
    if t.functor == "." and t.arity == 2:
        items: list = []
        tail: Term = t
        while type(tail) is Struct and tail.functor == "." and tail.arity == 2:
            items.append(tail.args[0])
            tail = tail.args[1]
        if type(tail) is Atom and tail.name == "[]":
            return ["[", *_comma_separated(items), "]"]
        return ["[", *_comma_separated(items), "|", _piece(tail), "]"]
    if t.functor == "{}" and t.arity == 1:
        return ["{", _piece(t.args[0]), "}"]
    if t.arity == 2 and t.functor in INFIX_OPS:
        return ["(", _piece(t.args[0]), f" {t.functor} ", _piece(t.args[1]), ")"]
    if t.arity == 1 and t.functor == "-":
        return ["-(", _piece(t.args[0]), ")"]
    return [_atom_text(t.functor) + "(", *_comma_separated(t.args), ")"]


def _comma_separated(items) -> list:
    """Items separated by ", ", as one piece if none of them is compound."""
    if Struct not in map(type, items):
        return [", ".join(map(_leaf_text, items))]
    out: list = [", "] * (2 * len(items) - 1)
    out[::2] = map(_piece, items)
    return out

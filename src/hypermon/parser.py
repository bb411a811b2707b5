"""Concrete syntax for quantified specifications.

Grammar (# starts a line comment, whitespace is insignificant):

    formula  := quant* body
    quant    := ("forall" | "exists") IDENT "."
    body     := iff
    iff      := xor ("<->" xor)*
    xor      := impl ("^" impl)*
    impl     := or ("->" impl)?
    or       := and ("|" and)*
    and      := unary ("&" unary)*
    unary    := "!" unary | "X" unary | "G" unary | "F" unary
              | atomOrParen (("U" | "W" | "R") unary)?
    atomOrParen := "true" | "false" | IDENT "@" IDENT | "(" body ")"

Indexed atoms are written ``prop@var``.  The operator names X G F U W R and
the keywords forall/exists/true/false are reserved and cannot be used as
identifiers.

A body may nest at most :data:`MAX_DEPTH` levels deep.  Each parenthesis,
prefix operator, right operand of U, W, R or ->, and each further operand of
a <-> or ^ chain opens one level.
"""

import re

from .errors import DuplicateBinderError, FormulaSyntaxError, UnboundVariableError
from .formula import (
    EXISTS,
    FALSE,
    FORALL,
    TRUE,
    And,
    Atom,
    AtomRef,
    Eventually,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    QuantifiedFormula,
    Release,
    Until,
    WeakUntil,
    Xor,
)

# Every pass over a body (desugaring, simplification, compilation, the
# evaluator) recurses a small constant number of times per level, so this
# keeps them all inside the interpreter's default recursion limit.
MAX_DEPTH = 100

_PREFIX = {"!": Not, "X": Next, "G": Globally, "F": Eventually}
_UNTILS = {"U": Until, "W": WeakUntil, "R": Release}
_KEYWORDS = {"forall", "exists", "true", "false", "X", "G", "F", "U", "W", "R"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iff><->)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()@.!&|^])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            line += tok.count("\n")
            if "\n" in tok:
                line_start = pos + tok.rindex("\n") + 1
        elif kind == "comment":
            pass
        elif kind == "ident":
            if tok in _KEYWORDS:
                tokens.append(_Token(tok, tok, line, col))
            else:
                tokens.append(_Token("IDENT", tok, line, col))
        elif kind in ("iff", "arrow"):
            tokens.append(_Token(tok, tok, line, col))
        else:
            tokens.append(_Token(tok, tok, line, col))
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.bound = []

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.take()

    def level(self, depth: int) -> int:
        """``depth``, the nesting level of the next operand; refuses a level
        past MAX_DEPTH."""
        if depth > MAX_DEPTH:
            self.error(f"formula nested {depth} levels deep; the limit is {MAX_DEPTH}")
        return depth

    def error(self, msg: str, tok: _Token = None):
        tok = tok or self.peek()
        raise FormulaSyntaxError(msg, tok.line, tok.col)

    def parse(self) -> QuantifiedFormula:
        prefix = []
        while self.peek().kind in (FORALL, EXISTS):
            quant = self.take().kind
            name = self.expect("IDENT")
            if name.text in (v for _, v in prefix):
                raise DuplicateBinderError(
                    f"variable {name.text!r} bound more than once",
                    name.line,
                    name.col,
                )
            self.expect(".")
            prefix.append((quant, name.text))
        self.bound = [v for _, v in prefix]
        body = self.iff(0)
        tok = self.peek()
        if tok.kind != "EOF":
            self.error(f"unexpected {tok.text!r} after formula", tok)
        return QuantifiedFormula(tuple(prefix), body)

    def iff(self, depth):
        f = self.xor(depth)
        while self.peek().kind == "<->":
            self.take()
            depth = self.level(depth + 1)
            f = Iff(f, self.xor(depth))
        return f

    def xor(self, depth):
        f = self.impl(depth)
        while self.peek().kind == "^":
            self.take()
            depth = self.level(depth + 1)
            f = Xor(f, self.impl(depth))
        return f

    def impl(self, depth):
        f = self.or_(depth)
        if self.peek().kind == "->":
            self.take()
            return Implies(f, self.impl(self.level(depth + 1)))
        return f

    def or_(self, depth):
        parts = [self.and_(depth)]
        while self.peek().kind == "|":
            self.take()
            parts.append(self.and_(depth))
        if len(parts) == 1:
            return parts[0]
        return Or(tuple(parts))

    def and_(self, depth):
        parts = [self.unary(depth)]
        while self.peek().kind == "&":
            self.take()
            parts.append(self.unary(depth))
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def unary(self, depth):
        kind = self.peek().kind
        if kind in _PREFIX:
            self.take()
            return _PREFIX[kind](self.unary(self.level(depth + 1)))
        f = self.atom_or_paren(depth)
        kind = self.peek().kind
        if kind in _UNTILS:
            self.take()
            return _UNTILS[kind](f, self.unary(self.level(depth + 1)))
        return f

    def atom_or_paren(self, depth):
        tok = self.peek()
        if tok.kind == "true":
            self.take()
            return TRUE
        if tok.kind == "false":
            self.take()
            return FALSE
        if tok.kind == "(":
            self.take()
            f = self.iff(self.level(depth + 1))
            self.expect(")")
            return f
        if tok.kind == "IDENT":
            prop = self.take()
            self.expect("@")
            var = self.expect("IDENT")
            if var.text not in self.bound:
                raise UnboundVariableError(
                    f"unbound trace variable {var.text!r}", var.line, var.col
                )
            return Atom(AtomRef(prop.text, var.text))
        self.error(f"expected an atom, found {tok.text or 'end of input'!r}")


def parse_formula(text: str) -> QuantifiedFormula:
    """Parse a quantified specification from text."""
    return _Parser(text).parse()

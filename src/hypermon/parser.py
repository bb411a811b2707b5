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

The operators, their binding levels and how each chains come from one table,
:data:`hypermon.formula.INFIX` with ``PREFIX``, ``UNTILS`` and
``CONSTANTS``, which the printer reads too.  Indexed atoms are written
``prop@var``.  The operator names X G F U W R and the keywords
forall/exists/true/false are reserved and cannot be used as identifiers.

A body may nest at most :data:`MAX_DEPTH` levels deep.  Each parenthesis,
prefix operator, right operand of U, W, R or ->, and each further operand of
a <-> or ^ chain opens one level.
"""

import re
from functools import partial, reduce

from .errors import DuplicateBinderError, FormulaSyntaxError, UnboundVariableError
from .formula import (
    CONSTANTS,
    EXISTS,
    FORALL,
    INFIX,
    PREFIX,
    UNTILS,
    Atom,
    AtomRef,
    QuantifiedFormula,
)

# Every pass over a body (desugaring, simplification, compilation, the
# evaluator) recurses a small constant number of times per level, so this
# keeps them all inside the interpreter's default recursion limit.
MAX_DEPTH = 100

_KEYWORDS = {FORALL, EXISTS, *CONSTANTS, *PREFIX, *UNTILS}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct><->|->|[()@.!&|^])
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
        col = pos - line_start + 1
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "ws":
            line += tok.count("\n")
            if "\n" in tok:
                line_start = pos + tok.rindex("\n") + 1
        elif kind == "comment":
            pass
        elif kind == "ident" and tok not in _KEYWORDS:
            tokens.append(_Token("IDENT", tok, line, col))
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
        # the parser of an infix level's operands: the next tighter level,
        # then unary; bound here, so each level costs one frame
        self.operands = [partial(self.infix, at) for at in range(1, len(INFIX))]
        self.operands.append(self.unary)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok)
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
        body = self.infix(0, 0)
        tok = self.peek()
        if tok.kind != "EOF":
            self.error(f"unexpected {tok.text!r} after formula", tok)
        return QuantifiedFormula(tuple(prefix), body)

    def infix(self, at, depth):
        """A chain of the infix operator ``INFIX[at]`` over operands of the
        tighter levels."""
        token, make, shape = INFIX[at]
        operand = self.operands[at]
        parts = [operand(depth)]
        while self.peek().kind == token:
            self.take()
            if shape == "right":
                return make(parts[0], self.infix(at, self.level(depth + 1)))
            if shape == "left":
                depth = self.level(depth + 1)
            parts.append(operand(depth))
        if len(parts) == 1:
            return parts[0]
        return make(tuple(parts)) if shape == "flat" else reduce(make, parts)

    def unary(self, depth):
        kind = self.peek().kind
        if kind in PREFIX:
            self.take()
            return PREFIX[kind](self.unary(self.level(depth + 1)))
        f = self.atom_or_paren(depth)
        kind = self.peek().kind
        if kind in UNTILS:
            self.take()
            return UNTILS[kind](f, self.unary(self.level(depth + 1)))
        return f

    def atom_or_paren(self, depth):
        tok = self.peek()
        if tok.kind in CONSTANTS:
            self.take()
            return CONSTANTS[tok.kind]
        if tok.kind == "(":
            self.take()
            f = self.infix(0, self.level(depth + 1))
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

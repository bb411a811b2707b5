"""Formula ASTs: quantifier prefixes over trace variables and temporal bodies.

The body grammar has a small core (atom, true, not, or, next, until) plus
derived operators that :func:`desugar` expands.  :func:`simplify` rewrites a
body into a canonical form (flattened, sorted n-ary or/and, double-negation
and constant elimination) that the automaton construction uses as its state
space.

:func:`children` and :func:`rebuild` are the one place that knows which
fields of which class hold subformulas: generic passes walk nodes through
them, and only passes with a rule per operator name the fields themselves.

The concrete syntax is one operator table: :data:`INFIX` (the infix
operators, loosest first, each with its token and how a chain of it nests),
:data:`PREFIX`, :data:`UNTILS` and :data:`CONSTANTS`.  The parser and
:func:`pretty` both read it, so a token or a binding level is written once.

Body nodes are frozen, slotted dataclasses, and they are hash-consed: every
node is built through one process-wide unique table keyed on its class and
fields, whose children are unique already.  Each distinct formula is thus
built once, and equal formulas are the same object (Filliâtre & Conchon,
"Type-safe modular hash-consing", 2006).  Equality and hashing are object
identity, so the dicts and sets that the evaluator and the automaton
construction key on nodes cost one lookup whatever the size of the subtree.
"""

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

from .errors import FormulaSyntaxError

FORALL = "forall"
EXISTS = "exists"


@dataclass(frozen=True, order=True)
class AtomRef:
    """A proposition observed on a specific trace variable."""

    proposition: str
    variable: str

    def __str__(self) -> str:
        return f"{self.proposition}@{self.variable}"


# (class, *fields) -> the one node with those fields.  The table is strong:
# a node, once built, lives as long as the process.
_NODES = {}


class _Unique(type):
    """Metaclass of body nodes: a class call returns the unique node with
    the given fields, and builds it only on the first call."""

    def __call__(cls, *args, **kwargs):
        if kwargs:
            # a throwaway node binds keywords the way the generated
            # __init__ does, so dataclasses.replace finds the unique node
            node = super().__call__(*args, **kwargs)
            args = tuple(getattr(node, name) for name in cls.__match_args__)
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = super().__call__(*args)
        return node


class Formula(metaclass=_Unique):
    """Base class for body nodes.

    Subclasses are ``@_node`` classes: frozen, slotted dataclasses without
    ``__dict__`` or a generated ``__eq__``.  Calling a subclass returns the
    unique node with those fields, so two nodes are equal exactly when they
    are one object, and ``==`` and ``hash`` are those of ``object``.  Copies
    and pickles rebuild a node by calling its class, so they return the
    unique node too.
    """

    # fkey, simplify and template.prog of the node, each set on first use
    __slots__ = ("_key", "_simple", "_prog")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self) -> str:
        return pretty(self)


_node = dataclass(frozen=True, slots=True, eq=False)


@_node
class Atom(Formula):
    ref: AtomRef


@_node
class TrueF(Formula):
    pass


@_node
class FalseF(Formula):
    pass


@_node
class Not(Formula):
    sub: Formula


@_node
class Or(Formula):
    args: tuple  # tuple[Formula, ...], at least two entries


@_node
class And(Formula):
    args: tuple


@_node
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@_node
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@_node
class Xor(Formula):
    lhs: Formula
    rhs: Formula


@_node
class Next(Formula):
    sub: Formula


@_node
class Until(Formula):
    lhs: Formula
    rhs: Formula


@_node
class WeakUntil(Formula):
    lhs: Formula
    rhs: Formula


@_node
class Release(Formula):
    lhs: Formula
    rhs: Formula


@_node
class Globally(Formula):
    sub: Formula


@_node
class Eventually(Formula):
    sub: Formula


TRUE = TrueF()
FALSE = FalseF()

CORE_TYPES = (Atom, TrueF, Not, Or, Next, Until)


_args = attrgetter("args")
# class -> the subformulas of its nodes, in field order
_CHILDREN = {
    **dict.fromkeys((Atom, TrueF, FalseF), lambda f: ()),
    **dict.fromkeys((Not, Next, Globally, Eventually), lambda f: (f.sub,)),
    **dict.fromkeys((Implies, Iff, Xor, Until, WeakUntil, Release), lambda f: (f.lhs, f.rhs)),
    **dict.fromkeys((Or, And), _args),
}


def children(f: Formula) -> tuple:
    """The direct subformulas of a node, in field order."""
    try:
        get = _CHILDREN[type(f)]
    except KeyError:
        raise TypeError(f"not a formula node: {f!r}") from None
    return get(f)


def rebuild(f: Formula, subs, make=None) -> Formula:
    """The node of ``f``'s shape with children ``subs``, built by ``make``,
    which takes them as ``f``'s class does (default: that class, so
    ``rebuild(f, children(f)) is f``).  A leaf is returned as it is."""
    if not subs:
        return f
    make = make or type(f)
    return make(tuple(subs)) if _CHILDREN[type(f)] is _args else make(*subs)


@dataclass(frozen=True)
class QuantifiedFormula:
    """Quantifier prefix (ordered (quantifier, variable) pairs) plus a body."""

    prefix: tuple  # tuple[tuple[str, str], ...]
    body: Formula

    @property
    def variables(self) -> tuple:
        return tuple(v for _, v in self.prefix)

    def __str__(self) -> str:
        return pretty_quantified(self)


@dataclass(frozen=True)
class QuantifierClass:
    """Shape of a quantifier prefix, used to route fragment-specific logic.

    kind is one of "forall_n", "exists_n", "forall_exists", "other".
    """

    kind: str
    n: int = 0
    shape: str = ""

    @property
    def is_universal(self) -> bool:
        return self.kind == "forall_n"


def classify_prefix(qf: QuantifiedFormula) -> QuantifierClass:
    """Classify a prefix as all-universal, all-existential, forall-exists or other."""
    quants = tuple(q for q, _ in qf.prefix)
    shape = "".join("A" if q == FORALL else "E" for q in quants)
    n = len(quants)
    if all(q == FORALL for q in quants):
        return QuantifierClass("forall_n", n, shape)
    if all(q == EXISTS for q in quants):
        return QuantifierClass("exists_n", n, shape)
    if shape == "AE":
        return QuantifierClass("forall_exists", 2, shape)
    return QuantifierClass("other", n, shape)


def validate_quantified(qf: QuantifiedFormula) -> None:
    """Check binder uniqueness and closedness; raises on violation."""
    seen = set()
    for _, var in qf.prefix:
        if var in seen:
            raise FormulaSyntaxError(f"variable {var!r} bound more than once")
        seen.add(var)
    for ref in atom_refs(qf.body):
        if ref.variable not in seen:
            raise FormulaSyntaxError(f"unbound trace variable {ref.variable!r}")


def subformulas(f: Formula):
    """Every distinct node of a body, ``f`` first, each once."""
    seen = {f}
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        for sub in children(node):
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)


def atom_refs(f: Formula) -> set:
    """All indexed atoms occurring in a body."""
    return {node.ref for node in subformulas(f) if type(node) is Atom}


def collect_alphabet(qf: QuantifiedFormula) -> tuple:
    """Indexed atoms of the body in deterministic (proposition, variable) order."""
    return tuple(sorted(atom_refs(qf.body)))


def rename_variables(f: Formula, mapping: dict) -> Formula:
    """Replace each atom's trace variable per ``mapping`` (identity if absent)."""
    if type(f) is Atom:
        prop, var = f.ref.proposition, f.ref.variable
        return Atom(AtomRef(prop, mapping.get(var, var)))
    return rebuild(f, list(map(rename_variables, children(f), repeat(mapping))))


# derived class -> its core expansion, from the desugared children
_EXPANSIONS = {
    FalseF: lambda: Not(TRUE),
    And: lambda *args: Not(Or(tuple(Not(a) for a in args))),
    Implies: lambda a, b: Or((Not(a), b)),
    Iff: lambda a, b: Not(Or((Not(Or((Not(a), b))), Not(Or((Not(b), a)))))),
    Xor: lambda a, b: Not(_EXPANSIONS[Iff](a, b)),
    Eventually: lambda a: Until(TRUE, a),
    Globally: lambda a: Not(Until(TRUE, Not(a))),
    WeakUntil: lambda a, b: Or((Until(a, b), Not(Until(TRUE, Not(a))))),
    Release: lambda a, b: Not(Until(Not(a), Not(b))),
}


def desugar(f: Formula) -> Formula:
    """Expand derived operators; the result uses only atom/true/not/or/next/until."""
    subs = list(map(desugar, children(f)))
    expand = _EXPANSIONS.get(type(f))
    return expand(*subs) if expand else rebuild(f, subs)


# class -> its tag in fkey, so or/and arguments sort by class in this order.
# Progression, the evaluator and the normal form stop at the first argument
# that decides, and on the benchmark workloads they read less with negations
# and atoms first and disjunctions last than in hash order.
_TAGS = {cls: tag for tag, cls in enumerate((
    Not, Atom, And, Iff, Implies, FalseF, Eventually, Globally, Release, TrueF,
    Until, WeakUntil, Next, Xor, Or))}


def fkey(f: Formula) -> int:
    """Canonical key of a node: the sort key of or/and arguments.

    Unlike identity hashes, it orders formulas the same way in every process
    and under any ``PYTHONHASHSEED``, so every residual prints the same.  It
    is the node's class tag above a 64-bit hash of the tag and its
    children's keys (an atom's text read as an int), built once per node and
    kept on the node, so it has a fixed size however large the formula.  Two
    distinct nodes whose keys collide sort in either order; that can cost a
    duplicate automaton state, whose formula is the same set of arguments in
    another order, but never a wrong verdict.
    """
    try:
        return f._key
    except AttributeError:
        pass
    kind = type(f)
    if kind is Atom:
        parts = (int.from_bytes(str(f.ref).encode(), "big"),)
    else:
        parts = map(fkey, children(f))  # raises on anything but a node
    tag = _TAGS[kind]
    key = tag << 64 | hash((tag, *parts)) % (1 << 64)
    object.__setattr__(f, "_key", key)
    return key


def mk_not(x: Formula) -> Formula:
    if isinstance(x, TrueF):
        return FALSE
    if isinstance(x, FalseF):
        return TRUE
    if isinstance(x, Not):
        return x.sub
    return Not(x)


def _flatten(items, cls, absorbing, neutral):
    """Shared or/and normalization: flatten, drop neutrals, detect absorbing
    constants and complementary pairs, deduplicate, absorb, sort."""
    flat = set()
    stack = list(items)
    while stack:
        e = stack.pop()
        if isinstance(e, cls):
            stack.extend(e.args)
        elif isinstance(e, type(absorbing)):
            return absorbing
        elif not isinstance(e, type(neutral)):
            flat.add(e)
    for e in flat:
        # flattening splices nested same-class args, so the complement of a
        # negated same-class node may be present only piecewise
        if isinstance(e, Not) and (
            e.sub in flat
            or isinstance(e.sub, cls) and all(c in flat for c in e.sub.args)
        ):
            return absorbing
    dual = And if cls is Or else Or
    # absorbed: d OP (d DUAL x) == d
    kept = [e for e in flat if not (isinstance(e, dual) and any(c in flat for c in e.args))]
    if not kept:
        return neutral
    if len(kept) == 1:
        return kept[0]
    return cls(tuple(sorted(kept, key=fkey)))


def mk_or(items) -> Formula:
    return _flatten(items, Or, TRUE, FALSE)


def mk_and(items) -> Formula:
    return _flatten(items, And, FALSE, TRUE)


def mk_next(x: Formula) -> Formula:
    # X true == true and X false == false under the end-of-trace rule.
    if isinstance(x, (TrueF, FalseF)):
        return x
    return Next(x)


def mk_until(a: Formula, b: Formula) -> Formula:
    if isinstance(b, (TrueF, FalseF)):
        return b
    if isinstance(a, FalseF) or a is b:
        return b
    return Until(a, b)


# class -> the constructor that builds its nodes canonically; other classes
# (atoms, constants, derived operators) keep their own
_SIMPLIFIERS = {Not: mk_not, Or: mk_or, And: mk_and, Next: mk_next, Until: mk_until}


def simplify(f: Formula) -> Formula:
    """Canonical rewrite; idempotent. Intended for desugared bodies, but total."""
    out = getattr(f, "_simple", None)
    if out is None:
        out = rebuild(f, list(map(simplify, children(f))), _SIMPLIFIERS.get(type(f)))
        object.__setattr__(f, "_simple", out)
    return out


# The concrete syntax, read by both the parser and the printer.  INFIX holds
# the infix operators, loosest first: an operator's binding level is its
# index, and its shape says how a chain of it parses.  "left" and "right"
# chains nest to that side; a "flat" chain is one n-ary node.  Prefix
# operators and U/W/R bind at level UNARY, tighter than any infix operator;
# the left operand of U/W/R is an atom, a constant or parenthesized.
INFIX = (
    ("<->", Iff, "left"),
    ("^", Xor, "left"),
    ("->", Implies, "right"),
    ("|", Or, "flat"),
    ("&", And, "flat"),
)
UNARY = len(INFIX)
PREFIX = {"!": Not, "X": Next, "G": Globally, "F": Eventually}
UNTILS = {"U": Until, "W": WeakUntil, "R": Release}
CONSTANTS = {"true": TRUE, "false": FALSE}

# class -> (token, binding level, shape) for the printer
_SYNTAX = {
    **{cls: (token, level, shape) for level, (token, cls, shape) in enumerate(INFIX)},
    **{cls: (token, UNARY, "prefix") for token, cls in PREFIX.items()},
    **{cls: (token, UNARY, "until") for token, cls in UNTILS.items()},
    **{type(node): (token, UNARY + 1, "leaf") for token, node in CONSTANTS.items()},
}


def _pp(f: Formula, level: int) -> str:
    """``f`` printed in a context of binding ``level``: a child looser than
    its context gets parentheses, so parsing recovers the identical tree."""
    if type(f) is Atom:
        return str(f.ref)
    try:
        token, own, shape = _SYNTAX[type(f)]
    except KeyError:
        raise TypeError(f"not a formula node: {f!r}") from None
    if shape == "leaf":
        return token
    if shape == "prefix":
        # a word operator needs a space before its operand
        s = token + " " * token.isalpha() + _pp(f.sub, own)
    elif shape == "until":
        lhs = _pp(f.lhs, 0)
        if children(f.lhs):
            lhs = f"({lhs})"
        s = f"{lhs} {token} {_pp(f.rhs, own)}"
    elif shape == "flat":
        s = f" {token} ".join(_pp(a, own + 1) for a in f.args)
    else:
        # the operand on the chain's side stays at this level
        left, right = (own, own + 1) if shape == "left" else (own + 1, own)
        s = f"{_pp(f.lhs, left)} {token} {_pp(f.rhs, right)}"
    return f"({s})" if level > own else s


def pretty(f: Formula) -> str:
    """Render a body; parse(pretty(f)) reproduces the identical tree."""
    return _pp(f, 0)


def pretty_quantified(qf: QuantifiedFormula) -> str:
    parts = [f"{q} {v}." for q, v in qf.prefix]
    parts.append(pretty(qf.body))
    return " ".join(parts)

"""Formula ASTs: quantifier prefixes over trace variables and temporal bodies.

The body grammar has a small core (atom, true, not, or, next, until) plus
derived operators that :func:`desugar` expands.  :func:`simplify` rewrites a
body into a canonical form (flattened, sorted n-ary or/and, double-negation
and constant elimination) that the automaton construction uses as its state
space.

:func:`children` and :func:`rebuild` are the one place that knows which
fields of which class hold subformulas: generic passes walk nodes through
them, and only passes with a rule per operator name the fields themselves.

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


_TAGS = {
    TrueF: "T", FalseF: "F", Not: "!", Or: "|", And: "&", Next: "X", Until: "U",
    WeakUntil: "W", Release: "R", Globally: "G", Eventually: "Fi", Implies: ">",
    Iff: "=", Xor: "^",
}


def fkey(f: Formula) -> str:
    """Canonical string of a node: the sort key of or/and arguments.

    Unlike identity hashes, it orders formulas the same way in every process,
    so every residual prints the same.  It is built once per node, from the
    keys of the children, and kept on the node.
    """
    try:
        return f._key
    except AttributeError:
        pass
    kind = type(f)
    if kind is Atom:
        key = f"a({f.ref})"
    else:
        subs = children(f)  # raises on anything but a node
        key = f"{_TAGS[kind]}({','.join(map(fkey, subs))})" if subs else _TAGS[kind]
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


# Pretty printing: binding levels per the concrete grammar.  A printed child
# at a looser level than its context gets parentheses so parsing recovers the
# identical tree.
_LVL_IFF, _LVL_XOR, _LVL_IMPL, _LVL_OR, _LVL_AND, _LVL_UNARY, _LVL_ATOM = range(7)


def _pp(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return str(f.ref)
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Iff):
        s = f"{_pp(f.lhs, _LVL_IFF)} <-> {_pp(f.rhs, _LVL_XOR)}"
        return f"({s})" if level > _LVL_IFF else s
    if isinstance(f, Xor):
        s = f"{_pp(f.lhs, _LVL_XOR)} ^ {_pp(f.rhs, _LVL_IMPL)}"
        return f"({s})" if level > _LVL_XOR else s
    if isinstance(f, Implies):
        # right-associative: the right child stays at this level
        s = f"{_pp(f.lhs, _LVL_OR)} -> {_pp(f.rhs, _LVL_IMPL)}"
        return f"({s})" if level > _LVL_IMPL else s
    if isinstance(f, Or):
        s = " | ".join(_pp(a, _LVL_AND) for a in f.args)
        return f"({s})" if level > _LVL_OR else s
    if isinstance(f, And):
        s = " & ".join(_pp(a, _LVL_UNARY) for a in f.args)
        return f"({s})" if level > _LVL_AND else s
    if isinstance(f, Not):
        return f"!{_pp(f.sub, _LVL_UNARY)}"
    if isinstance(f, Next):
        return f"X {_pp(f.sub, _LVL_UNARY)}"
    if isinstance(f, Globally):
        return f"G {_pp(f.sub, _LVL_UNARY)}"
    if isinstance(f, Eventually):
        return f"F {_pp(f.sub, _LVL_UNARY)}"
    if isinstance(f, (Until, WeakUntil, Release)):
        op = {Until: "U", WeakUntil: "W", Release: "R"}[type(f)]
        # the left operand of U/W/R must be an atom, constant or parenthesized
        if isinstance(f.lhs, (Atom, TrueF, FalseF)):
            lhs = _pp(f.lhs, _LVL_ATOM)
        else:
            lhs = f"({_pp(f.lhs, _LVL_IFF)})"
        s = f"{lhs} {op} {_pp(f.rhs, _LVL_UNARY)}"
        # a U-chain is itself a unary production, no parens needed at unary level
        return f"({s})" if level > _LVL_UNARY else s
    raise TypeError(f"not a formula node: {f!r}")


def pretty(f: Formula) -> str:
    """Render a body; parse(pretty(f)) reproduces the identical tree."""
    return _pp(f, _LVL_IFF)


def pretty_quantified(qf: QuantifiedFormula) -> str:
    parts = [f"{q} {v}." for q, v in qf.prefix]
    parts.append(pretty(qf.body))
    return " ".join(parts)

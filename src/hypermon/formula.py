"""Formula ASTs: quantifier prefixes over trace variables and temporal bodies.

The body grammar has a small core (atom, true, not, or, next, until) plus
derived operators that :func:`desugar` expands.  :func:`simplify` rewrites a
body into a canonical form (flattened, sorted n-ary or/and, double-negation
and constant elimination) that the automaton construction uses as its state
space.

Body nodes are frozen, slotted dataclasses.  Each node computes its hash once,
when it is built, and keeps it, so the dicts and sets the evaluator and the
automaton construction key on nodes cost one lookup rather than a walk over
the whole subtree.  Equality stays structural.
"""

from dataclasses import dataclass
from functools import lru_cache

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


class Formula:
    """Base class for body nodes.

    Subclasses are ``@dataclass(frozen=True, slots=True)`` classes: immutable,
    without a ``__dict__``, and compared field by field.  Each node hashes its
    class name and fields when it is built and keeps the result in the ``_h``
    slot, which ``__hash__`` returns.  A child's hash is then one slot read,
    so a node costs O(number of children) to hash, once, not O(subtree) per
    call.
    """

    __slots__ = ("_h",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # an explicit __hash__ in the class body stops dataclass from
        # generating its own, which would rehash the whole subtree per call
        cls.__hash__ = Formula.__hash__

    def __post_init__(self):
        # the class name rather than the class, whose hash is its address,
        # keeps hashes reproducible under a fixed PYTHONHASHSEED
        fields = [getattr(self, name) for name in self.__slots__]
        object.__setattr__(self, "_h", hash((type(self).__name__, *fields)))

    def __hash__(self) -> int:
        return self._h

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    ref: AtomRef


@dataclass(frozen=True, slots=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True, slots=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    args: tuple  # tuple[Formula, ...], at least two entries


@dataclass(frozen=True, slots=True)
class And(Formula):
    args: tuple


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Xor(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class Until(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class WeakUntil(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Release(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, slots=True)
class Globally(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class Eventually(Formula):
    sub: Formula


TRUE = TrueF()
FALSE = FalseF()

CORE_TYPES = (Atom, TrueF, Not, Or, Next, Until)


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


def atom_refs(f: Formula) -> set:
    """All indexed atoms occurring in a body."""
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.add(node.ref)
        elif isinstance(node, (Not, Next, Globally, Eventually)):
            stack.append(node.sub)
        elif isinstance(node, (Or, And)):
            stack.extend(node.args)
        elif isinstance(node, (Implies, Iff, Xor, Until, WeakUntil, Release)):
            stack.append(node.lhs)
            stack.append(node.rhs)
    return out


def free_variables(f: Formula) -> set:
    return {ref.variable for ref in atom_refs(f)}


def collect_alphabet(qf: QuantifiedFormula) -> tuple:
    """Indexed atoms of the body in deterministic (proposition, variable) order."""
    return tuple(sorted(atom_refs(qf.body)))


def rename_variables(f: Formula, mapping: dict) -> Formula:
    """Replace each atom's trace variable per ``mapping`` (identity if absent)."""
    if isinstance(f, Atom):
        new_var = mapping.get(f.ref.variable, f.ref.variable)
        if new_var == f.ref.variable:
            return f
        return Atom(AtomRef(f.ref.proposition, new_var))
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Not):
        return Not(rename_variables(f.sub, mapping))
    if isinstance(f, Next):
        return Next(rename_variables(f.sub, mapping))
    if isinstance(f, Globally):
        return Globally(rename_variables(f.sub, mapping))
    if isinstance(f, Eventually):
        return Eventually(rename_variables(f.sub, mapping))
    if isinstance(f, Or):
        return Or(tuple(rename_variables(a, mapping) for a in f.args))
    if isinstance(f, And):
        return And(tuple(rename_variables(a, mapping) for a in f.args))
    cls = type(f)
    return cls(rename_variables(f.lhs, mapping), rename_variables(f.rhs, mapping))


def desugar(f: Formula) -> Formula:
    """Expand derived operators; the result uses only atom/true/not/or/next/until."""
    if isinstance(f, (Atom, TrueF)):
        return f
    if isinstance(f, FalseF):
        return Not(TRUE)
    if isinstance(f, Not):
        return Not(desugar(f.sub))
    if isinstance(f, Next):
        return Next(desugar(f.sub))
    if isinstance(f, Or):
        return Or(tuple(desugar(a) for a in f.args))
    if isinstance(f, Until):
        return Until(desugar(f.lhs), desugar(f.rhs))
    if isinstance(f, And):
        return Not(Or(tuple(Not(desugar(a)) for a in f.args)))
    if isinstance(f, Implies):
        return Or((Not(desugar(f.lhs)), desugar(f.rhs)))
    if isinstance(f, Iff):
        a, b = desugar(f.lhs), desugar(f.rhs)
        return Not(Or((Not(Or((Not(a), b))), Not(Or((Not(b), a))))))
    if isinstance(f, Xor):
        return Not(desugar(Iff(f.lhs, f.rhs)))
    if isinstance(f, Eventually):
        return Until(TRUE, desugar(f.sub))
    if isinstance(f, Globally):
        return Not(Until(TRUE, Not(desugar(f.sub))))
    if isinstance(f, WeakUntil):
        a, b = desugar(f.lhs), desugar(f.rhs)
        return Or((Until(a, b), Not(Until(TRUE, Not(a)))))
    if isinstance(f, Release):
        return Not(Until(Not(desugar(f.lhs)), Not(desugar(f.rhs))))
    raise TypeError(f"not a formula node: {f!r}")


@lru_cache(maxsize=None)
def fkey(f: Formula) -> str:
    """Canonical string key; total, deterministic order for commutative sorting."""
    if isinstance(f, Atom):
        return f"a({f.ref.proposition}@{f.ref.variable})"
    if isinstance(f, TrueF):
        return "T"
    if isinstance(f, FalseF):
        return "F"
    if isinstance(f, Not):
        return f"!({fkey(f.sub)})"
    if isinstance(f, Or):
        return "|(" + ",".join(fkey(a) for a in f.args) + ")"
    if isinstance(f, And):
        return "&(" + ",".join(fkey(a) for a in f.args) + ")"
    if isinstance(f, Next):
        return f"X({fkey(f.sub)})"
    if isinstance(f, Until):
        return f"U({fkey(f.lhs)},{fkey(f.rhs)})"
    if isinstance(f, WeakUntil):
        return f"W({fkey(f.lhs)},{fkey(f.rhs)})"
    if isinstance(f, Release):
        return f"R({fkey(f.lhs)},{fkey(f.rhs)})"
    if isinstance(f, Globally):
        return f"G({fkey(f.sub)})"
    if isinstance(f, Eventually):
        return f"Fi({fkey(f.sub)})"
    if isinstance(f, Implies):
        return f">({fkey(f.lhs)},{fkey(f.rhs)})"
    if isinstance(f, Iff):
        return f"=({fkey(f.lhs)},{fkey(f.rhs)})"
    if isinstance(f, Xor):
        return f"^({fkey(f.lhs)},{fkey(f.rhs)})"
    raise TypeError(f"not a formula node: {f!r}")


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
    flat = []

    def add(e):
        if isinstance(e, cls):
            for a in e.args:
                add(a)
        elif isinstance(e, type(neutral)):
            pass
        elif isinstance(e, type(absorbing)):
            raise _Short()
        else:
            flat.append(e)

    try:
        for e in items:
            add(e)
    except _Short:
        return absorbing

    by_key = {}
    for e in flat:
        by_key.setdefault(fkey(e), e)
    keys = set(by_key)
    for k, e in by_key.items():
        if fkey(mk_not(e)) in keys:
            return absorbing
        # flattening splices nested same-class args, so the complement of a
        # negated same-class node may be present only piecewise
        if isinstance(e, Not) and isinstance(e.sub, cls) and all(
            fkey(c) in keys for c in e.sub.args
        ):
            return absorbing
    dual = And if cls is Or else Or
    kept = []
    for k, e in by_key.items():
        if isinstance(e, dual) and any(
            fkey(c) in keys and fkey(c) != k for c in e.args
        ):
            continue  # absorbed: d OP (d DUAL x) == d
        kept.append((k, e))
    kept.sort(key=lambda p: p[0])
    if not kept:
        return neutral
    if len(kept) == 1:
        return kept[0][1]
    return cls(tuple(e for _, e in kept))


class _Short(Exception):
    pass


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
    if isinstance(a, FalseF) or fkey(a) == fkey(b):
        return b
    return Until(a, b)


def simplify(f: Formula) -> Formula:
    """Canonical rewrite; idempotent. Intended for desugared bodies, but total."""
    if isinstance(f, (Atom, TrueF, FalseF)):
        return f
    if isinstance(f, Not):
        return mk_not(simplify(f.sub))
    if isinstance(f, Or):
        return mk_or(simplify(a) for a in f.args)
    if isinstance(f, And):
        return mk_and(simplify(a) for a in f.args)
    if isinstance(f, Next):
        return mk_next(simplify(f.sub))
    if isinstance(f, Until):
        return mk_until(simplify(f.lhs), simplify(f.rhs))
    # Derived operators: simplify children only; desugar first for full rules.
    if isinstance(f, (Globally, Eventually)):
        return type(f)(simplify(f.sub))
    return type(f)(simplify(f.lhs), simplify(f.rhs))


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

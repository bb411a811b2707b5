"""Ground-truth evaluator for bodies and quantified formulas over finite traces.

End-of-trace convention: position 0 of the empty trace carries no
propositions, so atoms evaluate to false there.  Every construction in the
automata layer is tested against this module.

One consequence worth knowing: ``G a@p`` is unsatisfiable over finite traces,
because every trace eventually shifts to the empty trace where ``a@p`` is
false.
"""

from collections import defaultdict
from dataclasses import dataclass

from .errors import UncoveredVariableError
from .formula import (
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    QuantifiedFormula,
    Release,
    TrueF,
    Until,
    WeakUntil,
    Xor,
)


@dataclass(frozen=True, slots=True)
class Trace:
    """A finite word over sets of propositions, named for reporting."""

    steps: tuple = ()  # tuple[frozenset[str], ...]
    name: str = "t"

    @classmethod
    def of(cls, steps, name: str = "t") -> "Trace":
        return cls(tuple(frozenset(s) for s in steps), name)

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, i: int):
        return self.steps[i]

    def renamed(self, name: str) -> "Trace":
        return Trace(self.steps, name)


def subsequence(t: Trace, i: int, j: int) -> Trace:
    """Positions i..j of t (inclusive), empty when i is past the end; j clamps."""
    if i < 0 or j < 0:
        raise ValueError("subsequence indices must be nonnegative")
    if i >= len(t):
        return Trace((), t.name)
    return Trace(t.steps[i : min(j, len(t) - 1) + 1], t.name)


def suffix(t: Trace, i: int) -> Trace:
    return subsequence(t, i, len(t) - 1) if len(t) else subsequence(t, i, 0)


def shift_assignment(assignment: dict, i: int) -> dict:
    """Shift every mapped trace to its i-suffix."""
    if i < 0:
        raise ValueError("shift must be nonnegative")
    if i == 0:
        return dict(assignment)
    return {v: suffix(t, i) for v, t in assignment.items()}


class _Evaluator:
    """Evaluates one body over one assignment, memoized by (node, shift).

    Unbounded temporal operators only need shifts up to the longest trace:
    after that every trace is empty and shifting is a fixed point, so shifts
    are normalized to that horizon.
    """

    def __init__(self, assignment: dict):
        self.assignment = assignment
        self.horizon = max((len(t) for t in assignment.values()), default=0)
        self.memo = {}

    def eval(self, f: Formula, i: int) -> bool:
        i = min(i, self.horizon)
        key = (f, i)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = self._eval(f, i)
        self.memo[key] = out
        return out

    def _eval(self, f: Formula, i: int) -> bool:
        if isinstance(f, Atom):
            try:
                t = self.assignment[f.ref.variable]
            except KeyError:
                raise UncoveredVariableError(
                    f"assignment does not cover variable {f.ref.variable!r}"
                ) from None
            return i < len(t) and f.ref.proposition in t.steps[i]
        if isinstance(f, TrueF):
            return True
        if isinstance(f, FalseF):
            return False
        if isinstance(f, Not):
            return not self.eval(f.sub, i)
        if isinstance(f, Or):
            return any(self.eval(a, i) for a in f.args)
        if isinstance(f, And):
            return all(self.eval(a, i) for a in f.args)
        if isinstance(f, Implies):
            return (not self.eval(f.lhs, i)) or self.eval(f.rhs, i)
        if isinstance(f, Iff):
            return self.eval(f.lhs, i) == self.eval(f.rhs, i)
        if isinstance(f, Xor):
            return self.eval(f.lhs, i) != self.eval(f.rhs, i)
        if isinstance(f, Next):
            return self.eval(f.sub, i + 1)
        if isinstance(f, Until):
            for k in range(i, self.horizon + 1):
                if self.eval(f.rhs, k):
                    return True
                if not self.eval(f.lhs, k):
                    return False
            return False
        if isinstance(f, WeakUntil):
            for k in range(i, self.horizon + 1):
                if self.eval(f.rhs, k):
                    return True
                if not self.eval(f.lhs, k):
                    return False
            return True  # lhs held through the empty-trace fixed point
        if isinstance(f, Release):
            for k in range(i, self.horizon + 1):
                if not self.eval(f.rhs, k):
                    return False
                if self.eval(f.lhs, k):
                    return True
            return True
        if isinstance(f, Globally):
            return all(self.eval(f.sub, k) for k in range(i, self.horizon + 1))
        if isinstance(f, Eventually):
            return any(self.eval(f.sub, k) for k in range(i, self.horizon + 1))
        raise TypeError(f"not a formula node: {f!r}")


def eval_body(assignment: dict, f: Formula) -> bool:
    """Evaluate a quantifier-free body over a variable-to-trace assignment."""
    return _Evaluator(assignment).eval(f, 0)


def eps_eval(f: Formula) -> bool:
    """Evaluate a body at the all-empty assignment (every atom false)."""
    return _Evaluator(defaultdict(Trace)).eval(f, 0)


def eval_quantified(traces, qf: QuantifiedFormula, assignment: dict = None) -> bool:
    """Evaluate a quantified formula, quantifiers ranging over ``traces``.

    ``assignment`` binds the body's variables that the prefix does not
    quantify (an outer quantifier's trace); the formula is closed without it.
    Cost is |traces| ** len(prefix) body evaluations; meant for small inputs.
    """
    pool = list(traces)
    prefix = qf.prefix
    body = qf.body

    def go(k: int, assignment: dict) -> bool:
        if k == len(prefix):
            return eval_body(assignment, body)
        quant, var = prefix[k]
        if quant == "exists":
            return any(go(k + 1, {**assignment, var: t}) for t in pool)
        return all(go(k + 1, {**assignment, var: t}) for t in pool)

    return go(0, assignment or {})

"""Preprocessing checks that justify skipping monitor instantiations.

Each check reduces a question about the body to finite-word satisfiability of
a derived body, decided by automaton emptiness:

* symmetry: ``body xor body-with-two-variables-swapped`` is unsatisfiable
  (checked for every adjacent transposition of the prefix);
* reflexivity: the negation of the body with all variables identified is
  unsatisfiable (every trace paired with itself satisfies the body);
* transitivity: ``body(1,2) and body(2,3) and not body(1,3)`` is
  unsatisfiable.

A negative answer comes with the shortest satisfying word, which decodes into
concrete per-variable traces exhibiting the failure.
"""

import time
from dataclasses import dataclass, field

from .errors import FragmentError, ResourceLimitError
from .formula import (
    And,
    Not,
    QuantifiedFormula,
    Xor,
    atom_refs,
    desugar,
    rename_variables,
    simplify,
)
from .semantics import Trace
from .template import (
    DEFAULT_STATE_LIMIT,
    TemplateAutomaton,
    lazy_is_empty,
)

Word = tuple  # tuple[frozenset[AtomRef], ...]


@dataclass
class SpecAnalysisResult:
    """Flags consumed by the engine, with witnesses for negative answers."""

    symmetric: bool = False
    transitive: bool = False
    reflexive: bool = False
    symmetry_witness: Word = None
    transitivity_witness: Word = None
    reflexivity_witness: Word = None
    durations: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def flags(self) -> tuple:
        return (self.symmetric, self.transitive, self.reflexive)


def _unsat(body, state_limit):
    """(True, None) if the desugared body has no satisfying finite word,
    else (False, witness word decoded to atom sets)."""
    core = simplify(desugar(body))
    support = tuple(sorted(atom_refs(core)))
    auto = TemplateAutomaton(core, support, state_limit)
    empty, word = lazy_is_empty(auto)
    if empty:
        return True, None
    decoded = tuple(
        frozenset(ref for ref in support if letter >> auto.bits[ref] & 1)
        for letter in word
    )
    return False, decoded


def decode_word(word: Word, variables) -> dict:
    """Split a word over indexed atoms into one trace per variable."""
    return {
        v: Trace(
            tuple(
                frozenset(ref.proposition for ref in letter if ref.variable == v)
                for letter in word
            ),
            name=v,
        )
        for v in variables
    }


def check_symmetry(qf: QuantifiedFormula, state_limit=DEFAULT_STATE_LIMIT):
    """(True, None) when the body is invariant under variable exchange."""
    variables = qf.variables
    if len(variables) < 2:
        raise FragmentError("symmetry needs at least two quantifiers")
    for i in range(len(variables) - 1):
        a, b = variables[i], variables[i + 1]
        swapped = rename_variables(qf.body, {a: b, b: a})
        unsat, witness = _unsat(Xor(qf.body, swapped), state_limit)
        if not unsat:
            return False, witness
    return True, None


def check_reflexivity(qf: QuantifiedFormula, state_limit=DEFAULT_STATE_LIMIT):
    """(True, None) when every trace paired with itself satisfies the body."""
    quants = {q for q, _ in qf.prefix}
    if len(quants) > 1:
        raise FragmentError("reflexivity needs a single-block prefix")
    variables = qf.variables
    if not variables:
        raise FragmentError("reflexivity needs at least one quantifier")
    one = variables[0]
    identified = rename_variables(qf.body, {v: one for v in variables})
    unsat, witness = _unsat(Not(identified), state_limit)
    if unsat:
        return True, None
    return False, witness


def check_transitivity(qf: QuantifiedFormula, state_limit=DEFAULT_STATE_LIMIT):
    """(True, None) when body(1,2) and body(2,3) always force body(1,3)."""
    quants = {q for q, _ in qf.prefix}
    if len(qf.variables) != 2 or len(quants) != 1:
        raise FragmentError("transitivity needs a two-variable single-block prefix")
    v1, v2 = qf.variables
    v3 = v2 + "_2"
    while v3 in (v1, v2):
        v3 += "_"
    chain = And(
        (
            qf.body,
            rename_variables(qf.body, {v1: v2, v2: v3}),
            Not(rename_variables(qf.body, {v2: v3})),
        )
    )
    unsat, witness = _unsat(chain, state_limit)
    if unsat:
        return True, None
    return False, witness


def analyze(qf: QuantifiedFormula,
            state_limit=DEFAULT_STATE_LIMIT) -> SpecAnalysisResult:
    """Run all three checks, degrading to "not detected" on resource limits.

    Prefixes with fewer than two variables have no tuple reductions to make,
    so every flag is reported false.
    """
    result = SpecAnalysisResult()
    if len(qf.variables) < 2:
        result.notes["all"] = "single-variable prefix, no reductions applicable"
        return result
    checks = (
        ("symmetric", "symmetry_witness", check_symmetry),
        ("transitive", "transitivity_witness", check_transitivity),
        ("reflexive", "reflexivity_witness", check_reflexivity),
    )
    for name, witness_field, check in checks:
        begin = time.perf_counter()
        try:
            ok, witness = check(qf, state_limit)
        except (ResourceLimitError, FragmentError) as exc:
            ok, witness = False, None
            result.notes[name] = f"not detected: {exc}"
        setattr(result, name, ok)
        if witness is not None:
            setattr(result, witness_field, witness)
        result.durations[name] = time.perf_counter() - begin
    return result

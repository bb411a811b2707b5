import dataclasses
import random

import pytest

from hypermon import formula
from hypermon.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    AtomRef,
    Globally,
    Iff,
    Not,
    Or,
    Until,
    WeakUntil,
    classify_prefix,
    collect_alphabet,
    desugar,
    rename_variables,
    simplify,
)
from hypermon.parser import parse_formula
from hypermon.semantics import eval_body

from conftest import random_body, random_trace


def atom(p, v):
    return Atom(AtomRef(p, v))


class TestDesugar:
    def test_globally(self):
        f = Globally(atom("a", "p"))
        assert desugar(f) == Not(Until(TRUE, Not(atom("a", "p"))))

    def test_weak_until_is_until_or_globally(self):
        f = WeakUntil(atom("a", "p"), atom("b", "q"))
        assert desugar(f) == Or(
            (
                Until(atom("a", "p"), atom("b", "q")),
                Not(Until(TRUE, Not(atom("a", "p")))),
            )
        )

    def test_core_is_untouched(self):
        f = Until(atom("a", "p"), Not(atom("b", "p")))
        assert desugar(f) == f

    def test_result_is_core_only(self):
        from hypermon.formula import CORE_TYPES

        rng = random.Random(31)
        for _ in range(300):
            f = desugar(random_body(rng, 4))
            stack = [f]
            while stack:
                node = stack.pop()
                assert isinstance(node, CORE_TYPES), node
                if isinstance(node, Not):
                    stack.append(node.sub)
                elif isinstance(node, Or):
                    stack.extend(node.args)
                elif isinstance(node, Until):
                    stack.extend((node.lhs, node.rhs))
                elif hasattr(node, "sub"):
                    stack.append(node.sub)

    def test_preserves_semantics(self, rng):
        for _ in range(400):
            f = random_body(rng, 4)
            a = {"p": random_trace(rng, "tp"), "q": random_trace(rng, "tq")}
            assert eval_body(a, desugar(f)) == eval_body(a, f)


class TestSimplify:
    def test_double_negation(self):
        assert simplify(Not(Not(atom("a", "p")))) == atom("a", "p")

    def test_or_constants(self):
        a = atom("a", "p")
        assert simplify(Or((a, TRUE))) == TRUE
        assert simplify(Or((a, FALSE))) == a
        assert simplify(Or((a, a))) == a

    def test_complement_collapse(self):
        a = atom("a", "p")
        assert simplify(Or((a, Not(a)))) == TRUE
        assert simplify(And((a, Not(a)))) == FALSE

    def test_commutative_canonical_order(self):
        a, b = atom("a", "p"), atom("b", "p")
        assert simplify(Or((b, a))) == simplify(Or((a, b)))

    def test_idempotent(self, rng):
        for _ in range(400):
            s = simplify(desugar(random_body(rng, 4)))
            assert simplify(s) == s

    def test_preserves_semantics(self, rng):
        for _ in range(400):
            f = random_body(rng, 4)
            a = {"p": random_trace(rng, "tp"), "q": random_trace(rng, "tq")}
            assert eval_body(a, simplify(desugar(f))) == eval_body(a, f)


class TestRename:
    def test_swap(self):
        f = parse_formula("forall p. forall q. G (a@p -> a@q)").body
        swapped = rename_variables(f, {"p": "q", "q": "p"})
        assert swapped == parse_formula("forall p. forall q. G (a@q -> a@p)").body

    def test_swap_is_involution(self, rng):
        swap = {"p": "q", "q": "p"}
        for _ in range(200):
            f = random_body(rng, 4)
            assert rename_variables(rename_variables(f, swap), swap) == f

    def test_identify(self):
        f = parse_formula("forall p. forall q. G (a@p <-> a@q)").body
        merged = rename_variables(f, {"q": "p"})
        assert merged == Globally(Iff(atom("a", "p"), atom("a", "p")))

    def test_identity_map(self, rng):
        f = random_body(rng, 4)
        assert rename_variables(f, {}) == f


class TestClassify:
    def test_forall_2(self):
        qc = classify_prefix(parse_formula("forall p. forall q. a@p | a@q"))
        assert (qc.kind, qc.n) == ("forall_n", 2)
        assert qc.is_universal

    def test_exists_2(self):
        qc = classify_prefix(parse_formula("exists p. exists q. a@p | a@q"))
        assert (qc.kind, qc.n) == ("exists_n", 2)

    def test_forall_exists(self):
        qc = classify_prefix(parse_formula("forall p. exists q. a@p -> a@q"))
        assert qc.kind == "forall_exists"

    def test_other(self):
        qc = classify_prefix(
            parse_formula("forall p. exists q. forall r. a@p | a@q | a@r")
        )
        assert qc.kind == "other"
        assert qc.shape == "AEA"


class TestAlphabet:
    def test_eq(self):
        qf = parse_formula("forall p. forall q. G (a@p <-> a@q)")
        assert collect_alphabet(qf) == (AtomRef("a", "p"), AtomRef("a", "q"))

    def test_constant_body(self):
        assert collect_alphabet(parse_formula("forall p. true")) == ()

    def test_order_is_proposition_then_variable(self):
        qf = parse_formula("forall p. forall q. (o@p <-> o@q) W !(i@p <-> i@q)")
        assert collect_alphabet(qf) == (
            AtomRef("i", "p"),
            AtomRef("i", "q"),
            AtomRef("o", "p"),
            AtomRef("o", "q"),
        )


NODE_CLASSES = [
    cls for cls in vars(formula).values()
    if isinstance(cls, type) and issubclass(cls, formula.Formula) and cls is not formula.Formula
]


def sample_node(cls, props):
    """A node of ``cls`` whose every formula field holds fresh atoms."""
    atoms = (atom(prop, "p") for prop in props)
    fields = []
    for field in dataclasses.fields(cls):
        if field.name == "ref":
            fields.append(AtomRef("r", "p"))
        elif field.type is tuple:
            fields.append((next(atoms), next(atoms), next(atoms)))
        else:
            fields.append(next(atoms))
    return cls(*fields)


class TestNodeShapes:
    """``children`` and ``rebuild`` are the one table of node shapes."""

    def test_the_table_lists_exactly_the_node_classes(self):
        assert len(NODE_CLASSES) == 15
        assert set(formula._CHILDREN) == set(NODE_CLASSES)

    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
    def test_children_are_the_formula_fields(self, cls):
        node = sample_node(cls, "abcd")
        held = []
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, formula.Formula):
                held.append(value)
            elif isinstance(value, tuple):
                held.extend(value)
        assert formula.children(node) == tuple(held)
        assert formula.rebuild(node, formula.children(node)) is node
        other = sample_node(cls, "wxyz")
        assert formula.rebuild(node, formula.children(other)) is (
            node if not held else other
        )

    def test_class_missing_from_the_table_fails_loudly(self):
        class Box(formula.Formula):
            __slots__ = ()

        box = object.__new__(Box)  # outside the unique table
        for walk in (
            formula.children,
            formula.atom_refs,
            desugar,
            simplify,
            formula.fkey,
            lambda f: rename_variables(f, {}),
        ):
            with pytest.raises(TypeError, match="not a formula node"):
                walk(box)

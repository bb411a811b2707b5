"""Hypothesis properties for the formula layer invariants."""

import copy
import dataclasses
import itertools
import pickle
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings, strategies as st

from hypermon.formula import (
    FALSE,
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
    desugar,
    pretty_quantified,
    rename_variables,
    simplify,
)
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_body

atoms = st.builds(
    Atom,
    st.builds(AtomRef, st.sampled_from(("a", "b")), st.sampled_from(("p", "q"))),
)

bodies = st.recursive(
    atoms | st.just(TRUE) | st.just(FALSE),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Next, sub),
        st.builds(Globally, sub),
        st.builds(Eventually, sub),
        st.builds(Until, sub, sub),
        st.builds(WeakUntil, sub, sub),
        st.builds(Release, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(Xor, sub, sub),
        st.lists(sub, min_size=2, max_size=3).map(tuple).map(Or),
        st.lists(sub, min_size=2, max_size=3).map(tuple).map(And),
    ),
    max_leaves=12,
)

traces = st.lists(
    st.sets(st.sampled_from(("a", "b")), max_size=2), max_size=5
).map(lambda steps: Trace.of(steps, "t"))


@settings(max_examples=200, deadline=None)
@given(bodies)
def test_parse_inverts_pretty_print(body):
    qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
    assert parse_formula(pretty_quantified(qf)) == qf


@settings(max_examples=200, deadline=None)
@given(bodies)
def test_simplify_idempotent(body):
    once = simplify(desugar(body))
    assert simplify(once) == once


@settings(max_examples=150, deadline=None)
@given(bodies, traces, traces)
def test_desugar_and_simplify_preserve_evaluation(body, tp, tq):
    assignment = {"p": tp, "q": tq.renamed("u")}
    expected = eval_body(assignment, body)
    assert eval_body(assignment, desugar(body)) == expected
    assert eval_body(assignment, simplify(desugar(body))) == expected


@settings(max_examples=150, deadline=None)
@given(bodies)
def test_variable_swap_is_involution(body):
    swap = {"p": "q", "q": "p"}
    assert rename_variables(rename_variables(body, swap), swap) == body


@settings(max_examples=150, deadline=None)
@given(bodies)
def test_rebuilt_body_is_equal_with_equal_hash(body):
    h = hash(body)
    table = {body: "original"}
    qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
    swap = {"p": "q", "q": "p"}
    by_keyword = {field.name: getattr(body, field.name) for field in fields(body)}
    # every way of building a node returns the one node with those fields
    for rebuilt in (
        parse_formula(pretty_quantified(qf)).body,
        rename_variables(rename_variables(body, swap), swap),
        type(body)(**by_keyword),
        dataclasses.replace(body, **by_keyword),
        copy.copy(body),
        copy.deepcopy(body),
        pickle.loads(pickle.dumps(body)),
    ):
        assert rebuilt is body
        assert rebuilt == body
        assert hash(rebuilt) == h
        assert table[rebuilt] == "original"


@settings(max_examples=100, deadline=None)
@given(bodies, bodies)
def test_node_classes_with_equal_fields_differ(lhs, rhs):
    for group in (
        (Until(lhs, rhs), WeakUntil(lhs, rhs), Release(lhs, rhs)),
        (Globally(lhs), Eventually(lhs)),
        (Or((lhs, rhs)), And((lhs, rhs))),
    ):
        for a, b in itertools.combinations(group, 2):
            assert a != b
        assert len({node: None for node in group}) == len(group)


@settings(max_examples=100, deadline=None)
@given(bodies)
def test_nodes_are_frozen_and_slotted(body):
    h = hash(body)
    assert not hasattr(body, "__dict__")
    for field in fields(body):
        with pytest.raises(FrozenInstanceError):
            setattr(body, field.name, TRUE)
    assert hash(body) == h

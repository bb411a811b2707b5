"""Ground-truth semantics, pinned to the end-of-trace rule: the empty trace
carries no propositions, so atoms on it are false."""

import itertools

import pytest

from hypermon.errors import UncoveredVariableError
from hypermon.formula import QuantifiedFormula
from hypermon.parser import parse_formula
from hypermon.semantics import (
    Trace,
    eps_eval,
    eval_body,
    eval_quantified,
    shift_assignment,
    subsequence,
)

from conftest import random_body, random_trace


def body(text):
    return parse_formula(text).body


T_AB = Trace.of([{"a"}, set(), {"b"}], "t")


class TestSubsequence:
    def test_start_past_end_is_empty(self):
        assert subsequence(T_AB, 3, 5) == Trace((), "t")
        assert subsequence(T_AB, 99, 99) == Trace((), "t")

    def test_end_clamps_to_length(self):
        assert subsequence(T_AB, 1, 99).steps == (frozenset(), frozenset({"b"}))

    def test_empty_trace(self):
        assert subsequence(Trace((), "e"), 0, 0) == Trace((), "e")

    def test_inner_window(self):
        assert subsequence(T_AB, 0, 1).steps == (frozenset({"a"}), frozenset())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            subsequence(T_AB, -1, 0)


class TestShift:
    def test_pointwise_suffix(self):
        a = {"p": Trace.of([{"a"}, {"b"}], "p"), "q": Trace.of([{"a"}], "q")}
        shifted = shift_assignment(a, 1)
        assert shifted["p"].steps == (frozenset({"b"}),)
        assert shifted["q"].steps == ()

    def test_zero_is_identity(self):
        a = {"p": T_AB}
        assert shift_assignment(a, 0) == a

    def test_empty_stays_empty(self):
        a = {"p": Trace((), "p")}
        assert shift_assignment(a, 5)["p"].steps == ()

    def test_composition(self, rng):
        for _ in range(50):
            a = {"p": random_trace(rng, "p"), "q": random_trace(rng, "q")}
            i, j = rng.randrange(4), rng.randrange(4)
            assert shift_assignment(shift_assignment(a, i), j) == shift_assignment(
                a, i + j
            )


class TestEvalBody:
    def test_atom_on_empty_trace_is_false(self):
        assert eval_body({"p": Trace((), "p")}, body("forall p. a@p")) is False

    def test_identical_traces_satisfy_eq(self):
        t = Trace.of([{"a"}, set()], "t")
        f = body("forall p. forall q. G (a@p <-> a@q)")
        assert eval_body({"p": t, "q": t.renamed("u")}, f) is True

    def test_weak_until_fails_when_both_sides_fail_at_zero(self):
        a = {"p": Trace.of([{"i", "o"}], "p"), "q": Trace.of([{"i"}], "q")}
        f = body("forall p. forall q. (o@p <-> o@q) W !(i@p <-> i@q)")
        assert eval_body(a, f) is False

    def test_globally_atom_unsatisfiable_on_finite_traces(self):
        f = body("forall p. G a@p")
        assert eval_body({"p": Trace.of([{"a"}], "p")}, f) is False
        # sampled: no trace up to length 4 satisfies it either
        for steps in ([], [{"a"}, {"a"}], [{"a"}] * 4):
            assert eval_body({"p": Trace.of(steps, "p")}, f) is False

    def test_next_walks_one_step(self):
        f = body("forall p. X a@p")
        assert eval_body({"p": Trace.of([set(), {"a"}], "p")}, f) is True
        assert eval_body({"p": Trace.of([{"a"}], "p")}, f) is False

    def test_until_scans_forward(self):
        f = body("forall p. a@p U b@p")
        assert eval_body({"p": Trace.of([{"a"}, {"a"}, {"b"}], "p")}, f) is True
        assert eval_body({"p": Trace.of([{"a"}, set(), {"b"}], "p")}, f) is False

    def test_unequal_lengths_allowed(self):
        f = body("forall p. forall q. G (a@p <-> a@q)")
        a = {"p": Trace.of([{"a"}], "p"), "q": Trace.of([{"a"}, set()], "q")}
        assert eval_body(a, f) is True

    def test_uncovered_variable(self):
        with pytest.raises(UncoveredVariableError):
            eval_body({"p": T_AB}, body("forall p. forall q. a@q"))


class TestEpsEval:
    def test_atom_false(self):
        assert eps_eval(body("forall p. a@p")) is False

    def test_negated_atom_true(self):
        assert eps_eval(body("forall p. !a@p")) is True

    def test_until_collapses_to_rhs(self):
        assert eps_eval(body("forall p. forall q. a@p U !b@q")) is True

    def test_agrees_with_eval_on_all_empty(self, rng):
        for _ in range(300):
            f = random_body(rng, 4)
            empty = {"p": Trace((), "p"), "q": Trace((), "q")}
            assert eps_eval(f) == eval_body(empty, f)


class TestStabilization:
    def test_shifting_past_horizon_hits_eps(self, rng):
        for _ in range(200):
            f = random_body(rng, 3)
            a = {"p": random_trace(rng, "p"), "q": random_trace(rng, "q")}
            horizon = max(len(t) for t in a.values())
            shifted = shift_assignment(a, horizon)
            assert eval_body(shifted, f) == eps_eval(f)


class TestEvalQuantified:
    def test_duplicate_traces_are_one_model(self):
        qf = parse_formula("forall p. forall q. G (a@p <-> a@q)")
        t = Trace.of([{"a"}], "t1")
        assert eval_quantified([t, t.renamed("t2")], qf) is True

    def test_distinct_traces_falsify_eq(self):
        qf = parse_formula("forall p. forall q. G (a@p <-> a@q)")
        assert (
            eval_quantified([Trace.of([{"a"}], "x"), Trace.of([set()], "y")], qf)
            is False
        )

    def test_empty_set_universal_vacuous(self):
        assert eval_quantified([], parse_formula("forall p. a@p")) is True

    def test_empty_set_existential_false(self):
        assert eval_quantified([], parse_formula("exists p. !a@p")) is False

    def test_de_morgan_over_quantifiers(self, rng):
        from hypermon.formula import Not

        for _ in range(100):
            f = random_body(rng, 3)
            traces = [random_trace(rng, f"t{i}", 3) for i in range(3)]
            forall = QuantifiedFormula((("forall", "p"), ("forall", "q")), f)
            exists_neg = QuantifiedFormula(
                (("exists", "p"), ("exists", "q")), Not(f)
            )
            assert eval_quantified(traces, forall) == (
                not eval_quantified(traces, exists_neg)
            )

    @staticmethod
    def _streams(rng, count):
        """(two-variable formula, pool) pairs over every prefix shape."""
        shapes = list(itertools.product(("forall", "exists"), repeat=2))
        for i in range(count):
            (q1, q2) = shapes[i % 4]
            qf = QuantifiedFormula(((q1, "p"), (q2, "q")), random_body(rng, 3))
            yield qf, [random_trace(rng, f"t{j}", 3) for j in range(rng.randrange(4))]

    def test_no_assignment_is_the_closed_evaluation(self, rng):
        for qf, pool in self._streams(rng, 120):
            (q1, v1), (q2, v2) = qf.prefix
            first = any if q1 == "exists" else all
            second = any if q2 == "exists" else all
            expected = first(
                second(eval_body({v1: s, v2: t}, qf.body) for t in pool) for s in pool
            )
            assert eval_quantified(pool, qf) == expected
            assert eval_quantified(pool, qf, None) == expected
            assert eval_quantified(pool, qf, {}) == expected

    def test_bound_outer_variable_agrees_with_eval_body(self, rng):
        for qf, pool in self._streams(rng, 120):
            (q1, outer), (q2, inner) = qf.prefix
            row = QuantifiedFormula(qf.prefix[1:], qf.body)
            column = QuantifiedFormula(qf.prefix[:1], qf.body)
            over_row = any if q2 == "exists" else all
            over_column = any if q1 == "exists" else all
            # a bound trace need not be in the pool
            for t in pool + [random_trace(rng, "x", 3)]:
                assert eval_quantified(pool, row, {outer: t}) == over_row(
                    eval_body({outer: t, inner: s}, qf.body) for s in pool
                )
                # binding the inner variable works the same way
                assert eval_quantified(pool, column, {inner: t}) == over_column(
                    eval_body({outer: s, inner: t}, qf.body) for s in pool
                )

    def test_unbound_variable_still_raises(self):
        qf = QuantifiedFormula((("exists", "q"),), body("forall p. exists q. a@p | a@q"))
        pool = [Trace.of([{"a"}], "t")]
        for assignment in (None, {}, {"r": pool[0]}):
            with pytest.raises(UncoveredVariableError):
                eval_quantified(pool, qf, assignment)
        assert eval_quantified(pool, qf, {"p": pool[0]}) is True

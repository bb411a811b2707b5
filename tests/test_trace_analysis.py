import itertools

import pytest

from hypermon.errors import FragmentError
from hypermon.formula import QuantifiedFormula, classify_prefix, desugar
from hypermon.parser import parse_formula
from hypermon.semantics import Trace, eval_quantified
from hypermon.template import build_template
from hypermon.trace_analysis import (
    DominanceChecker,
    TraceStore,
    dominates,
    minimize_store,
)

from conftest import random_body, random_trace


def setup(text):
    qf = parse_formula(text)
    tpl = build_template(desugar(qf.body), qf.variables)
    return tpl, classify_prefix(qf)


class TestDominates:
    def test_reflexive_in_every_fragment(self, rng):
        for text in (
            "forall p. forall q. G (a@p <-> a@q)",
            "exists p. exists q. a@p U b@q",
            "forall p. exists q. a@p -> a@q",
        ):
            tpl, qc = setup(text)
            for _ in range(5):
                t = random_trace(rng, "t", 3)
                assert dominates(tpl, qc, t, t.renamed("u"))

    def test_universal_body_all_dominate(self, rng):
        tpl, qc = setup("forall p. forall q. true")
        t1, t2 = random_trace(rng, "t1"), random_trace(rng, "t2")
        assert dominates(tpl, qc, t1, t2)
        assert dominates(tpl, qc, t2, t1)

    def test_eq_distinct_patterns_incomparable(self):
        tpl, qc = setup("forall p. forall q. G (a@p <-> a@q)")
        t1, t2 = Trace.of([{"a"}], "t1"), Trace.of([set()], "t2")
        assert not dominates(tpl, qc, t1, t2)
        assert not dominates(tpl, qc, t2, t1)

    def test_unsupported_fragment(self):
        qf = parse_formula("exists p. exists q. exists r. a@p | a@q | a@r")
        tpl = build_template(desugar(qf.body), qf.variables)
        with pytest.raises(FragmentError):
            DominanceChecker(tpl, classify_prefix(qf))

    def test_judgment_record(self):
        tpl, qc = setup("forall p. forall q. true")
        checker = DominanceChecker(tpl, qc)
        judgment = checker.judge(Trace.of([{"a"}], "big"), Trace.of([], "small"))
        assert judgment is not None
        assert judgment.dominator == "big" and judgment.dominated == "small"
        assert judgment.inclusion_checks == 2  # one per variable
        assert judgment.fragment == qc

    def test_transitive_within_fragment(self, rng):
        for _ in range(60):
            body = random_body(rng, 3)
            tpl = build_template(desugar(body), ("p", "q"))
            qc = classify_prefix(
                QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
            )
            checker = DominanceChecker(tpl, qc)
            a, b, c = (random_trace(rng, n, 3) for n in "abc")
            if checker.dominates(a, b) and checker.dominates(b, c):
                assert checker.dominates(a, c)

    def test_exists2_dominance_implies_semantic_redundancy(self, rng):
        positives = 0
        for _ in range(80):
            body = random_body(rng, 3)
            qf = QuantifiedFormula((("exists", "p"), ("exists", "q")), body)
            tpl = build_template(desugar(body), ("p", "q"))
            checker = DominanceChecker(tpl, classify_prefix(qf))
            t1, t2 = random_trace(rng, "t1", 3), random_trace(rng, "t2", 3)
            if not checker.dominates(t1, t2):
                continue
            positives += 1
            universe = [t2] + [random_trace(rng, f"u{i}", 3) for i in range(3)]
            rest = [u for u in universe if u.steps != t1.steps]
            for r in range(len(rest) + 1):
                for combo in itertools.combinations(rest, r):
                    chosen = [t1, *combo]
                    assert eval_quantified(chosen, qf) == eval_quantified(
                        chosen + [t2], qf
                    )
        assert positives >= 10

    def test_forget_keeps_steps_a_stored_trace_has(self):
        tpl, qc = setup("forall p. forall q. G (a@p <-> a@q)")
        checker = DominanceChecker(tpl, qc)
        kept, other = Trace.of([{"a"}], "kept"), Trace.of([set()], "other")
        assert not checker.dominates(kept, other)
        assert set(checker._cache) == {(kept.steps, "p"), (other.steps, "p")}
        checker.forget(kept.renamed("copy"), [kept])
        checker.forget(other, [kept])
        assert set(checker._cache) == {(kept.steps, "p")}


class TestMinimizeStore:
    def test_add_returns_the_evicted_traces(self):
        tpl, qc = setup("forall p. forall q. a@p -> !b@q")
        checker = DominanceChecker(tpl, qc)
        store = TraceStore()
        blank, a_b = Trace.of([set()], "blank"), Trace.of([{"a"}, {"b"}], "a_b")
        assert store.add(blank, checker) == []
        assert store.add(a_b, checker) == [blank]
        assert store.names() == ["a_b"]

    def test_identical_fresh_is_discarded(self):
        tpl, qc = setup("forall p. forall q. G (a@p <-> a@q)")
        t = Trace.of([{"a"}], "t")
        store = TraceStore()
        store.add(t)
        out = minimize_store(tpl, qc, store, t.renamed("copy"))
        assert out.names() == ["t"]
        assert out.dropped == [("copy", "t")]

    def test_input_store_unchanged(self):
        # F a@p & F b@q: the blank trace displaces both stored traces
        tpl, qc = setup("forall p. forall q. F a@p & F b@q")
        has_a, has_b = Trace.of([{"a"}], "has_a"), Trace.of([{"b"}], "has_b")
        store = TraceStore([has_a, has_b], [("gone", "has_a")])
        for fresh in (Trace.of([set()], "blank"), has_a.renamed("copy")):
            minimize_store(tpl, qc, store, fresh)
            assert store.traces == [has_a, has_b]
            assert store.dropped == [("gone", "has_a")]

    def test_universal_body_store_stays_singleton(self, rng):
        tpl, qc = setup("forall p. forall q. true")
        store = TraceStore()
        for i in range(5):
            store = minimize_store(tpl, qc, store, random_trace(rng, f"t{i}"))
        assert store.names() == ["t0"]

    def test_eq_keeps_one_per_pattern(self):
        tpl, qc = setup("forall p. forall q. G (a@p <-> a@q)")
        store = TraceStore()
        patterns = [
            [{"a"}],
            [set()],
            [{"a"}, {"a"}],
            [{"a"}, set()],  # same as [{"a"}] once trailing blanks are dropped
            [{"a"}],
        ]
        for i, steps in enumerate(patterns):
            store = minimize_store(tpl, qc, store, Trace.of(steps, f"t{i}"))
        assert store.names() == ["t0", "t1", "t2"]

    def test_fresh_can_displace_several(self):
        # F a@p & F b@q: a trace with neither a nor b has empty instantiated
        # languages, so it dominates every stored trace at once
        tpl, qc = setup("forall p. forall q. F a@p & F b@q")
        store = TraceStore()
        store = minimize_store(tpl, qc, store, Trace.of([{"a"}], "has_a"))
        store = minimize_store(tpl, qc, store, Trace.of([{"b"}], "has_b"))
        assert store.names() == ["has_a", "has_b"]  # incomparable
        store = minimize_store(tpl, qc, store, Trace.of([set()], "blank"))
        assert store.names() == ["blank"]
        assert ("has_a", "blank") in store.dropped
        assert ("has_b", "blank") in store.dropped

    def test_result_is_redundancy_free(self, rng):
        for _ in range(30):
            body = random_body(rng, 3)
            qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
            tpl = build_template(desugar(body), ("p", "q"))
            qc = classify_prefix(qf)
            checker = DominanceChecker(tpl, qc)
            store = TraceStore()
            for i in range(5):
                store = minimize_store(
                    tpl, qc, store, random_trace(rng, f"t{i}", 3), checker
                )
            for x, y in itertools.permutations(store.traces, 2):
                assert not checker.dominates(x, y)


class TestVerdictPreservation:
    def test_minimized_and_full_runs_agree(self, rng):
        from hypermon.engine import MonitorOptions, Session

        for _ in range(40):
            body = random_body(rng, 3)
            qf = QuantifiedFormula((("forall", "p"), ("forall", "q")), body)
            traces = [random_trace(rng, f"t{i}", 4) for i in range(6)]
            outcomes = []
            for analysis in (True, False):
                session = Session(
                    qf,
                    MonitorOptions(trace_analysis=analysis, spec_analysis=False),
                )
                hit = False
                for t in traces:
                    if session.process_trace(t).is_violation:
                        hit = True
                        break
                outcomes.append(hit)
            assert outcomes[0] == outcomes[1]
